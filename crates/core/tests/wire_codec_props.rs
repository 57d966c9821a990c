//! Property tests for the [`onepaxos::wire`] codec: every encodable value
//! round-trips bit-exactly, and no corrupted, truncated or outright random
//! byte string can do worse than a clean [`DecodeError`].
//!
//! The round-trip half is the substance of the transport abstraction's
//! correctness argument — `TcpTransport` is the shared-memory cluster
//! composed with `decode ∘ encode`, so these properties are what make the
//! socket deployment behaviourally identical to the queue one. The fuzz
//! half is the safety argument: a replica must shrug off a malformed frame
//! from a sick peer (tag bytes flipped, varints cut mid-continuation,
//! garbage after the value) without panicking the consensus thread.

use onepaxos::kv::{KvSnapshot, KvStore};
use onepaxos::onepaxos::{AbandonRe, Msg, UtilityEntry, UtilityMsg};
use onepaxos::rsm::ApplierSnapshot;
use onepaxos::wire::{
    decode_exact, encode_to_vec, read_frame, write_frame, write_frame_with, Codec, DecodeError,
    FRAME_HEADER, MAX_FRAME,
};
use onepaxos::{
    basic_paxos, mencius, multipaxos, twopc, Ballot, Command, NodeId, Op, TxnId, TxnWrites,
};
use proptest::prelude::*;

// --------------------------------------------------------------------
// Generators
// --------------------------------------------------------------------

fn arb_node() -> BoxedStrategy<NodeId> {
    any::<u16>().prop_map(NodeId).boxed()
}

fn arb_ballot() -> BoxedStrategy<Ballot> {
    (any::<u32>(), arb_node())
        .prop_map(|(round, node)| Ballot { round, node })
        .boxed()
}

fn arb_txn_id() -> BoxedStrategy<TxnId> {
    (arb_node(), any::<u64>())
        .prop_map(|(coordinator, seq)| TxnId { coordinator, seq })
        .boxed()
}

fn arb_writes() -> BoxedStrategy<TxnWrites> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..5)
        .prop_map(TxnWrites::from)
        .boxed()
}

/// The client-submitted subset of [`Op`]: what real batches contain.
fn arb_simple_op() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Noop),
        (any::<u64>(), any::<u64>()).prop_map(|(key, value)| Op::Put { key, value }),
        any::<u64>().prop_map(|key| Op::Get { key }),
        arb_writes().prop_map(|writes| Op::MultiPut { writes }),
    ]
    .boxed()
}

fn arb_cmd() -> BoxedStrategy<Command> {
    (arb_node(), any::<u64>(), arb_simple_op())
        .prop_map(|(client, req_id, op)| Command { client, req_id, op })
        .boxed()
}

/// All ten [`Op`] variants. Batches hold simple ops only — the engine
/// never nests a batch inside a batch, so neither does the generator.
fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        arb_simple_op(),
        prop::collection::vec(arb_cmd(), 0..4).prop_map(|cmds| Op::Batch(cmds.into())),
        (arb_txn_id(), arb_writes()).prop_map(|(txn, writes)| Op::TxnPrepare { txn, writes }),
        (arb_txn_id(), any::<u64>()).prop_map(|(txn, key)| Op::TxnCommit { txn, key }),
        (arb_txn_id(), any::<u64>()).prop_map(|(txn, key)| Op::TxnAbort { txn, key }),
        (arb_txn_id(), any::<u64>()).prop_map(|(txn, key)| Op::TxnStatus { txn, key }),
        any::<u64>().prop_map(|watermark| Op::Truncate { watermark }),
    ]
    .boxed()
}

fn arb_uentry() -> BoxedStrategy<UtilityEntry> {
    prop_oneof![
        (arb_node(), arb_node())
            .prop_map(|(leader, acceptor)| UtilityEntry::LeaderChange { leader, acceptor }),
        (
            arb_node(),
            arb_node(),
            prop::collection::vec((any::<u64>(), arb_cmd()), 0..3)
        )
            .prop_map(|(by, acceptor, uncommitted)| UtilityEntry::AcceptorChange {
                by,
                acceptor,
                uncommitted,
            }),
    ]
    .boxed()
}

fn arb_umsg() -> BoxedStrategy<UtilityMsg> {
    prop_oneof![
        (any::<u64>(), arb_ballot()).prop_map(|(uinst, bal)| UtilityMsg::Prepare { uinst, bal }),
        (
            any::<u64>(),
            arb_ballot(),
            prop_oneof![
                Just(None),
                (arb_ballot(), arb_uentry()).prop_map(Some).boxed()
            ]
        )
            .prop_map(|(uinst, bal, accepted)| UtilityMsg::Promise {
                uinst,
                bal,
                accepted,
            }),
        (any::<u64>(), arb_ballot())
            .prop_map(|(uinst, promised)| UtilityMsg::PrepareNack { uinst, promised }),
        (any::<u64>(), arb_ballot(), arb_uentry())
            .prop_map(|(uinst, bal, entry)| UtilityMsg::Accept { uinst, bal, entry }),
        (any::<u64>(), arb_ballot())
            .prop_map(|(uinst, promised)| UtilityMsg::AcceptNack { uinst, promised }),
        (any::<u64>(), arb_ballot(), arb_uentry())
            .prop_map(|(uinst, bal, entry)| UtilityMsg::Learn { uinst, bal, entry }),
        (any::<u64>(), any::<u64>()).prop_map(|(qid, have)| UtilityMsg::Query { qid, have }),
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), arb_uentry()), 0..3)
        )
            .prop_map(|(qid, entries)| UtilityMsg::QueryResp { qid, entries }),
    ]
    .boxed()
}

fn arb_onepaxos_msg() -> BoxedStrategy<Msg> {
    prop_oneof![
        arb_cmd().prop_map(|cmd| Msg::Forward { cmd }),
        (arb_ballot(), any::<bool>())
            .prop_map(|(pn, expect_fresh)| Msg::PrepareReq { pn, expect_fresh }),
        (
            arb_ballot(),
            prop::collection::vec((any::<u64>(), arb_ballot(), arb_cmd()), 0..3)
        )
            .prop_map(|(pn, accepted)| Msg::PrepareResp { pn, accepted }),
        (any::<u64>(), arb_ballot(), arb_cmd()).prop_map(|(inst, pn, cmd)| Msg::AcceptReq {
            inst,
            pn,
            cmd
        }),
        (
            arb_ballot(),
            any::<bool>(),
            prop_oneof![Just(AbandonRe::Prepare), Just(AbandonRe::Accept)]
        )
            .prop_map(|(hpn, fresh, re)| Msg::Abandon { hpn, fresh, re }),
        (any::<u64>(), arb_ballot(), arb_cmd()).prop_map(|(inst, pn, cmd)| Msg::Learn {
            inst,
            pn,
            cmd
        }),
        arb_umsg().prop_map(Msg::Utility),
    ]
    .boxed()
}

fn arb_multipaxos_msg() -> BoxedStrategy<multipaxos::Msg> {
    use multipaxos::Msg;
    prop_oneof![
        arb_cmd().prop_map(|cmd| Msg::Forward { cmd }),
        (arb_ballot(), any::<u64>()).prop_map(|(bal, from_inst)| Msg::Prepare { bal, from_inst }),
        (
            arb_ballot(),
            prop::collection::vec((any::<u64>(), arb_ballot(), arb_cmd()), 0..3)
        )
            .prop_map(|(bal, accepted)| Msg::Promise { bal, accepted }),
        arb_ballot().prop_map(|promised| Msg::PrepareNack { promised }),
        (arb_ballot(), any::<u64>(), arb_cmd()).prop_map(|(bal, inst, cmd)| Msg::Accept {
            bal,
            inst,
            cmd
        }),
        arb_ballot().prop_map(|promised| Msg::AcceptNack { promised }),
        (any::<u64>(), arb_ballot(), arb_cmd()).prop_map(|(inst, bal, cmd)| Msg::Learn {
            inst,
            bal,
            cmd
        }),
        arb_ballot().prop_map(|bal| Msg::Heartbeat { bal }),
    ]
    .boxed()
}

fn arb_twopc_msg() -> BoxedStrategy<twopc::Msg> {
    use twopc::Msg;
    prop_oneof![
        arb_cmd().prop_map(|cmd| Msg::Forward { cmd }),
        (any::<u64>(), arb_cmd()).prop_map(|(round, cmd)| Msg::Prepare { round, cmd }),
        any::<u64>().prop_map(|round| Msg::Ack { round }),
        any::<u64>().prop_map(|round| Msg::Nack { round }),
        (any::<u64>(), arb_cmd()).prop_map(|(round, cmd)| Msg::Commit { round, cmd }),
        any::<u64>().prop_map(|round| Msg::CommitAck { round }),
        any::<u64>().prop_map(|round| Msg::Rollback { round }),
    ]
    .boxed()
}

fn arb_mencius_msg() -> BoxedStrategy<mencius::Msg> {
    use mencius::Msg;
    prop_oneof![
        (any::<u64>(), arb_cmd()).prop_map(|(inst, cmd)| Msg::Accept { inst, cmd }),
        (any::<u64>(), arb_cmd()).prop_map(|(inst, cmd)| Msg::Learn { inst, cmd }),
    ]
    .boxed()
}

fn arb_basic_paxos_msg() -> BoxedStrategy<basic_paxos::Msg> {
    use basic_paxos::Msg;
    prop_oneof![
        arb_cmd().prop_map(|cmd| Msg::Forward { cmd }),
        (any::<u64>(), arb_ballot()).prop_map(|(inst, bal)| Msg::Prepare { inst, bal }),
        (
            any::<u64>(),
            arb_ballot(),
            prop_oneof![Just(None), (arb_ballot(), arb_cmd()).prop_map(Some).boxed()]
        )
            .prop_map(|(inst, bal, accepted)| Msg::Promise {
                inst,
                bal,
                accepted,
            }),
        (any::<u64>(), arb_ballot())
            .prop_map(|(inst, promised)| Msg::PrepareNack { inst, promised }),
        (any::<u64>(), arb_ballot(), arb_cmd()).prop_map(|(inst, bal, cmd)| Msg::Accept {
            inst,
            bal,
            cmd
        }),
        (any::<u64>(), arb_ballot())
            .prop_map(|(inst, promised)| Msg::AcceptNack { inst, promised }),
        (any::<u64>(), arb_ballot(), arb_cmd()).prop_map(|(inst, bal, cmd)| Msg::Learn {
            inst,
            bal,
            cmd
        }),
    ]
    .boxed()
}

/// A store image with every part populated some of the time: the map,
/// staged and parked transactions, finished outcomes and their floors.
fn arb_kv_snapshot() -> BoxedStrategy<KvSnapshot> {
    let fragments = || prop::collection::vec((arb_txn_id(), arb_writes()), 0..3);
    (
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..5),
        (any::<u64>(), any::<u64>()),
        fragments(),
        fragments(),
        prop::collection::vec((arb_txn_id(), any::<bool>()), 0..3),
        prop::collection::vec((arb_node(), any::<u64>()), 0..3),
    )
        .prop_map(
            |(map, (writes, reads), staged, parked, finished, finished_floor)| KvSnapshot {
                map,
                writes,
                reads,
                staged,
                parked,
                finished,
                finished_floor,
            },
        )
        .boxed()
}

/// The catch-up transfer: a [`KvSnapshot`] plus the session table.
fn arb_snapshot() -> BoxedStrategy<ApplierSnapshot<KvStore>> {
    let output = || prop_oneof![Just(None), any::<u64>().prop_map(Some)];
    (
        any::<u64>(),
        arb_kv_snapshot(),
        prop::collection::vec((arb_node(), (any::<u64>(), output())), 0..3),
    )
        .prop_map(|(watermark, state, sessions)| ApplierSnapshot {
            watermark,
            state,
            sessions,
        })
        .boxed()
}

// --------------------------------------------------------------------
// Round trips: decode ∘ encode ≡ identity, with nothing left over
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn op_round_trips(op in arb_op()) {
        prop_assert_eq!(decode_exact::<Op>(&encode_to_vec(&op)).unwrap(), op);
    }

    // The catch-up snapshot rides along as a further input.
    // `ApplierSnapshot` has no `PartialEq`, so it compares by field;
    // `state` is the `KvSnapshot` round trip.
    #[test]
    fn command_round_trips(cmd in arb_cmd(), snap in arb_snapshot()) {
        prop_assert_eq!(decode_exact::<Command>(&encode_to_vec(&cmd)).unwrap(), cmd);
        let got = decode_exact::<ApplierSnapshot<KvStore>>(&encode_to_vec(&snap)).unwrap();
        prop_assert_eq!(got.watermark, snap.watermark);
        prop_assert_eq!(got.state, snap.state);
        prop_assert_eq!(got.sessions, snap.sessions);
    }

    #[test]
    fn onepaxos_msg_round_trips(msg in arb_onepaxos_msg()) {
        prop_assert_eq!(decode_exact::<Msg>(&encode_to_vec(&msg)).unwrap(), msg);
    }

    // Basic-Paxos and Mencius, the Paxos baselines no TCP suite runs,
    // ride along as further inputs.
    #[test]
    fn multipaxos_msg_round_trips(
        msg in arb_multipaxos_msg(),
        basic in arb_basic_paxos_msg(),
        mencius in arb_mencius_msg(),
    ) {
        prop_assert_eq!(
            decode_exact::<multipaxos::Msg>(&encode_to_vec(&msg)).unwrap(),
            msg
        );
        prop_assert_eq!(
            decode_exact::<basic_paxos::Msg>(&encode_to_vec(&basic)).unwrap(),
            basic
        );
        prop_assert_eq!(
            decode_exact::<mencius::Msg>(&encode_to_vec(&mencius)).unwrap(),
            mencius
        );
    }

    #[test]
    fn twopc_msg_round_trips(msg in arb_twopc_msg()) {
        prop_assert_eq!(decode_exact::<twopc::Msg>(&encode_to_vec(&msg)).unwrap(), msg);
    }

    // A byte stream carrying several frames back to back parses into the
    // same values in the same order — the exact shape `TcpTransport`'s
    // receive buffer sees after a large socket read.
    #[test]
    fn frames_parse_back_to_back(a in arb_op(), b in arb_onepaxos_msg()) {
        let mut stream = Vec::new();
        write_frame_with(&mut stream, |buf| a.encode(buf));
        let first = stream.len();
        write_frame(&mut stream, &encode_to_vec(&b));
        let (payload, consumed) = read_frame(&stream).unwrap().expect("first frame complete");
        prop_assert_eq!(consumed, first);
        prop_assert_eq!(decode_exact::<Op>(payload).unwrap(), a);
        let (payload, also) = read_frame(&stream[consumed..]).unwrap().expect("second frame");
        prop_assert_eq!(consumed + also, stream.len());
        prop_assert_eq!(decode_exact::<Msg>(payload).unwrap(), b);
    }
}

// --------------------------------------------------------------------
// Fuzz: truncation, corruption and garbage are errors, never panics
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    // Every strict prefix of a frame is "not yet a frame" — the framing
    // layer asks for more bytes instead of misparsing a partial read.
    #[test]
    fn truncated_frames_are_incomplete_not_errors(
        op in arb_op(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut frame = Vec::new();
        write_frame_with(&mut frame, |buf| op.encode(buf));
        let k = cut.index(frame.len());
        prop_assert!(
            matches!(read_frame(&frame[..k]), Ok(None)),
            "prefix of {k}/{} bytes must read as incomplete", frame.len()
        );
    }

    // Every strict prefix of a value encoding fails to decode: no prefix
    // of one message is mistakable for a complete other message.
    #[test]
    fn truncated_encodings_error_cleanly(
        msg in arb_onepaxos_msg(),
        basic in arb_basic_paxos_msg(),
        mencius in arb_mencius_msg(),
        snap in arb_snapshot(),
        cut in any::<prop::sample::Index>(),
    ) {
        fn prefix_fails<T: Codec>(v: &T, cut: &prop::sample::Index) -> bool {
            let bytes = encode_to_vec(v);
            decode_exact::<T>(&bytes[..cut.index(bytes.len())]).is_err()
        }
        prop_assert!(prefix_fails(&msg, &cut));
        prop_assert!(prefix_fails(&basic, &cut));
        prop_assert!(prefix_fails(&mencius, &cut));
        prop_assert!(prefix_fails(&snap, &cut));
    }

    // Flipping any byte of a valid encoding yields Ok (a different value)
    // or a clean Err — decoding corrupted input must never panic.
    #[test]
    fn corrupted_encodings_never_panic(
        op in arb_op(),
        basic in arb_basic_paxos_msg(),
        mencius in arb_mencius_msg(),
        snap in arb_snapshot(),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let corrupt = |mut bytes: Vec<u8>| {
            let i = pos.index(bytes.len());
            bytes[i] ^= flip;
            bytes
        };
        let bytes = corrupt(encode_to_vec(&op));
        let _ = decode_exact::<Op>(&bytes);
        let _ = decode_exact::<Msg>(&bytes);
        let _ = decode_exact::<basic_paxos::Msg>(&corrupt(encode_to_vec(&basic)));
        let _ = decode_exact::<mencius::Msg>(&corrupt(encode_to_vec(&mencius)));
        let _ = decode_exact::<ApplierSnapshot<KvStore>>(&corrupt(encode_to_vec(&snap)));
    }

    // Outright random bytes: decoders and the frame reader return, and a
    // garbage payload still travels opaquely through the framing layer.
    #[test]
    fn random_bytes_decode_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_exact::<Op>(&bytes);
        let _ = decode_exact::<Command>(&bytes);
        let _ = decode_exact::<Msg>(&bytes);
        let _ = read_frame(&bytes);
        let mut framed = Vec::new();
        write_frame(&mut framed, &bytes);
        let (payload, consumed) = read_frame(&framed).unwrap().expect("complete frame");
        prop_assert_eq!(payload, &bytes[..]);
        prop_assert_eq!(consumed, framed.len());
    }

    // Bytes appended after a complete value are reported, byte-exactly, as
    // trailing garbage — decode_exact refuses to silently swallow them.
    #[test]
    fn trailing_bytes_are_rejected(op in arb_op(), extra in 1usize..8) {
        let mut bytes = encode_to_vec(&op);
        bytes.resize(bytes.len() + extra, 0);
        prop_assert!(matches!(
            decode_exact::<Op>(&bytes),
            Err(DecodeError::Trailing(n)) if n == extra
        ));
    }
}

// --------------------------------------------------------------------
// Frame-header corruption: each guard fires on its own byte
// --------------------------------------------------------------------

#[test]
fn corrupt_frame_headers_are_rejected_by_field() {
    let mut frame = Vec::new();
    write_frame_with(&mut frame, |buf| Op::Noop.encode(buf));
    assert_eq!(frame.len(), FRAME_HEADER + 1);

    let mut bad_magic = frame.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        read_frame(&bad_magic),
        Err(DecodeError::BadMagic(_))
    ));

    let mut bad_version = frame.clone();
    bad_version[2] = 0x7F;
    assert!(matches!(
        read_frame(&bad_version),
        Err(DecodeError::BadVersion(0x7F))
    ));

    let mut bad_reserved = frame.clone();
    bad_reserved[3] = 1;
    assert!(matches!(
        read_frame(&bad_reserved),
        Err(DecodeError::BadReserved(1))
    ));

    let mut oversized = frame.clone();
    let huge = (MAX_FRAME as u32) + 1;
    oversized[4..8].copy_from_slice(&huge.to_le_bytes());
    assert!(matches!(
        read_frame(&oversized),
        Err(DecodeError::FrameTooLarge(n)) if n == huge
    ));

    // The unmodified original still parses — the guards above really were
    // triggered by the corrupted byte, not by the payload.
    let (payload, consumed) = read_frame(&frame).unwrap().expect("intact frame");
    assert_eq!(consumed, frame.len());
    assert_eq!(decode_exact::<Op>(payload).unwrap(), Op::Noop);
}

// --------------------------------------------------------------------
// Chunked receive path: zero-copy slicing and split-invariance
// --------------------------------------------------------------------

use onepaxos::wire::{Chunk, RecvBuf};

/// Feeds `stream` into `buf` in pieces of the given sizes (cycled), and
/// returns every complete frame payload drained along the way, decoded
/// with `decode_exact::<Op>`. Mirrors exactly what `TcpTransport::fill`
/// + `drain_frames` do with an arbitrary sequence of socket reads.
fn feed_in_pieces(buf: &mut RecvBuf, stream: &[u8], pieces: &[usize]) -> Vec<Op> {
    let mut out = Vec::new();
    let mut fed = 0;
    let mut pick = 0;
    while fed < stream.len() {
        let tail = buf.writable();
        assert!(!tail.is_empty(), "writable tail must never be empty");
        let step = pieces[pick % pieces.len()].clamp(1, tail.len());
        pick += 1;
        let n = step.min(stream.len() - fed);
        tail[..n].copy_from_slice(&stream[fed..fed + n]);
        buf.commit(n);
        fed += n;
        while let Some(frame) = buf.next_frame().expect("valid stream") {
            out.push(decode_exact::<Op>(&frame).expect("valid payload"));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // The decoded values coming out of the chunked reader are invariant
    // under how the byte stream was cut into socket reads, and under the
    // segment size (frames spanning segment boundaries decode the same).
    #[test]
    fn frames_split_anywhere_decode_identically(
        ops in prop::collection::vec(arb_op(), 1..6),
        pieces in prop::collection::vec(1usize..24, 1..8),
        segment in (FRAME_HEADER + 1)..96,
    ) {
        let mut stream = Vec::new();
        for op in &ops {
            write_frame_with(&mut stream, |buf| op.encode(buf));
        }
        let mut buf = RecvBuf::with_segment_size(segment);
        let got = feed_in_pieces(&mut buf, &stream, &pieces);
        prop_assert_eq!(got, ops);
        prop_assert_eq!(buf.pending(), 0);
    }

    // Zero-copy: a frame sliced out of the receive buffer aliases the
    // buffer's segment rather than copying it, two frames arriving in
    // one read share one segment, and `Chunk::slice` aliases its parent
    // byte-for-byte (same backing allocation, same addresses).
    #[test]
    fn decoded_chunks_alias_their_segment(
        a in arb_op(),
        b in arb_op(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut stream = Vec::new();
        write_frame_with(&mut stream, |buf| a.encode(buf));
        write_frame_with(&mut stream, |buf| b.encode(buf));

        let mut buf = RecvBuf::new();
        let tail = buf.writable();
        tail[..stream.len()].copy_from_slice(&stream);
        buf.commit(stream.len());

        let ca: Chunk = buf.next_frame().unwrap().expect("first frame");
        let cb: Chunk = buf.next_frame().unwrap().expect("second frame");
        prop_assert!(ca.same_segment(&cb), "one read, one segment");
        prop_assert_eq!(decode_exact::<Op>(&ca).unwrap(), a);
        prop_assert_eq!(decode_exact::<Op>(&cb).unwrap(), b);

        let k = cut.index(ca.len() + 1);
        let sliced = ca.slice(0..k);
        prop_assert!(sliced.same_segment(&ca), "slice shares the segment");
        prop_assert_eq!(sliced.as_slice().as_ptr(), ca.as_slice().as_ptr());
        prop_assert_eq!(sliced.as_slice(), &ca.as_slice()[..k]);
    }

    // Corruption fuzz through the chunked reader: flip any byte of a
    // valid multi-frame stream, feed it through a RecvBuf in arbitrary
    // pieces — every outcome is a decoded value, a clean framing error,
    // or a request for more bytes. Never a panic, never a runaway
    // allocation (a corrupt length field is clamped, then rejected).
    #[test]
    fn chunked_reader_survives_corruption(
        ops in prop::collection::vec(arb_op(), 1..4),
        pieces in prop::collection::vec(1usize..16, 1..6),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut stream = Vec::new();
        for op in &ops {
            write_frame_with(&mut stream, |buf| op.encode(buf));
        }
        let i = pos.index(stream.len());
        stream[i] ^= flip;

        let mut buf = RecvBuf::with_segment_size(64);
        let mut fed = 0;
        let mut pick = 0;
        'outer: while fed < stream.len() {
            let tail = buf.writable();
            prop_assert!(!tail.is_empty());
            let step = pieces[pick % pieces.len()].clamp(1, tail.len());
            pick += 1;
            let n = step.min(stream.len() - fed);
            tail[..n].copy_from_slice(&stream[fed..fed + n]);
            buf.commit(n);
            fed += n;
            loop {
                match buf.next_frame() {
                    Ok(Some(frame)) => { let _ = decode_exact::<Op>(&frame); }
                    Ok(None) => break,
                    Err(_) => break 'outer, // dead connection, as in transport
                }
            }
        }
    }
}
