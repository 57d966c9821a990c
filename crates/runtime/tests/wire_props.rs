//! Property tests for the runtime's [`Wire`] envelope: the frame a
//! `TcpTransport` actually puts on a socket is `topic ++ Wire<M>`, so
//! beyond the per-message codecs (tested in the core crate) the envelope
//! itself must round-trip for every arm — including `Shutdown`, which has
//! no payload, and `Peer`, which nests a full protocol message.
//!
//! The round trips cannot see a change that moves `encode` and `decode`
//! together (a renumbered tag, two fields swapped), so one literal
//! frame per arm pins the bytes as well — the envelope's share of
//! `crates/core/tests/wire_golden.rs`.

use onepaxos::multipaxos;
use onepaxos::wire::{
    decode_exact, encode_to_vec, read_frame, write_frame_with, Codec, DecodeError,
};
use onepaxos::{Ballot, NodeId, Op};
use onepaxos_runtime::Wire;
use proptest::prelude::*;

fn arb_node() -> BoxedStrategy<NodeId> {
    any::<u16>().prop_map(NodeId).boxed()
}

fn arb_op() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Noop),
        (any::<u64>(), any::<u64>()).prop_map(|(key, value)| Op::Put { key, value }),
        any::<u64>().prop_map(|key| Op::Get { key }),
    ]
    .boxed()
}

fn arb_peer_msg() -> BoxedStrategy<multipaxos::Msg> {
    use multipaxos::Msg;
    let bal = || {
        (any::<u32>(), arb_node())
            .prop_map(|(round, node)| Ballot { round, node })
            .boxed()
    };
    prop_oneof![
        (bal(), any::<u64>()).prop_map(|(bal, from_inst)| Msg::Prepare { bal, from_inst }),
        bal().prop_map(|bal| Msg::Heartbeat { bal }),
        bal().prop_map(|promised| Msg::AcceptNack { promised }),
    ]
    .boxed()
}

fn arb_value() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)].boxed()
}

fn arb_wire() -> BoxedStrategy<Wire<multipaxos::Msg>> {
    prop_oneof![
        arb_peer_msg().prop_map(Wire::Peer),
        (arb_node(), any::<u64>(), arb_op()).prop_map(|(client, req_id, op)| Wire::Request {
            client,
            req_id,
            op,
        }),
        (arb_node(), any::<u64>(), any::<u64>()).prop_map(|(client, req_id, key)| {
            Wire::ReadRelaxed {
                client,
                req_id,
                key,
            }
        }),
        (any::<u64>(), any::<u64>(), arb_value()).prop_map(|(req_id, instance, value)| {
            Wire::Reply {
                req_id,
                instance,
                value,
            }
        }),
        Just(Wire::Shutdown),
        (any::<u16>(), any::<u64>())
            .prop_map(|(shard, have)| Wire::SnapshotRequest { shard, have }),
        (
            any::<u16>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(shard, watermark, bytes)| Wire::Snapshot {
                shard,
                watermark,
                bytes,
            }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn wire_envelope_round_trips(w in arb_wire()) {
        prop_assert_eq!(
            decode_exact::<Wire<multipaxos::Msg>>(&encode_to_vec(&w)).unwrap(),
            w
        );
    }

    // What TcpTransport frames is (topic, Wire) — that pair must round-trip
    // too, since shard routing over sockets depends on the topic surviving.
    #[test]
    fn topic_tagged_envelope_round_trips(topic in any::<u16>(), w in arb_wire()) {
        let mut buf = Vec::new();
        topic.encode(&mut buf);
        w.encode(&mut buf);
        let mut r = onepaxos::wire::Reader::new(&buf);
        let got_topic = u16::decode(&mut r).unwrap();
        let got: Wire<multipaxos::Msg> = Wire::decode(&mut r).unwrap();
        prop_assert!(r.is_empty(), "decoder left {} trailing bytes", r.remaining());
        prop_assert_eq!(got_topic, topic);
        prop_assert_eq!(got, w);
    }
}

/// One framed `topic ++ Wire<M>` payload per envelope arm, byte for byte
/// as `TcpTransport` writes it. Each row is `pattern => topic, value,
/// frame;` and the patterns are the arms of a wildcard-free `match`
/// through which a value finds its golden frame, so an arm added to
/// `Wire` later does not compile until it has a row here.
macro_rules! golden_frames {
    ($($pat:pat => $topic:expr, $val:expr, $frame:expr;)+) => {{
        fn frame_of(w: &Wire<multipaxos::Msg>) -> &'static [u8] {
            match w {
                $($pat => &$frame,)+
            }
        }
        $(
            let (topic, w): (u16, Wire<multipaxos::Msg>) = ($topic, $val);
            assert!(matches!(w, $pat), "{w:?} is not the arm its row names");
            let mut framed = Vec::new();
            write_frame_with(&mut framed, |buf| {
                topic.encode(buf);
                w.encode(buf);
            });
            assert_eq!(framed, frame_of(&w), "frame of {w:?}");
            let (payload, consumed) = read_frame(frame_of(&w)).unwrap().expect("whole frame");
            assert_eq!(consumed, framed.len());
            assert_eq!(decode_exact::<(u16, Wire<multipaxos::Msg>)>(payload).unwrap(), (topic, w));
        )+
    }};
}

#[test]
fn envelope_frames_match_golden_bytes() {
    // Every frame opens with magic 1D C5, version 01, reserved 00 and the
    // payload length as a little-endian u32; the payload opens with the
    // topic (u16) and the arm's tag.
    golden_frames! {
        Wire::Peer(..) => 1, Wire::Peer(multipaxos::Msg::Heartbeat {
            bal: Ballot { round: 3, node: NodeId(1) },
        }), [
            0x1D, 0xC5, 0x01, 0x00, 0x07, 0x00, 0x00, 0x00, // header, 7-byte payload
            0x01, 0x00, 0x00, 0x07, 0x03, 0x01, 0x00, // topic, Peer, Heartbeat{bal}
        ];
        Wire::Request { .. } => 1, Wire::Request {
            client: NodeId(9),
            req_id: 7,
            op: Op::Put { key: 1, value: 2 },
        }, [
            0x1D, 0xC5, 0x01, 0x00, 0x09, 0x00, 0x00, 0x00, // header
            0x01, 0x00, 0x01, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02, // topic, Request, n9 #7 Put
        ];
        Wire::ReadRelaxed { .. } => 1, Wire::ReadRelaxed {
            client: NodeId(9),
            req_id: 7,
            key: 300,
        }, [
            0x1D, 0xC5, 0x01, 0x00, 0x08, 0x00, 0x00, 0x00, // header
            0x01, 0x00, 0x02, 0x09, 0x00, 0x07, 0xAC, 0x02, // topic, ReadRelaxed, n9 #7 key
        ];
        Wire::Reply { .. } => 1, Wire::Reply { req_id: 7, instance: 300, value: Some(2) }, [
            0x1D, 0xC5, 0x01, 0x00, 0x08, 0x00, 0x00, 0x00, // header
            0x01, 0x00, 0x03, 0x07, 0xAC, 0x02, 0x01, 0x02, // topic, Reply, #7 @300 Some(2)
        ];
        Wire::Shutdown => 0x0102, Wire::Shutdown, [
            0x1D, 0xC5, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00, // header
            0x02, 0x01, 0x05, // topic (little-endian), Shutdown
        ];
        Wire::SnapshotRequest { .. } => 1, Wire::SnapshotRequest { shard: 1, have: 42 }, [
            0x1D, 0xC5, 0x01, 0x00, 0x06, 0x00, 0x00, 0x00, // header
            0x01, 0x00, 0x06, 0x01, 0x00, 0x2A, // topic, SnapshotRequest, shard, have
        ];
        Wire::Snapshot { .. } => 1, Wire::Snapshot {
            shard: 1,
            watermark: 42,
            bytes: vec![0xDE, 0xAD],
        }, [
            0x1D, 0xC5, 0x01, 0x00, 0x09, 0x00, 0x00, 0x00, // header
            // topic, Snapshot, shard, watermark, bytes
            0x01, 0x00, 0x07, 0x01, 0x00, 0x2A, 0x02, 0xDE, 0xAD,
        ];
    }
}

#[test]
fn bad_envelope_tag_names_the_type() {
    // 0x04 is a retired tag, never reused, so it stays bad.
    for tag in [0x04, 0xFF] {
        assert_eq!(
            decode_exact::<Wire<multipaxos::Msg>>(&[tag]),
            Err(DecodeError::BadTag { what: "Wire", tag })
        );
    }
}
