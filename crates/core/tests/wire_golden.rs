//! Golden bytes for the [`onepaxos::wire`] format: one literal byte
//! string per wire struct and per variant of every wire enum.
//!
//! The round-trip proptests (`wire_codec_props.rs`) prove that `decode`
//! inverts `encode`; they cannot see a change that moves both together —
//! a renumbered tag, two fields swapped, a varint widened. These rows
//! can: each asserts `encode_to_vec(v) == bytes` and
//! `decode_exact(bytes) == v` against bytes written out by hand from the
//! format's rules (integers little-endian, `u32`/`u64` and lengths as
//! LEB128 varints, a one-byte tag before an enum's fields, fields in
//! declaration order). A row that has to change means the format
//! changed, which is what `FRAME_VERSION` is for.
//!
//! The runtime's `Wire` envelope is pinned the same way, framed, in
//! `crates/runtime/tests/wire_props.rs`.

use std::fmt::Debug;

use onepaxos::kv::{KvSnapshot, KvStore};
use onepaxos::onepaxos::{AbandonRe, Msg as OnePaxosMsg, UtilityEntry, UtilityMsg};
use onepaxos::rsm::ApplierSnapshot;
use onepaxos::wire::{decode_exact, encode_to_vec, Codec};
use onepaxos::{basic_paxos, mencius, multipaxos, twopc, Ballot, Command, NodeId, Op, TxnId};

fn pin<T: Codec + PartialEq + Debug>(v: &T, bytes: &[u8]) {
    assert_eq!(encode_to_vec(v), bytes, "encoding of {v:?}");
    assert_eq!(
        &decode_exact::<T>(bytes).expect("golden bytes decode"),
        v,
        "decoding of {bytes:02x?}"
    );
}

/// Pins one enum: a row per variant, `pattern => value, bytes;`.
///
/// The rows' patterns are the arms of a wildcard-free `match`, and that
/// `match` is how a value finds its golden bytes — so a variant added to
/// `$ty` later does not compile until it has a row here.
macro_rules! golden {
    ($ty:ty { $($pat:pat => $val:expr, $bytes:expr;)+ }) => {{
        fn bytes_of(v: &$ty) -> &'static [u8] {
            match v {
                $($pat => &$bytes,)+
            }
        }
        $(
            let v: $ty = $val;
            assert!(matches!(v, $pat), "{v:?} is not the variant its row names");
            pin(&v, bytes_of(&v));
        )+
    }};
}

// Values shared between rows, with their encodings spelled out once:
//   bal(3, 1)  = 03 | 01 00            (round varint, node u16)
//   put_cmd()  = 09 00 | 07 | 01 01 02 (client, req_id, Op::Put{1, 2})
//   noop_cmd() = 08 00 | 02 | 00       (client, req_id, Op::Noop)
//   300        = AC 02,  4096 = 80 20  (two-byte varints)

fn bal(round: u32, node: u16) -> Ballot {
    Ballot::new(round, NodeId(node))
}

fn put_cmd() -> Command {
    Command::new(NodeId(9), 7, Op::Put { key: 1, value: 2 })
}

fn noop_cmd() -> Command {
    Command::noop(NodeId(8), 2)
}

fn leader_change() -> UtilityEntry {
    UtilityEntry::LeaderChange {
        leader: NodeId(1),
        acceptor: NodeId(2),
    }
}

fn acceptor_change() -> UtilityEntry {
    UtilityEntry::AcceptorChange {
        by: NodeId(0),
        acceptor: NodeId(2),
        uncommitted: vec![(3, Command::noop(NodeId(9), 1))],
    }
}

#[test]
fn structs() {
    pin(&NodeId(0x0102), &[0x02, 0x01]);
    pin(&bal(300, 2), &[0xAC, 0x02, 0x02, 0x00]);
    pin(&TxnId::new(NodeId(7), 300), &[0x07, 0x00, 0xAC, 0x02]);
    pin(&put_cmd(), &[0x09, 0x00, 0x07, 0x01, 0x01, 0x02]);
}

#[test]
fn op() {
    let txn = |seq| TxnId::new(NodeId(7), seq);
    // A batch whose second command is itself a batch: the engine never
    // builds one, but the format nests and the bytes say how.
    let nested = Op::Batch(
        vec![
            Command::noop(NodeId(3), 1),
            Command::new(
                NodeId(4),
                9,
                Op::Batch(vec![Command::new(NodeId(5), 2, Op::Put { key: 8, value: 9 })].into()),
            ),
        ]
        .into(),
    );
    golden!(Op {
        Op::Noop => Op::Noop, [0x00];
        Op::Put { .. } => Op::Put { key: 1, value: 300 }, [0x01, 0x01, 0xAC, 0x02];
        Op::Get { .. } => Op::Get { key: u64::MAX },
            [0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        Op::Batch(..) => nested, [
            0x03, 0x02, // tag, two commands
            0x03, 0x00, 0x01, 0x00, // n3 #1 Noop
            0x04, 0x00, 0x09, 0x03, 0x01, // n4 #9 Batch of one
            0x05, 0x00, 0x02, 0x01, 0x08, 0x09, // n5 #2 Put{8, 9}
        ];
        Op::MultiPut { .. } => Op::MultiPut { writes: vec![(1, 2), (3, 4)].into() },
            [0x04, 0x02, 0x01, 0x02, 0x03, 0x04];
        Op::TxnPrepare { .. } => Op::TxnPrepare { txn: txn(3), writes: vec![(5, 6)].into() },
            [0x05, 0x07, 0x00, 0x03, 0x01, 0x05, 0x06];
        Op::TxnCommit { .. } => Op::TxnCommit { txn: txn(3), key: 5 },
            [0x06, 0x07, 0x00, 0x03, 0x05];
        Op::TxnAbort { .. } => Op::TxnAbort { txn: txn(4), key: 6 },
            [0x07, 0x07, 0x00, 0x04, 0x06];
        Op::TxnStatus { .. } => Op::TxnStatus { txn: txn(5), key: 7 },
            [0x08, 0x07, 0x00, 0x05, 0x07];
        Op::Truncate { .. } => Op::Truncate { watermark: 4096 }, [0x09, 0x80, 0x20];
    });
}

#[test]
fn kv_snapshot() {
    let snap = KvSnapshot {
        map: vec![(1, 10), (2, 300)],
        writes: 5,
        reads: 3,
        staged: vec![(TxnId::new(NodeId(7), 1), vec![(1, 11)].into())],
        parked: vec![(TxnId::new(NodeId(8), 2), vec![(2, 22), (3, 33)].into())],
        finished: vec![
            (TxnId::new(NodeId(7), 0), true),
            (TxnId::new(NodeId(8), 1), false),
        ],
        finished_floor: vec![(NodeId(7), 1)],
    };
    pin(
        &snap,
        &[
            0x02, 0x01, 0x0A, 0x02, 0xAC, 0x02, // map
            0x05, 0x03, // writes, reads
            0x01, 0x07, 0x00, 0x01, 0x01, 0x01, 0x0B, // staged: t7.1 [(1, 11)]
            0x01, 0x08, 0x00, 0x02, 0x02, 0x02, 0x16, 0x03, 0x21, // parked: t8.2
            0x02, 0x07, 0x00, 0x00, 0x01, 0x08, 0x00, 0x01, 0x00, // finished
            0x01, 0x07, 0x00, 0x01, // finished_floor
        ],
    );
}

#[test]
fn applier_snapshot() {
    let snap: ApplierSnapshot<KvStore> = ApplierSnapshot {
        watermark: 42,
        state: KvSnapshot {
            map: vec![(1, 10)],
            writes: 1,
            ..KvSnapshot::default()
        },
        sessions: vec![(NodeId(9), (7, Some(2))), (NodeId(10), (1, None))],
    };
    let bytes = [
        0x2A, // watermark
        0x01, 0x01, 0x0A, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, // state
        0x02, // two sessions
        0x09, 0x00, 0x07, 0x01, 0x02, // n9: #7 -> Some(2)
        0x0A, 0x00, 0x01, 0x00, // n10: #1 -> None
    ];
    assert_eq!(encode_to_vec(&snap), bytes);
    // `ApplierSnapshot` has no `PartialEq` (its fields are a trait's
    // associated types); compare field by field.
    let got = decode_exact::<ApplierSnapshot<KvStore>>(&bytes).expect("golden bytes decode");
    assert_eq!(got.watermark, snap.watermark);
    assert_eq!(got.state, snap.state);
    assert_eq!(got.sessions, snap.sessions);
}

#[test]
fn utility_entry() {
    golden!(UtilityEntry {
        UtilityEntry::LeaderChange { .. } => leader_change(), [0x00, 0x01, 0x00, 0x02, 0x00];
        UtilityEntry::AcceptorChange { .. } => acceptor_change(),
            [0x01, 0x00, 0x00, 0x02, 0x00, 0x01, 0x03, 0x09, 0x00, 0x01, 0x00];
    });
}

#[test]
fn utility_msg() {
    golden!(UtilityMsg {
        UtilityMsg::Prepare { .. } => UtilityMsg::Prepare { uinst: 4, bal: bal(3, 1) },
            [0x00, 0x04, 0x03, 0x01, 0x00];
        UtilityMsg::Promise { .. } => UtilityMsg::Promise {
            uinst: 4,
            bal: bal(3, 1),
            accepted: Some((bal(2, 0), leader_change())),
        }, [
            0x01, 0x04, 0x03, 0x01, 0x00, // tag, uinst, bal
            0x01, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, // Some((bal, entry))
        ];
        UtilityMsg::PrepareNack { .. } => UtilityMsg::PrepareNack { uinst: 4, promised: bal(5, 2) },
            [0x02, 0x04, 0x05, 0x02, 0x00];
        UtilityMsg::Accept { .. } => UtilityMsg::Accept {
            uinst: 4,
            bal: bal(3, 1),
            entry: leader_change(),
        }, [0x03, 0x04, 0x03, 0x01, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00];
        UtilityMsg::AcceptNack { .. } => UtilityMsg::AcceptNack { uinst: 4, promised: bal(5, 2) },
            [0x04, 0x04, 0x05, 0x02, 0x00];
        UtilityMsg::Learn { .. } => UtilityMsg::Learn {
            uinst: 4,
            bal: bal(3, 1),
            entry: acceptor_change(),
        }, [
            0x05, 0x04, 0x03, 0x01, 0x00, // tag, uinst, bal
            0x01, 0x00, 0x00, 0x02, 0x00, 0x01, 0x03, 0x09, 0x00, 0x01, 0x00, // entry
        ];
        UtilityMsg::Query { .. } => UtilityMsg::Query { qid: 77, have: 2 }, [0x06, 0x4D, 0x02];
        UtilityMsg::QueryResp { .. } => UtilityMsg::QueryResp {
            qid: 77,
            entries: vec![(1, leader_change())],
        }, [0x07, 0x4D, 0x01, 0x01, 0x00, 0x01, 0x00, 0x02, 0x00];
    });
}

#[test]
fn abandon_re() {
    golden!(AbandonRe {
        AbandonRe::Prepare => AbandonRe::Prepare, [0x00];
        AbandonRe::Accept => AbandonRe::Accept, [0x01];
    });
}

#[test]
fn onepaxos_msg() {
    use OnePaxosMsg as Msg;
    golden!(Msg {
        Msg::Forward { .. } => Msg::Forward { cmd: put_cmd() },
            [0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::PrepareReq { .. } => Msg::PrepareReq { pn: bal(3, 1), expect_fresh: true },
            [0x01, 0x03, 0x01, 0x00, 0x01];
        Msg::PrepareResp { .. } => Msg::PrepareResp {
            pn: bal(3, 1),
            accepted: vec![(7, bal(2, 0), noop_cmd())],
        }, [
            0x02, 0x03, 0x01, 0x00, // tag, pn
            0x01, 0x07, 0x02, 0x00, 0x00, 0x08, 0x00, 0x02, 0x00, // [(7, bal, cmd)]
        ];
        Msg::AcceptReq { .. } => Msg::AcceptReq { inst: 300, pn: bal(3, 1), cmd: put_cmd() },
            [0x03, 0xAC, 0x02, 0x03, 0x01, 0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::Abandon { .. } => Msg::Abandon {
            hpn: bal(9, 2),
            fresh: false,
            re: AbandonRe::Accept,
        }, [0x04, 0x09, 0x02, 0x00, 0x00, 0x01];
        Msg::Learn { .. } => Msg::Learn { inst: 300, pn: bal(3, 1), cmd: noop_cmd() },
            [0x05, 0xAC, 0x02, 0x03, 0x01, 0x00, 0x08, 0x00, 0x02, 0x00];
        Msg::Utility(..) => Msg::Utility(UtilityMsg::Query { qid: 77, have: 2 }),
            [0x06, 0x06, 0x4D, 0x02];
    });
}

#[test]
fn multipaxos_msg() {
    use multipaxos::Msg;
    golden!(Msg {
        Msg::Forward { .. } => Msg::Forward { cmd: put_cmd() },
            [0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::Prepare { .. } => Msg::Prepare { bal: bal(3, 1), from_inst: 12 },
            [0x01, 0x03, 0x01, 0x00, 0x0C];
        Msg::Promise { .. } => Msg::Promise {
            bal: bal(3, 1),
            accepted: vec![(7, bal(2, 0), noop_cmd())],
        }, [
            0x02, 0x03, 0x01, 0x00, // tag, bal
            0x01, 0x07, 0x02, 0x00, 0x00, 0x08, 0x00, 0x02, 0x00, // [(7, bal, cmd)]
        ];
        Msg::PrepareNack { .. } => Msg::PrepareNack { promised: bal(5, 2) },
            [0x03, 0x05, 0x02, 0x00];
        Msg::Accept { .. } => Msg::Accept { bal: bal(3, 1), inst: 300, cmd: put_cmd() },
            [0x04, 0x03, 0x01, 0x00, 0xAC, 0x02, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::AcceptNack { .. } => Msg::AcceptNack { promised: bal(5, 2) },
            [0x05, 0x05, 0x02, 0x00];
        Msg::Learn { .. } => Msg::Learn { inst: 300, bal: bal(3, 1), cmd: noop_cmd() },
            [0x06, 0xAC, 0x02, 0x03, 0x01, 0x00, 0x08, 0x00, 0x02, 0x00];
        Msg::Heartbeat { .. } => Msg::Heartbeat { bal: bal(3, 1) }, [0x07, 0x03, 0x01, 0x00];
    });
}

#[test]
fn twopc_msg() {
    use twopc::Msg;
    golden!(Msg {
        Msg::Forward { .. } => Msg::Forward { cmd: put_cmd() },
            [0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::Prepare { .. } => Msg::Prepare { round: 5, cmd: put_cmd() },
            [0x01, 0x05, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::Ack { .. } => Msg::Ack { round: 5 }, [0x02, 0x05];
        Msg::Nack { .. } => Msg::Nack { round: 5 }, [0x03, 0x05];
        Msg::Commit { .. } => Msg::Commit { round: 5, cmd: put_cmd() },
            [0x04, 0x05, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::CommitAck { .. } => Msg::CommitAck { round: 5 }, [0x05, 0x05];
        Msg::Rollback { .. } => Msg::Rollback { round: 5 }, [0x06, 0x05];
    });
}

#[test]
fn mencius_msg() {
    use mencius::Msg;
    golden!(Msg {
        Msg::Accept { .. } => Msg::Accept { inst: 300, cmd: put_cmd() },
            [0x00, 0xAC, 0x02, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::Learn { .. } => Msg::Learn { inst: 300, cmd: noop_cmd() },
            [0x01, 0xAC, 0x02, 0x08, 0x00, 0x02, 0x00];
    });
}

#[test]
fn basic_paxos_msg() {
    use basic_paxos::Msg;
    golden!(Msg {
        Msg::Forward { .. } => Msg::Forward { cmd: put_cmd() },
            [0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::Prepare { .. } => Msg::Prepare { inst: 12, bal: bal(3, 1) },
            [0x01, 0x0C, 0x03, 0x01, 0x00];
        Msg::Promise { .. } => Msg::Promise {
            inst: 12,
            bal: bal(3, 1),
            accepted: Some((bal(2, 0), noop_cmd())),
        }, [
            0x02, 0x0C, 0x03, 0x01, 0x00, // tag, inst, bal
            0x01, 0x02, 0x00, 0x00, 0x08, 0x00, 0x02, 0x00, // Some((bal, cmd))
        ];
        Msg::PrepareNack { .. } => Msg::PrepareNack { inst: 12, promised: bal(5, 2) },
            [0x03, 0x0C, 0x05, 0x02, 0x00];
        Msg::Accept { .. } => Msg::Accept { inst: 12, bal: bal(3, 1), cmd: put_cmd() },
            [0x04, 0x0C, 0x03, 0x01, 0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x02];
        Msg::AcceptNack { .. } => Msg::AcceptNack { inst: 12, promised: bal(5, 2) },
            [0x05, 0x0C, 0x05, 0x02, 0x00];
        Msg::Learn { .. } => Msg::Learn { inst: 12, bal: bal(3, 1), cmd: noop_cmd() },
            [0x06, 0x0C, 0x03, 0x01, 0x00, 0x08, 0x00, 0x02, 0x00];
    });
}
