//! The §7.5 relaxed-read fast path, end to end on two harnesses.
//!
//! The engine owns the whole path — serve from the local copy, park
//! inside a lock window, or order through consensus; these tests
//! exercise it through `TestNet` (deterministic lock window control:
//! the `local_read` oracle and `read_relaxed` requests) and the threaded
//! runtime (`get_relaxed`), for both a protocol that allows local reads
//! (2PC) and one that orders every read through consensus (1Paxos).

use std::time::Duration;

use consensus_inside::onepaxos::onepaxos::{OnePaxosNode, Timing};
use consensus_inside::onepaxos::testnet::TestNet;
use consensus_inside::onepaxos::twopc::TwoPcNode;
use consensus_inside::onepaxos::{ClusterConfig, Command, NodeId, Op, Protocol};
use consensus_inside::onepaxos_runtime::ClusterBuilder;

fn cfg(m: &[NodeId], me: NodeId) -> ClusterConfig {
    ClusterConfig::new(m.to_vec(), me)
}

#[test]
fn testnet_serves_local_reads_outside_the_lock_window() {
    let mut net = TestNet::new(3, |m, me| TwoPcNode::new(cfg(m, me)));
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 11 });
    net.run_to_quiescence();
    // Quiescent: no round in flight, every replica serves the read
    // locally — no messages needed.
    let delivered = net.delivered();
    for n in 0..3u16 {
        assert_eq!(net.local_read(NodeId(n), 1), Some(Some(11)), "replica {n}");
        assert_eq!(net.local_read(NodeId(n), 99), Some(None), "replica {n}");
    }
    assert_eq!(net.delivered(), delivered, "local reads moved messages");
}

#[test]
fn testnet_blocks_local_reads_inside_the_lock_window() {
    let mut net = TestNet::new(3, |m, me| TwoPcNode::new(cfg(m, me)));
    // Start a round but do not deliver anything: the coordinator has
    // locked its own copy ("the gap between two phases of 2PC", §7.5).
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 11 });
    assert_eq!(
        net.local_read(NodeId(0), 1),
        None,
        "read inside the coordinator's lock window must wait"
    );
    // The other replicas have not locked yet; they still serve reads.
    assert_eq!(net.local_read(NodeId(1), 1), Some(None));
    // Completing the round reopens the window, now with the new value.
    net.run_to_quiescence();
    assert_eq!(net.local_read(NodeId(0), 1), Some(Some(11)));
}

#[test]
fn testnet_paxos_never_serves_local_reads() {
    let mut net = TestNet::new(3, |m, me| OnePaxosNode::new(cfg(m, me)));
    net.run_to_quiescence();
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 11 });
    net.run_to_quiescence();
    for n in 0..3u16 {
        assert_eq!(
            net.local_read(NodeId(n), 1),
            None,
            "ordered-reads protocol leaked a local read at {n}"
        );
    }
}

/// `(req_id, value)` of every reply `client` received so far.
fn answers<P: Protocol>(net: &TestNet<P>, client: NodeId) -> Vec<(u64, Option<u64>)> {
    net.replies()
        .iter()
        .filter(|r| r.client == client)
        .map(|r| (r.req_id, r.value))
        .collect()
}

#[test]
fn testnet_relaxed_read_waits_out_the_lock_window_then_answers_once() {
    let mut net = TestNet::new(3, |m, me| TwoPcNode::new(cfg(m, me)));
    // The round opens at the coordinator, which locks its own copy.
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 11 });
    net.read_relaxed(NodeId(0), NodeId(7), 1, 1);
    // Prepares out, first ack back: the window is still open.
    assert!(net.deliver_one(NodeId(0), NodeId(1)));
    assert!(net.deliver_one(NodeId(0), NodeId(2)));
    assert!(net.deliver_one(NodeId(1), NodeId(0)));
    assert_eq!(answers(&net, NodeId(7)), [], "answered inside the window");
    // The last ack closes it: the read is answered with the new value.
    assert!(net.deliver_one(NodeId(2), NodeId(0)));
    assert_eq!(answers(&net, NodeId(7)), [(1, Some(11))]);
    net.run_to_quiescence();
    assert_eq!(answers(&net, NodeId(7)), [(1, Some(11))], "answered twice");
}

#[test]
fn testnet_newer_relaxed_read_replaces_the_parked_one() {
    let mut net = TestNet::new(3, |m, me| TwoPcNode::new(cfg(m, me)));
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 11 });
    net.read_relaxed(NodeId(0), NodeId(7), 1, 1);
    net.read_relaxed(NodeId(0), NodeId(7), 2, 1);
    net.read_relaxed(NodeId(0), NodeId(8), 1, 1);
    net.run_to_quiescence();
    assert_eq!(answers(&net, NodeId(7)), [(2, Some(11))]);
    assert_eq!(answers(&net, NodeId(8)), [(1, Some(11))], "per client");
}

#[test]
fn testnet_paxos_answers_relaxed_reads_through_a_committed_get() {
    let mut net = TestNet::new(3, |m, me| OnePaxosNode::new(cfg(m, me)));
    net.run_to_quiescence();
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 11 });
    net.run_to_quiescence();
    net.read_relaxed(NodeId(0), NodeId(7), 1, 1);
    net.run_to_quiescence();
    let get = Command::new(NodeId(7), 1, Op::Get { key: 1 });
    for n in 0..3u16 {
        assert!(
            net.commits(NodeId(n)).values().any(|c| *c == get),
            "the read never reached the log at {n}"
        );
    }
    assert_eq!(answers(&net, NodeId(7)), [(1, Some(11))]);
    net.assert_consistent();
}

#[test]
fn relaxed_reads_never_observe_a_partial_cross_shard_write_set() {
    // Isolation against the §7.5 fast path: a get_relaxed issued inside
    // another transaction's lock window must never observe a partially
    // applied write set. Staged fragments only touch the map atomically
    // at TxnCommit, and locked keys refuse relaxed reads outright — so
    // even when one shard has committed and the other has not, a reader
    // can only see (a) pre-transaction values for keys whose outcome is
    // pending BLOCKED, or (b) post-transaction values for keys already
    // committed; never a stale read after a new one.
    use consensus_inside::onepaxos::shard::ShardRouter;
    use consensus_inside::onepaxos::testnet::TestNet;
    use consensus_inside::onepaxos::txn::{TxnCoordinator, TxnOutcome, TxnStep};
    let mut net = TestNet::builder(3)
        .shards(4)
        .build(|m, me| TwoPcNode::new(cfg(m, me)));
    let router = ShardRouter::new(4);
    let k_a = 0u64;
    let k_b = (1u64..)
        .find(|&k| router.route_key(k) != router.route_key(k_a))
        .unwrap();
    // Pre-transaction values, so "old" is distinguishable from "absent".
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: k_a, value: 1 });
    net.run_to_quiescence();
    net.client_request(NodeId(0), NodeId(9), 2, Op::Put { key: k_b, value: 2 });
    net.run_to_quiescence();
    // Start the cross-shard transaction and land both prepares — every
    // replica is now inside the lock window for both keys.
    let mut coord = TxnCoordinator::new(NodeId(100), router);
    let frags = coord.begin(&[(k_a, 10), (k_b, 20)]);
    let reply_floor = net.replies().len();
    net.submit_fragments(NodeId(0), coord.client(), frags);
    net.run_to_quiescence();
    for n in 0..3u16 {
        assert_eq!(net.local_read(NodeId(n), k_a), None, "locked key readable");
        assert_eq!(net.local_read(NodeId(n), k_b), None, "locked key readable");
    }
    // Collect the votes and take the commit fragments, but deliver the
    // outcome to ONLY shard A — the window where one shard has applied
    // the transaction and the other has not.
    let mut outcome = Vec::new();
    for i in reply_floor..net.replies().len() {
        let r = net.replies()[i];
        if r.client == NodeId(100) {
            // The final yes vote forces the commit decision (early
            // ack) and hands back the outcome fan-out.
            if let TxnStep::Decided {
                outcome: TxnOutcome::Committed,
                submit,
            } = coord.on_reply(r.req_id, r.value)
            {
                outcome = submit;
            }
        }
    }
    assert_eq!(outcome.len(), 2, "commit fragments for both shards");
    let (a_frag, b_frag): (Vec<_>, Vec<_>) = outcome
        .into_iter()
        .partition(|f| f.shard == router.route_key(k_a));
    let acks = net.replies().len();
    net.submit_fragments(NodeId(0), coord.client(), a_frag);
    net.run_to_quiescence();
    // Shard A committed: its key reads NEW. Shard B still prepared: its
    // key is locked, so the read WAITS instead of serving the old value
    // — no reader can assemble {new A, old B}.
    for n in 0..3u16 {
        assert_eq!(net.local_read(NodeId(n), k_a), Some(Some(10)), "node {n}");
        assert_eq!(net.local_read(NodeId(n), k_b), None, "partial view leaked");
    }
    // Unrelated keys read fine throughout (the lock is per key, not per
    // shard).
    assert_eq!(net.local_read(NodeId(0), 9_999), Some(None));
    // A relaxed read of B's key parks rather than answer with the old
    // value.
    let reader = NodeId(200);
    net.read_relaxed(NodeId(1), reader, 1, k_b);
    net.run_to_quiescence();
    assert_eq!(answers(&net, reader), [], "partial view served");
    // Deliver B's outcome: the window closes with the full write set,
    // and both shards have acknowledged their legs.
    net.submit_fragments(NodeId(0), coord.client(), b_frag);
    net.run_to_quiescence();
    for r in net.replies()[acks..]
        .iter()
        .filter(|r| r.client == NodeId(100))
    {
        coord.on_reply(r.req_id, r.value);
    }
    assert!(!coord.draining(), "commit fan-out did not drain");
    for n in 0..3u16 {
        assert_eq!(net.local_read(NodeId(n), k_a), Some(Some(10)));
        assert_eq!(net.local_read(NodeId(n), k_b), Some(Some(20)));
    }
    assert_eq!(answers(&net, reader), [(1, Some(20))]);
    net.assert_consistent();
}

#[test]
fn runtime_relaxed_reads_bypass_consensus_for_twopc() {
    let (cluster, mut clients) =
        ClusterBuilder::new(3, |m: &[NodeId], me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(7, 70).expect("commit"), None);
    // Every replica answers from its local copy.
    for n in 0..3u16 {
        assert_eq!(c.get_relaxed(NodeId(n), 7).expect("read"), Some(70));
        assert_eq!(c.get_relaxed(NodeId(n), 8).expect("read"), None);
    }
    cluster.shutdown();
}

#[test]
fn runtime_relaxed_reads_degrade_to_ordered_for_paxos() {
    let timing = Timing {
        tick: 2_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    };
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), timing)
    })
    .clients(1)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(3, 33).expect("commit"), None);
    // 1Paxos cannot serve the read locally; the replica orders it
    // through consensus and the client still gets an answer.
    assert_eq!(c.get_relaxed(NodeId(0), 3).expect("read"), Some(33));
    cluster.shutdown();
}
