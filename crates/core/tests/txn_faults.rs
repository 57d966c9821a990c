//! Fault injection for cross-shard transactions (`onepaxos::txn`): a
//! transaction layer is only as real as its failure story. These tests
//! kill the coordinator at every interesting point of the protocol and
//! crash a participant replica mid-prepare, then assert the participants
//! converge to the uniquely-safe outcome — votes and outcomes being
//! ordinary commands in each shard's replicated log is what makes every
//! one of these recoverable.

use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::shard::ShardRouter;
use onepaxos::testnet::TestNet;
use onepaxos::twopc::TwoPcNode;
use onepaxos::txn::{recover_outcome, Fragment, TxnCoordinator, TxnOutcome, TxnStatus};
use onepaxos::{ClusterConfig, NodeId, Op, TxnId};

fn cfg(m: &[NodeId], me: NodeId) -> ClusterConfig {
    ClusterConfig::new(m.to_vec(), me)
}

/// Two keys owned by two distinct shards of an `s`-way router.
fn cross_shard_keys(s: u16) -> (u64, u64, ShardRouter) {
    let router = ShardRouter::new(s);
    let k0 = 0u64;
    let k1 = (1u64..)
        .find(|&k| router.route_key(k) != router.route_key(k0))
        .expect("router spreads keys");
    (k0, k1, router)
}

#[test]
fn coordinator_crash_after_partial_prepare_recovers_to_abort() {
    // The coordinator dies after PREPARE landed on a strict subset of
    // the touched shards: the prepared shard holds locks (its replicas
    // refuse relaxed reads of the staged keys), and recovery must abort
    // — the missing vote proves no commit was ever sent.
    let mut net = TestNet::builder(3)
        .shards(4)
        .build(|m, me| TwoPcNode::new(cfg(m, me)));
    let (k0, k1, router) = cross_shard_keys(4);
    let mut doomed = TxnCoordinator::new(NodeId(150), router);
    let frags = doomed.begin(&[(k0, 10), (k1, 20)]);
    let txn = doomed.current_txn().expect("multi-shard txn");
    // Only k0's fragment ever reaches its shard; then the coordinator
    // is gone.
    let landed: Vec<Fragment> = frags
        .into_iter()
        .filter(|f| f.shard == router.route_key(k0))
        .collect();
    net.submit_fragments(NodeId(0), doomed.client(), landed);
    net.run_to_quiescence();
    // The prepared shard is inside the transaction's lock window: the
    // vote is recorded, the key is locked on every replica, and the
    // relaxed-read fast path refuses to serve it.
    for n in 0..3u16 {
        assert_eq!(net.txn_status(NodeId(n), k0, txn), TxnStatus::Prepared);
        assert_eq!(net.txn_status(NodeId(n), k1, txn), TxnStatus::Unknown);
        assert_eq!(net.local_read(NodeId(n), k0), None, "locked key served");
        assert_eq!(net.txn_locks(NodeId(n)), 1, "node {n}");
    }
    // Recovery: query every touched shard THROUGH ITS LOG (an agreed
    // Op::TxnStatus probe per shard — a relaxed local read could lag),
    // derive the outcome, drive it.
    let statuses = [
        net.txn_status_agreed(NodeId(0), k0, txn),
        net.txn_status_agreed(NodeId(0), k1, txn),
    ];
    assert_eq!(recover_outcome(&statuses), TxnOutcome::Aborted);
    let mut recovery = net.session(NodeId(200), NodeId(0));
    let writes = [(k0, 10), (k1, 20)];
    assert_eq!(
        net.recover(&mut recovery, txn, &writes, TxnOutcome::Aborted),
        TxnOutcome::Aborted
    );
    // Converged: locks released, no fragment landed anywhere, the
    // transaction is recorded aborted on both shards, and reads flow.
    for n in 0..3u16 {
        assert_eq!(net.txn_locks(NodeId(n)), 0, "node {n}");
        assert_eq!(net.kv_get(NodeId(n), k0), None, "aborted fragment landed");
        assert_eq!(net.kv_get(NodeId(n), k1), None, "aborted fragment landed");
        assert_eq!(net.txn_status(NodeId(n), k0, txn), TxnStatus::Aborted);
        assert_eq!(net.txn_status(NodeId(n), k1, txn), TxnStatus::Aborted);
        assert_eq!(
            net.local_read(NodeId(n), k0),
            Some(None),
            "window still shut"
        );
    }
    // A late duplicate of the lost prepare must not resurrect the
    // transaction or re-take locks.
    net.client_request(
        NodeId(0),
        NodeId(150),
        9_999,
        Op::TxnPrepare {
            txn,
            writes: vec![(k1, 20)].into(),
        },
    );
    net.run_to_quiescence();
    assert_eq!(net.txn_status(NodeId(1), k1, txn), TxnStatus::Aborted);
    assert_eq!(net.txn_locks(NodeId(1)), 0);
    net.assert_consistent();
}

#[test]
fn coordinator_crash_after_full_prepare_recovers_to_commit() {
    // Every shard voted yes before the coordinator died: the unanimous
    // votes are in the logs, so recovery commits — the dead coordinator
    // could only ever have decided commit.
    let mut net = TestNet::builder(3)
        .shards(4)
        .build(|m, me| TwoPcNode::new(cfg(m, me)));
    let (k0, k1, router) = cross_shard_keys(4);
    let mut doomed = TxnCoordinator::new(NodeId(150), router);
    let frags = doomed.begin(&[(k0, 10), (k1, 20)]);
    let txn = doomed.current_txn().expect("multi-shard txn");
    net.submit_fragments(NodeId(0), doomed.client(), frags);
    net.run_to_quiescence();
    // Status via the agreed per-shard probe — the only status read a
    // real recovery may trust (see recover_outcome's freshness
    // contract).
    let statuses = [
        net.txn_status_agreed(NodeId(0), k0, txn),
        net.txn_status_agreed(NodeId(0), k1, txn),
    ];
    assert_eq!(statuses, [TxnStatus::Prepared, TxnStatus::Prepared]);
    assert_eq!(recover_outcome(&statuses), TxnOutcome::Committed);
    let mut recovery = net.session(NodeId(200), NodeId(0));
    let writes = [(k0, 10), (k1, 20)];
    assert_eq!(
        net.recover(&mut recovery, txn, &writes, TxnOutcome::Committed),
        TxnOutcome::Committed
    );
    for n in 0..3u16 {
        assert_eq!(net.kv_get(NodeId(n), k0), Some(10), "node {n}");
        assert_eq!(net.kv_get(NodeId(n), k1), Some(20), "node {n}");
        assert_eq!(net.txn_locks(NodeId(n)), 0);
    }
    net.assert_consistent();
}

#[test]
fn recovery_status_must_be_read_through_the_log_not_a_lagging_replica() {
    // The hazard the agreed probe exists for: a replica lagging its
    // shard groups (here: blocked while a quorum commits a transaction)
    // locally reports Unknown for a transaction its shards have already
    // COMMITTED. Feeding that relaxed view to recover_outcome derives
    // Abort against a committed transaction — recovery would then abort
    // shards whose sibling already applied its fragment, breaking
    // atomicity. The agreed probe is ordered through each shard's log,
    // so it cannot under-report no matter which replica lags.
    let mut net = TestNet::builder(3)
        .shards(2)
        .build(|m, me| OnePaxosNode::new(cfg(m, me)));
    net.run_to_quiescence(); // leader adoption in both groups
    let (k0, k1, _) = cross_shard_keys(2);
    net.block(NodeId(2)); // the slow core misses everything from here on
    let mut client = net.session(NodeId(100), NodeId(0));
    // A fresh session's first transaction.
    let txn = TxnId::new(NodeId(100), 1);
    // The surviving quorum (nodes 0 and 1) commits the transaction.
    assert_eq!(
        net.txn_put(&mut client, &[(k0, 7), (k1, 8)]),
        TxnOutcome::Committed
    );
    assert_eq!(net.kv_get(NodeId(0), k0), Some(7));
    // The lagging replica's relaxed local view is stale on both shards…
    let stale = [
        net.txn_status(NodeId(2), k0, txn),
        net.txn_status(NodeId(2), k1, txn),
    ];
    assert_eq!(stale, [TxnStatus::Unknown, TxnStatus::Unknown]);
    // …and would steer recovery to the WRONG outcome — which is exactly
    // why recovery must never consume relaxed status reads.
    assert_eq!(recover_outcome(&stale), TxnOutcome::Aborted);
    // The agreed probe answers from the shard's decided prefix instead.
    let agreed = [
        net.txn_status_agreed(NodeId(0), k0, txn),
        net.txn_status_agreed(NodeId(0), k1, txn),
    ];
    assert_eq!(agreed, [TxnStatus::Committed, TxnStatus::Committed]);
    assert_eq!(recover_outcome(&agreed), TxnOutcome::Committed);
    // Once the slow core catches up, its local view converges too.
    net.unblock(NodeId(2));
    net.run_to_quiescence();
    assert_eq!(net.txn_status(NodeId(2), k0, txn), TxnStatus::Committed);
    assert_eq!(net.txn_status(NodeId(2), k1, txn), TxnStatus::Committed);
    net.assert_consistent();
}

#[test]
fn coordinator_crash_while_parked_leaves_no_zombie_waiter() {
    // A conflicting prepare from an OLDER transaction parks in the
    // shard's lock-wait queue instead of voting no. Parked entries
    // stage nothing and hold no locks — so a coordinator that dies
    // while parked must be cleaned up by ordinary recovery: the parked
    // shard reports Unknown, the recovery abort purges the queue entry,
    // and the dead transaction can never be granted the lock later.
    let mut net = TestNet::builder(3)
        .shards(4)
        .build(|m, me| TwoPcNode::new(cfg(m, me)));
    let (k0, k1, router) = cross_shard_keys(4);
    // The HOLDER: a younger coordinator (higher TxnId) whose prepare
    // lands on k0's shard only, taking the lock — then it dies.
    let mut holder = TxnCoordinator::new(NodeId(200), router);
    let h_frags = holder.begin(&[(k0, 1), (k1, 2)]);
    let h_txn = holder.current_txn().expect("multi-shard txn");
    let landed: Vec<Fragment> = h_frags
        .into_iter()
        .filter(|f| f.shard == router.route_key(k0))
        .collect();
    net.submit_fragments(NodeId(0), holder.client(), landed);
    net.run_to_quiescence();
    assert_eq!(net.txn_locks(NodeId(0)), 1);
    // The WAITER: an older coordinator (lower TxnId) conflicts on k0;
    // wait-die parks it behind the holder. Then it dies too.
    let mut waiter = TxnCoordinator::new(NodeId(100), router);
    let w_frags = waiter.begin(&[(k0, 10), (k1, 20)]);
    let w_txn = waiter.current_txn().expect("multi-shard txn");
    net.submit_fragments(NodeId(0), waiter.client(), w_frags);
    net.run_to_quiescence();
    for n in 0..3u16 {
        assert_eq!(net.txn_parked(NodeId(n)), 1, "node {n} parked queue");
        // Parked ≠ prepared: the waiter staged nothing on k0…
        assert_eq!(net.txn_status(NodeId(n), k0, w_txn), TxnStatus::Unknown);
        // …though its k1 fragment prepared normally.
        assert_eq!(net.txn_status(NodeId(n), k1, w_txn), TxnStatus::Prepared);
    }
    // Recovery reaches the waiter first, while it is still parked:
    // Unknown on k0 proves no commit could have been acked.
    let statuses = [
        net.txn_status_agreed(NodeId(0), k0, w_txn),
        net.txn_status_agreed(NodeId(0), k1, w_txn),
    ];
    assert_eq!(recover_outcome(&statuses), TxnOutcome::Aborted);
    let mut rec_w = net.session(NodeId(300), NodeId(0));
    assert_eq!(
        net.recover(
            &mut rec_w,
            w_txn,
            &[(k0, 10), (k1, 20)],
            TxnOutcome::Aborted
        ),
        TxnOutcome::Aborted
    );
    // The abort purged the queue entry — no zombie waiter survives.
    for n in 0..3u16 {
        assert_eq!(net.txn_parked(NodeId(n)), 0, "zombie waiter on node {n}");
        assert_eq!(net.txn_status(NodeId(n), k0, w_txn), TxnStatus::Aborted);
    }
    // Now recover the holder (partial prepare → abort). Releasing its
    // lock must NOT hand it to the dead waiter: the entry is gone and
    // the waiter's transaction is recorded aborted.
    let statuses = [
        net.txn_status_agreed(NodeId(0), k0, h_txn),
        net.txn_status_agreed(NodeId(0), k1, h_txn),
    ];
    assert_eq!(recover_outcome(&statuses), TxnOutcome::Aborted);
    let mut rec_h = net.session(NodeId(301), NodeId(0));
    assert_eq!(
        net.recover(&mut rec_h, h_txn, &[(k0, 1), (k1, 2)], TxnOutcome::Aborted),
        TxnOutcome::Aborted
    );
    for n in 0..3u16 {
        assert_eq!(net.txn_locks(NodeId(n)), 0, "node {n}");
        assert_eq!(net.txn_parked(NodeId(n)), 0, "node {n}");
        assert_eq!(net.kv_get(NodeId(n), k0), None);
    }
    // A late duplicate of the waiter's lost prepare re-parks nothing —
    // the recorded outcome is echoed instead of a fresh wait.
    net.client_request(
        NodeId(0),
        NodeId(100),
        9_999,
        Op::TxnPrepare {
            txn: w_txn,
            writes: vec![(k0, 10)].into(),
        },
    );
    net.run_to_quiescence();
    assert_eq!(net.txn_parked(NodeId(1)), 0);
    assert_eq!(net.txn_locks(NodeId(1)), 0);
    // The lane is clear: a fresh transaction over the same keys commits.
    let mut fresh = net.session(NodeId(400), NodeId(0));
    let outcome = net.txn_put(&mut fresh, &[(k0, 77), (k1, 88)]);
    assert_eq!(outcome, TxnOutcome::Committed);
    assert_eq!(net.kv_get(NodeId(0), k0), Some(77));
    net.assert_consistent();
}

#[test]
fn participant_replica_crash_mid_prepare_cannot_lose_the_vote() {
    // The 2PC-over-Paxos payoff: the vote is a decided command in the
    // shard's replicated log, so crashing a participant replica between
    // prepare and outcome loses nothing — the surviving quorum carries
    // both the vote and the outcome. (In plain 2PC, per §2.2, this
    // crash would block every update forever.)
    let mut net = TestNet::builder(3)
        .shards(2)
        .build(|m, me| OnePaxosNode::new(cfg(m, me)));
    net.run_to_quiescence(); // leader adoption in both groups
    let (k0, k1, router) = cross_shard_keys(2);
    let mut coord = TxnCoordinator::new(NodeId(100), router);
    let frags = coord.begin(&[(k0, 7), (k1, 8)]);
    let txn = coord.current_txn().expect("multi-shard txn");
    let prepare_reqs: Vec<u64> = frags.iter().map(|f| f.req_id).collect();
    net.submit_fragments(NodeId(0), coord.client(), frags);
    net.run_to_quiescence();
    // Both prepares decided; the lock window is open on every replica.
    assert_eq!(net.txn_status(NodeId(0), k0, txn), TxnStatus::Prepared);
    assert_eq!(net.txn_status(NodeId(0), k1, txn), TxnStatus::Prepared);
    // Mid-prepare, a participant replica silently reboots, losing all
    // of its shard-group state (the paper's silently rebooted node).
    let c2 = cfg(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(2));
    net.reset_node(NodeId(2), || OnePaxosNode::new(c2.clone()));
    // The votes survive in the shard logs held by the quorum: both
    // prepare commands sit decided at the leader…
    for &k in &[k0, k1] {
        let shard = router.route_key(k);
        let vote_logged = net
            .shard_commits(NodeId(0), shard)
            .values()
            .any(|c| matches!(&c.op, Op::TxnPrepare { txn: t, .. } if *t == txn));
        assert!(vote_logged, "vote missing from shard {shard}'s log");
    }
    // …so the coordinator finishes the transaction as if nothing
    // happened: feed it the recorded votes (forcing the early-acked
    // commit decision) and drive the outcome fan-out.
    let mut outcome_frags = Vec::new();
    for r in net.replies().iter().filter(|r| r.client == NodeId(100)) {
        if prepare_reqs.contains(&r.req_id) {
            if let onepaxos::txn::TxnStep::Decided {
                outcome: TxnOutcome::Committed,
                submit,
            } = coord.on_reply(r.req_id, r.value)
            {
                outcome_frags = submit;
            }
        }
    }
    assert!(
        !outcome_frags.is_empty(),
        "votes did not reach the coordinator"
    );
    // Fan the commit out and drain the acknowledgements.
    let seen = net.replies().len();
    net.submit_fragments(NodeId(0), coord.client(), outcome_frags);
    net.run_to_quiescence();
    for r in net.replies()[seen..].iter().copied() {
        if r.client == coord.client() {
            coord.on_reply(r.req_id, r.value);
        }
    }
    assert!(!coord.draining(), "commit fan-out did not drain");
    // The surviving replicas hold the full write set atomically.
    for n in 0..2u16 {
        assert_eq!(net.kv_get(NodeId(n), k0), Some(7), "node {n}");
        assert_eq!(net.kv_get(NodeId(n), k1), Some(8), "node {n}");
        assert_eq!(net.txn_locks(NodeId(n)), 0);
        assert_eq!(net.txn_status(NodeId(n), k0, txn), TxnStatus::Committed);
    }
    // The harness oracle (which outlives the reboot) saw no divergence.
    net.assert_consistent();
}
