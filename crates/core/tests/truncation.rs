//! Integration tests for the bounded-memory machinery: agreed log
//! truncation (`Op::Truncate` ordered through each shard's own log),
//! the snapshot-install catch-up path, and the regression tests pinning
//! the unbounded-memory bug family — replicas must hold O(state) +
//! O(clients) + O(window) memory no matter how many commands commit.

use onepaxos::engine::{GAP_PATIENCE, MAINT_PERIOD};
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::shard::ShardId;
use onepaxos::testnet::TestNet;
use onepaxos::{ClusterConfig, NodeId, Op};

fn make(m: &[NodeId], me: NodeId) -> OnePaxosNode {
    OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
}

fn net(n: u16) -> TestNet<OnePaxosNode> {
    TestNet::new(n, make)
}

const LEADER: NodeId = NodeId(0);
const SHARD: ShardId = ShardId(0);

/// A client driving numbered puts at the leader.
struct Client {
    id: NodeId,
    next: u64,
}

impl Client {
    fn new(id: u16) -> Self {
        Client {
            id: NodeId(id),
            next: 0,
        }
    }

    fn put(&mut self, net: &mut TestNet<OnePaxosNode>, key: u64, value: u64) {
        self.next += 1;
        net.client_request(LEADER, self.id, self.next, Op::Put { key, value });
    }
}

#[test]
fn agreed_truncation_drops_the_prefix_on_every_replica() {
    let mut n = net(3);
    let mut c = Client::new(100);
    for i in 0..20 {
        c.put(&mut n, i % 4, i);
    }
    n.run_to_quiescence();

    let w = n.propose_truncate(LEADER, SHARD);
    assert!(w >= 20, "watermark covers the applied prefix, got {w}");
    n.run_to_quiescence();

    // Every replica applied the same agreed cut — log bases identical,
    // retained logs empty of the pre-watermark prefix.
    for id in 0..3 {
        let a = n.engine(NodeId(id)).applier();
        assert_eq!(a.log_base(), w, "node {id} log base");
        assert!(
            a.applied_log().len() <= 1,
            "node {id} kept {} entries below/at the watermark",
            a.applied_log().len()
        );
    }

    // The group keeps committing normally after the cut.
    for i in 0..10 {
        c.put(&mut n, i % 4, 1_000 + i);
    }
    n.run_to_quiescence();
    n.assert_consistent();
    for id in 0..3 {
        assert_eq!(n.kv_get(NodeId(id), 0), n.kv_get(LEADER, 0));
    }
}

#[test]
fn replica_memory_stays_flat_over_50k_ops_with_periodic_truncation() {
    // The tentpole regression: 50 000 committed commands under periodic
    // agreed truncation must leave every retained-state gauge flat —
    // applied log near the truncation period, reply outputs at
    // O(clients) — instead of growing with the commit count.
    const TOTAL: u64 = 50_000;
    const CHUNK: u64 = 64;
    const TRUNCATE_EVERY: u64 = 1_024;

    let mut n = net(3);
    let mut clients: Vec<Client> = (0..4).map(|j| Client::new(100 + j)).collect();
    let mut since_truncate = 0u64;
    let mut max_log = 0usize;
    let mut max_outputs = 0usize;

    let mut sent = 0u64;
    while sent < TOTAL {
        for _ in 0..CHUNK {
            let c = &mut clients[(sent % 4) as usize];
            c.put(&mut n, sent % 512, sent);
            sent += 1;
        }
        n.run_to_quiescence();
        since_truncate += CHUNK;
        if since_truncate >= TRUNCATE_EVERY {
            since_truncate = 0;
            n.propose_truncate(LEADER, SHARD);
            n.run_to_quiescence();
            for id in 0..3 {
                let a = n.engine(NodeId(id)).applier();
                max_log = max_log.max(a.applied_log().len());
                max_outputs = max_outputs.max(a.outputs_len());
            }
        }
    }
    n.run_to_quiescence();
    n.assert_consistent();

    // All 50k commands actually committed and applied everywhere.
    for id in 0..3 {
        let a = n.engine(NodeId(id)).applier();
        assert!(
            a.applied_up_to().unwrap_or(0) >= TOTAL,
            "node {id} applied only {:?}",
            a.applied_up_to()
        );
        assert_eq!(a.gap_backlog(), 0, "node {id} left a gap");
    }
    // Flatness: the retained log never exceeded a couple of truncation
    // periods (sampled right after each agreed cut quiesced), and the
    // reply outputs never exceeded one per client (+ the probe client).
    assert!(
        max_log < 3 * TRUNCATE_EVERY as usize,
        "applied log grew to {max_log} — truncation is not bounding memory"
    );
    assert!(
        max_outputs <= clients.len() + 1,
        "outputs grew to {max_outputs} for {} clients",
        clients.len()
    );
}

#[test]
fn warm_reset_rejoins_past_a_truncated_prefix() {
    // Once the prefix is truncated, a rebooted replica cannot replay
    // history from instance 0 — the snapshot install is the only way
    // back in. reset_node's boot probe is exactly the runtime's restart +
    // snapshot-request boot sequence.
    let mut n = net(3);
    let mut c = Client::new(100);
    for i in 0..100 {
        c.put(&mut n, i % 8, i);
    }
    n.run_to_quiescence();
    let w = n.propose_truncate(LEADER, SHARD);
    n.run_to_quiescence();

    // The backup reboots and installs the snapshot its boot probe
    // fetched from the leader, the first donor in its rotation: state
    // and watermark jump straight to the donor's, no replay below the
    // cut.
    n.reset_node(NodeId(2), || {
        make(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(2))
    });
    assert_eq!(n.snapshot_serves().last(), Some(&(LEADER, NodeId(2))));
    let a = n.engine(NodeId(2)).applier();
    assert!(a.applied_up_to().unwrap_or(0) + 1 > w, "not caught up");
    assert_eq!(n.state(NodeId(2)).digest(), n.state(LEADER).digest());

    // And it consumes the live log from the watermark on.
    for i in 0..20 {
        c.put(&mut n, i % 8, 2_000 + i);
    }
    n.run_to_quiescence();
    n.assert_consistent();
    assert_eq!(n.state(NodeId(2)).digest(), n.state(LEADER).digest());
    assert_eq!(n.engine(NodeId(2)).applier().gap_backlog(), 0);
}

#[test]
fn cold_reset_after_truncation_gaps_until_a_snapshot_arrives() {
    // The trigger condition the runtime's maintenance loop watches: a
    // cold-rebooted replica behind a truncated prefix accumulates
    // decided-but-unappliable commands (gap_backlog) that replay can
    // never drain, because nobody retransmits truncated instances. A
    // snapshot install is what clears it.
    let mut n = net(3);
    let mut c = Client::new(100);
    for i in 0..50 {
        c.put(&mut n, i % 8, i);
    }
    n.run_to_quiescence();
    n.propose_truncate(LEADER, SHARD);
    n.run_to_quiescence();

    // Cold reboot: amnesia, and the boot probe to the leader, the first
    // donor in the rotation, is lost while the leader is held.
    n.block(LEADER);
    n.reset_node(NodeId(2), || {
        make(&[NodeId(0), NodeId(1), NodeId(2)], NodeId(2))
    });
    assert!(n.drop_one(NodeId(2), LEADER));
    n.unblock(LEADER);
    for i in 0..20 {
        c.put(&mut n, i % 8, 3_000 + i);
    }
    n.run_to_quiescence();
    let stats = n.engine_stats(NodeId(2));
    assert!(
        stats.gap_backlog > 0,
        "new commits above the truncated hole must defer, got backlog 0"
    );

    // Once the gap outlives the patience window, the gap watch asks the
    // next donor; its snapshot clears the backlog and converges the
    // state.
    let installed = n.engine_stats(NodeId(2)).snapshots_installed;
    n.advance_and_settle(MAINT_PERIOD, (GAP_PATIENCE / MAINT_PERIOD) as usize + 2);
    assert_eq!(n.engine_stats(NodeId(2)).snapshots_installed, installed + 1);
    n.assert_consistent();
    assert_eq!(n.engine_stats(NodeId(2)).gap_backlog, 0);
    assert_eq!(n.state(NodeId(2)).digest(), n.state(LEADER).digest());
}
