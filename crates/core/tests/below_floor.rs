//! Traffic that reaches below the group's agreed truncation floor.
//!
//! Everything below a truncation floor is decided, applied and covered by
//! the replicas' snapshots, and the per-instance protocol state there is
//! gone. A stale replica — slow, or rebooted with its boot probe lost —
//! can still send a prepare, accept or learn for such an instance. These
//! scenarios check that it can neither re-decide a truncated slot nor
//! stay stuck below the floor: the group keeps one history, keeps
//! committing, and the stale replica ends with its peers' state.

use onepaxos::engine::{EngineConfig, MAINT_PERIOD};
use onepaxos::multipaxos::MultiPaxosNode;
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::testnet::TestNet;
use onepaxos::{ClusterConfig, Instance, Nanos, NodeId, Op, Protocol};

use onepaxos::basic_paxos::BasicPaxosNode;
use onepaxos::engine::GAP_PATIENCE;
use onepaxos::mencius::MenciusNode;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);
const N4: NodeId = NodeId(4);
const CLIENT: NodeId = NodeId(100);

/// Protocol tick; failure detection fires a few ticks into a silence,
/// well inside the engine's gap patience.
const TICK: Nanos = 1_000_000;

fn truncating() -> EngineConfig {
    EngineConfig::new().truncate_every(32)
}

fn multipaxos(m: &[NodeId], me: NodeId) -> MultiPaxosNode {
    let timing = onepaxos::multipaxos::Timing {
        tick: TICK,
        suspect_after: 4 * TICK,
    };
    MultiPaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
}

fn onepaxos(m: &[NodeId], me: NodeId) -> OnePaxosNode {
    let timing = onepaxos::onepaxos::Timing {
        tick: TICK,
        io_timeout: 4 * TICK,
        suspect_after: 4 * TICK,
    };
    OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
}

/// One client issuing numbered puts.
struct Load {
    next: u64,
}

impl Load {
    fn new() -> Self {
        Load { next: 0 }
    }

    /// Submits `count` puts at `at` and delivers until quiet.
    fn puts<P: Protocol>(&mut self, net: &mut TestNet<P>, at: NodeId, count: u64) {
        for _ in 0..count {
            self.next += 1;
            let (key, value) = (self.next % 16, self.next);
            net.client_request(at, CLIENT, self.next, Op::Put { key, value });
        }
        net.run_to_quiescence();
    }

    /// Distinct requests answered so far.
    fn answered<P: Protocol>(&self, net: &TestNet<P>) -> usize {
        let mut ids: Vec<u64> = net
            .replies()
            .iter()
            .filter(|r| r.client == CLIENT)
            .map(|r| r.req_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Advances virtual time by `d`, one tick at a time, delivering
/// everything deliverable after each step.
fn run_for<P: Protocol>(net: &mut TestNet<P>, d: Nanos) {
    net.advance_and_settle(TICK, (d / TICK) as usize);
}

/// Drives puts at `at` across several maintenance periods, so the
/// leader's engine orders agreed truncations; returns the lowest log
/// base among `nodes`, which is above zero.
fn truncate_the_group<P: Protocol>(
    net: &mut TestNet<P>,
    load: &mut Load,
    at: NodeId,
    nodes: &[NodeId],
) -> Instance {
    for _ in 0..8 {
        load.puts(net, at, 16);
        run_for(net, MAINT_PERIOD);
    }
    let floor = nodes
        .iter()
        .map(|&id| net.engine(id).applier().log_base())
        .min()
        .expect("nodes given");
    assert!(floor > 0, "the group never truncated");
    floor
}

/// The scenario's end state: one history, and every node in `nodes`
/// holding the same key/value state.
fn assert_converged<P: Protocol>(net: &TestNet<P>, nodes: &[NodeId]) {
    // The agreement oracle refused any divergent learn as it happened;
    // this checks every node's record against it.
    net.assert_consistent();
    let digest = net.sharded_engine(nodes[0]).kv_digest();
    for &id in nodes {
        assert_eq!(net.sharded_engine(id).kv_digest(), digest, "{id} diverged");
        assert_eq!(net.engine_stats(id).gap_backlog, 0, "{id} left a gap");
    }
}

/// (a) Multi-Paxos, five nodes. A replica rebooted cold — its boot probe
/// lost to the blocked leader — campaigns with `Prepare { from_inst: 0 }`
/// against acceptors that have truncated far above 0. Promising it would
/// hand the candidate an accepted suffix with the truncated prefix
/// missing, and it would re-fill those decided slots with no-ops.
#[test]
fn multipaxos_fresh_candidate_cannot_refill_truncated_slots() {
    let members = [N0, N1, N2, N3, N4];
    let mut net = TestNet::builder(5).config(truncating()).build(multipaxos);
    let mut load = Load::new();
    let floor = truncate_the_group(&mut net, &mut load, N0, &members);

    // Node 4's donor rotation starts at node 0, the leader: blocked
    // across the reboot, it never answers the probe.
    net.block(N0);
    net.reset_node(N4, || multipaxos(&members, N4));
    assert_eq!(net.engine_stats(N4).truncations, 0, "boot probe answered");
    assert_eq!(net.node(N4).watermark(), 0);

    // A request at the fresh replica stalls behind the blocked leader,
    // so the fresh replica campaigns — from instance 0, below `floor`.
    let answered = load.answered(&net);
    load.puts(&mut net, N4, 1);
    run_for(&mut net, 8 * TICK);
    assert!(
        net.node(N4).is_leader(),
        "the fresh replica never took over"
    );
    assert!(net.node(N4).watermark() >= floor);

    // The group keeps committing under the new leader, and the fresh
    // replica ends with the same state as its peers.
    load.puts(&mut net, N4, 8);
    run_for(&mut net, 8 * MAINT_PERIOD);
    assert_eq!(load.answered(&net), answered + 9);
    assert_converged(&net, &members[1..]);

    // So does the old leader once it resumes.
    net.unblock(N0);
    run_for(&mut net, 8 * MAINT_PERIOD);
    load.puts(&mut net, N4, 8);
    run_for(&mut net, 2 * MAINT_PERIOD);
    assert_eq!(load.answered(&net), answered + 17);
    assert_converged(&net, &members);
}

/// (b) 1Paxos. The leader is blocked while a backup takes over and the
/// group passes an agreed truncation without it. Resumed, the old leader
/// still believes it leads and proposes in its next instance — below
/// the active acceptor's floor.
#[test]
fn onepaxos_stale_leader_cannot_propose_below_the_floor() {
    let members = [N0, N1, N2];
    let mut net = TestNet::builder(3).config(truncating()).build(onepaxos);
    let mut load = Load::new();
    net.run_to_quiescence(); // initial adoption
    load.puts(&mut net, N0, 8);
    let stale_at = net.node(N0).watermark();

    net.block(N0);
    // Requests at node 2 stall behind the blocked leader until node 2
    // takes over (node 1 is the active acceptor and may not lead).
    let floor = truncate_the_group(&mut net, &mut load, N2, &[N1, N2]);
    assert!(net.node(N2).is_leader(), "the backup never took over");
    assert!(stale_at < floor, "the old leader is not below the floor");

    // Resumed, the old leader proposes before it has read its backlog.
    net.unblock(N0);
    assert!(net.node(N0).is_leader());
    let answered = load.answered(&net);
    load.puts(&mut net, N0, 1);
    run_for(&mut net, 4 * MAINT_PERIOD);
    assert!(
        !net.node(N0).is_leader(),
        "the old leader never stepped down"
    );

    // The group keeps committing, and the old leader ends with the
    // same state as its peers.
    load.puts(&mut net, N2, 8);
    run_for(&mut net, 2 * MAINT_PERIOD);
    assert_eq!(load.answered(&net), answered + 9);
    assert_converged(&net, &members);
}

// ---------------------------------------------------------------------
// The stale replica is served a snapshot: one per protocol. Each case
// starts its clock when the stale replica first gets to act — at or
// before its first below-floor message — and requires the install
// (applied watermark at the floor, one more log-base advance) inside
// one gap-patience window, the time gap watching alone would take.
// ---------------------------------------------------------------------

fn basic_paxos(m: &[NodeId], me: NodeId) -> BasicPaxosNode {
    BasicPaxosNode::new(ClusterConfig::new(m.to_vec(), me))
}

fn mencius(m: &[NodeId], me: NodeId) -> MenciusNode {
    MenciusNode::new(ClusterConfig::new(m.to_vec(), me))
}

/// Where the net stood when the stale replica was reset or let run
/// again: the time, and how many snapshot asks and snapshots it had
/// recorded.
struct Mark {
    since: Nanos,
    asks: usize,
    serves: usize,
}

fn mark<P: Protocol>(net: &TestNet<P>) -> Mark {
    Mark {
        since: net.now(),
        asks: net.snapshot_requests().len(),
        serves: net.snapshot_serves().len(),
    }
}

/// Steps virtual time until `stale` has applied up to `floor` and
/// advanced its log base once more than its `truncations` so far;
/// asserts that happens less than [`GAP_PATIENCE`] after the mark, and
/// that a peer served `stale` a snapshot unasked: a peer `stale` sent no
/// ask since the mark, so the snapshot answered none.
fn assert_served_in_time<P: Protocol>(
    net: &mut TestNet<P>,
    stale: NodeId,
    floor: Instance,
    truncations: u64,
    mark: Mark,
) {
    loop {
        let stats = net.engine_stats(stale);
        let applied = stats.applied;
        if applied >= floor && stats.truncations > truncations {
            let asked = &net.snapshot_requests()[mark.asks..];
            let unasked = |server| !asked.contains(&(stale, server));
            assert!(
                net.snapshot_serves()[mark.serves..]
                    .iter()
                    .any(|&(server, peer)| peer == stale && unasked(server)),
                "{stale} was served only answers to its asks"
            );
            return;
        }
        assert!(
            net.now() - mark.since < GAP_PATIENCE,
            "{stale} applied {applied} of {floor} after one patience window"
        );
        run_for(net, TICK);
    }
}

/// Reboots `stale` cold while `donor`, the first peer in its snapshot
/// rotation, is blocked, and drops its boot probe on the link, so it
/// goes unanswered. Returns the mark taken at the reset.
fn reset_cold<P: Protocol>(
    net: &mut TestNet<P>,
    stale: NodeId,
    donor: NodeId,
    fresh: impl FnMut() -> P,
) -> Mark {
    net.block(donor);
    let mark = mark(net);
    net.reset_node(stale, fresh);
    assert!(net.drop_one(stale, donor));
    net.unblock(donor);
    assert_eq!(
        net.engine_stats(stale).truncations,
        0,
        "boot probe answered"
    );
    mark
}

#[test]
fn onepaxos_stale_leader_is_served_a_snapshot() {
    let mut net = TestNet::builder(3).config(truncating()).build(onepaxos);
    let mut load = Load::new();
    net.run_to_quiescence();
    load.puts(&mut net, N0, 8);
    net.block(N0);
    let floor = truncate_the_group(&mut net, &mut load, N2, &[N1, N2]);

    net.unblock(N0);
    let (mark, truncations) = (mark(&net), net.engine_stats(N0).truncations);
    load.puts(&mut net, N0, 1); // an accept request below the floor
    assert_served_in_time(&mut net, N0, floor, truncations, mark);
}

#[test]
fn multipaxos_fresh_candidate_is_served_a_snapshot() {
    let members = [N0, N1, N2];
    let mut net = TestNet::builder(3).config(truncating()).build(multipaxos);
    let mut load = Load::new();
    let floor = truncate_the_group(&mut net, &mut load, N0, &members);

    // Node 2's probe goes to node 0, the leader, which stays blocked: the
    // stalled request makes node 2 campaign from instance 0.
    net.block(N0);
    let mark = mark(&net);
    net.reset_node(N2, || multipaxos(&members, N2));
    load.puts(&mut net, N2, 1);
    assert_served_in_time(&mut net, N2, floor, 0, mark);

    // It is elected from above the floor and commits.
    let answered = load.answered(&net);
    run_for(&mut net, 8 * TICK);
    assert!(net.node(N2).is_leader());
    assert_eq!(load.answered(&net), answered + 1);
}

#[test]
fn basic_paxos_cold_proposer_is_served_a_snapshot() {
    let members = [N0, N1, N2];
    let mut net = TestNet::builder(3).config(truncating()).build(basic_paxos);
    let mut load = Load::new();
    let floor = truncate_the_group(&mut net, &mut load, N0, &members);

    // The fixed proposer reboots and starts over at instance 0: its
    // prepare reaches below both acceptors' floor.
    let mark = reset_cold(&mut net, N0, N1, || basic_paxos(&members, N0));
    let answered = load.answered(&net);
    load.puts(&mut net, N0, 1);
    assert_served_in_time(&mut net, N0, floor, 0, mark);

    // Its request, re-advocated above the floor, commits.
    run_for(&mut net, 2 * TICK);
    assert_eq!(load.answered(&net), answered + 1);
    assert_converged(&net, &members);
}

#[test]
fn mencius_cold_replica_is_served_a_snapshot() {
    let members = [N0, N1, N2];
    let mut net = TestNet::builder(3).config(truncating()).build(mencius);
    let mut load = Load::new();
    let floor = truncate_the_group(&mut net, &mut load, N0, &members);

    // The rebooted replica proposes in its first own slot, 2, far below
    // the floor.
    let mark = reset_cold(&mut net, N2, N0, || mencius(&members, N2));
    load.puts(&mut net, N2, 1);
    assert_served_in_time(&mut net, N2, floor, 0, mark);

    // Caught up, it proposes above the floor again.
    let answered = load.answered(&net);
    load.puts(&mut net, N2, 4);
    run_for(&mut net, 2 * TICK);
    assert_eq!(load.answered(&net), answered + 4);
    assert_converged(&net, &members);
}
