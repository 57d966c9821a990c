//! The background maintenance policy, tested where it lives: in the
//! sans-IO engine, driven through `TestNet` in virtual time. No harness
//! call proposes a truncation or requests a snapshot here — the engines'
//! own `MAINTENANCE` timer does, carried by `TestNet::advance` exactly
//! as the runtime loop and the simulator carry it.

use std::collections::VecDeque;

use onepaxos::engine::{
    CatchUp, EngineConfig, EngineEffect, EngineEvent, GAP_PATIENCE, MAINT_PERIOD,
};
use onepaxos::kv::KvStore;
use onepaxos::multipaxos::MultiPaxosNode;
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::shard::{ShardId, ShardedEngine};
use onepaxos::testnet::TestNet;
use onepaxos::{
    BatchConfig, ClusterConfig, Command, Instance, Nanos, NodeId, Op, Outbox, Protocol, Timer,
};

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const CLIENT: NodeId = NodeId(100);

/// Failure detection relaxed far past the 5 ms steps the tests advance
/// by, so the only thing those steps trigger is maintenance.
fn onepaxos(m: &[NodeId], me: NodeId) -> OnePaxosNode {
    let timing = onepaxos::onepaxos::Timing {
        tick: 1_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    };
    OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
}

fn multipaxos(m: &[NodeId], me: NodeId) -> MultiPaxosNode {
    let timing = onepaxos::multipaxos::Timing {
        tick: 1_000_000,
        suspect_after: 800_000_000,
    };
    MultiPaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
}

fn truncating(every: u64) -> EngineConfig {
    EngineConfig::new().truncate_every(every)
}

/// Submits `count` numbered puts at node 0, continuing `next_req`.
fn puts<P: Protocol>(net: &mut TestNet<P>, next_req: &mut u64, count: u64) {
    for _ in 0..count {
        *next_req += 1;
        let (key, value) = (*next_req % 16, *next_req);
        net.client_request(N0, CLIENT, *next_req, Op::Put { key, value });
    }
    net.run_to_quiescence();
}

/// (1) The leader's engine truncates on its own: over 20·n commands the
/// applied log of every replica stays below n plus what one maintenance
/// period lets in.
fn log_stays_bounded<P: Protocol>(make: impl FnMut(&[NodeId], NodeId) -> P) {
    const EVERY: u64 = 64;
    const PER_PERIOD: u64 = 16;
    let mut net = TestNet::builder(3).config(truncating(EVERY)).build(make);
    let mut req = 0;
    let mut max_log = 0;
    while req < 20 * EVERY {
        puts(&mut net, &mut req, PER_PERIOD);
        net.advance_and_settle(MAINT_PERIOD, 1);
        for id in 0..3 {
            max_log = max_log.max(net.engine_stats(NodeId(id)).applied_log_len);
        }
    }
    net.assert_consistent();
    // A firing sees at most EVERY-1 entries without truncating; one more
    // period's commands and the Truncate command itself land before the
    // next one cuts.
    assert!(
        (max_log as u64) < EVERY + PER_PERIOD + 2,
        "applied log reached {max_log}"
    );
    for id in 0..3 {
        let stats = net.engine_stats(NodeId(id));
        assert!(stats.truncations >= 10, "node {id}: {stats:?}");
        assert_eq!(stats.gap_backlog, 0, "node {id}");
        assert_eq!(net.kv_get(NodeId(id), 3), net.kv_get(N0, 3));
    }
    // Nobody was told about the engine's own proposals.
    assert!(net.replies().iter().all(|r| r.client == CLIENT));
}

#[test]
fn engine_truncates_without_a_harness_call_under_onepaxos() {
    log_stays_bounded(onepaxos);
}

#[test]
fn engine_truncates_without_a_harness_call_under_multipaxos() {
    log_stays_bounded(multipaxos);
}

/// (2) A backup rebooted cold — its boot probe lost to a momentarily
/// slow donor — gaps behind the truncated prefix under continuing
/// traffic, and the engine fetches a snapshot from the next donor once
/// the gap has outlived the patience window.
#[test]
fn cold_backup_installs_a_snapshot_after_the_patience_window() {
    let mut net = TestNet::builder(3).config(truncating(32)).build(onepaxos);
    let mut req = 0;
    for _ in 0..8 {
        puts(&mut net, &mut req, 16);
        net.advance_and_settle(MAINT_PERIOD, 1);
    }
    assert!(net.engine_stats(N0).truncations > 0, "prefix not truncated");

    // Node 2's rotation starts at node 0; hold node 0 across the reboot
    // and drop the boot probe on its link, so it goes unanswered.
    let before = net.snapshot_requests().len();
    net.block(N0);
    net.reset_node(N2, || onepaxos(&[N0, N1, N2], N2));
    assert!(net.drop_one(N2, N0));
    net.unblock(N0);
    assert_eq!(net.snapshot_requests()[before..], [(N2, N0)]);
    assert_eq!(net.engine_stats(N2).truncations, 0, "probe answered");

    // Traffic continues; the fresh backup can only park it — until the
    // gap, first seen one period in, has outlived the patience.
    let reset_at = net.now();
    while net.now() < reset_at + GAP_PATIENCE + 2 * MAINT_PERIOD {
        puts(&mut net, &mut req, 4);
        net.advance_and_settle(MAINT_PERIOD, 1);
        if net.now() < reset_at + GAP_PATIENCE {
            assert!(net.engine_stats(N2).gap_backlog > 0, "no gap to watch");
            assert_eq!(net.snapshot_requests().len(), before + 1, "asked early");
        }
    }
    // One fetch, from the next donor in rotation, did.
    assert_eq!(net.snapshot_requests()[before + 1..], [(N2, N1)]);
    assert!(net.engine_stats(N2).truncations > 0, "nothing installed");

    puts(&mut net, &mut req, 8);
    net.assert_consistent();
    assert_eq!(net.engine_stats(N2).gap_backlog, 0);
    assert_eq!(
        net.sharded_engine(N2).kv_digest(),
        net.sharded_engine(N0).kv_digest()
    );
}

/// (7) A snapshot lost on its link costs one patience window: the
/// requester re-asks the next donor in rotation, installs its answer and
/// converges.
#[test]
fn a_lost_snapshot_is_re_asked_from_the_next_donor() {
    let mut net = TestNet::builder(3).config(truncating(32)).build(onepaxos);
    let mut req = 0;
    for _ in 0..8 {
        puts(&mut net, &mut req, 16);
        net.advance_and_settle(MAINT_PERIOD, 1);
    }
    assert!(net.engine_stats(N0).truncations > 0, "prefix not truncated");

    // Node 2 reboots held, so node 0's answer to its boot probe waits on
    // the link; it is lost there.
    let (asks, serves) = (net.snapshot_requests().len(), net.snapshot_serves().len());
    net.block(N2);
    net.reset_node(N2, || onepaxos(&[N0, N1, N2], N2));
    assert_eq!(net.snapshot_requests()[asks..], [(N2, N0)]);
    assert_eq!(net.snapshot_serves()[serves..], [(N0, N2)]);
    assert!(net.drop_one(N0, N2));
    net.unblock(N2);

    // The gap stays open for one patience window, then node 2 asks node
    // 1, the next donor, whose snapshot arrives.
    let reset_at = net.now();
    while net.now() < reset_at + GAP_PATIENCE + 2 * MAINT_PERIOD {
        puts(&mut net, &mut req, 4);
        net.advance_and_settle(MAINT_PERIOD, 1);
        if net.now() < reset_at + GAP_PATIENCE {
            assert!(net.engine_stats(N2).gap_backlog > 0, "no gap to watch");
            assert_eq!(net.snapshot_requests().len(), asks + 1, "asked early");
        }
    }
    assert_eq!(net.snapshot_requests()[asks..], [(N2, N0), (N2, N1)]);
    assert_eq!(net.engine_stats(N2).snapshots_installed, 1);

    puts(&mut net, &mut req, 8);
    net.assert_consistent();
    assert_eq!(net.engine_stats(N2).gap_backlog, 0);
    assert_eq!(
        net.sharded_engine(N2).kv_digest(),
        net.sharded_engine(N0).kv_digest()
    );
}

type Engine = ShardedEngine<OnePaxosNode, KvStore>;
type Event = EngineEvent<onepaxos::onepaxos::Msg, KvStore>;

/// The one shard group of the replay test.
const SHARD: ShardId = ShardId(0);

/// One input of a replica's engines.
#[derive(Clone)]
enum Input {
    Event(Event),
    FireDue,
}

/// Something a replica's engines emitted.
#[derive(Debug)]
enum Output {
    Effect(EngineEffect<onepaxos::onepaxos::Msg, Option<u64>>),
    CatchUp(NodeId, CatchUp<KvStore>),
}

/// Feeds `input` to `engine` at `now`; returns what the engine emitted:
/// its effects, then the catch-up messages it sent.
fn feed(engine: &mut Engine, now: Nanos, input: Input) -> Vec<Output> {
    let mut effects = Vec::new();
    match input {
        Input::Event(event) => engine.handle(SHARD, event, now, &mut effects),
        Input::FireDue => {
            engine.fire_due(now, &mut effects);
        }
    }
    let mut out: Vec<Output> = effects
        .into_iter()
        .map(|(_, e)| Output::Effect(e))
        .collect();
    while let Some((_, to, msg)) = engine.take_catch_up() {
        out.push(Output::CatchUp(to, msg));
    }
    out
}

/// Three single-group replicas over one FIFO of peer events, in virtual
/// time, recording every input and output of one of them.
struct Recorder {
    engines: Vec<Engine>,
    /// `(to, event)` in send order.
    queue: VecDeque<(NodeId, Event)>,
    now: Nanos,
    recorded: Option<NodeId>,
    inputs: Vec<(Nanos, Input)>,
    outputs: Vec<String>,
}

impl Recorder {
    fn step(&mut self, id: NodeId, input: Input) {
        let record = self.recorded == Some(id);
        if record {
            self.inputs.push((self.now, input.clone()));
        }
        for out in feed(&mut self.engines[id.index()], self.now, input) {
            if record {
                self.outputs.push(format!("{out:?}"));
            }
            let (to, event) = match out {
                Output::Effect(EngineEffect::SendTo { to, msg }) => {
                    (to, EngineEvent::Message { from: id, msg })
                }
                Output::CatchUp(to, msg) => (to, EngineEvent::CatchUp { from: id, msg }),
                Output::Effect(_) => continue,
            };
            self.queue.push_back((to, event));
        }
    }

    /// Delivers until nothing is in flight.
    fn settle(&mut self) {
        while let Some((to, event)) = self.queue.pop_front() {
            self.step(to, Input::Event(event));
        }
    }

    /// Submits `count` numbered puts at node 0, continuing `next_req`,
    /// then moves time on by one maintenance period.
    fn puts_then_tick(&mut self, next_req: &mut u64, count: u64) {
        for _ in 0..count {
            *next_req += 1;
            let (key, value) = (*next_req % 16, *next_req);
            let op = Op::Put { key, value };
            let event = EngineEvent::ClientRequest {
                client: CLIENT,
                req_id: *next_req,
                op,
            };
            self.step(N0, Input::Event(event));
        }
        self.settle();
        self.now += MAINT_PERIOD;
        for id in 0..3 {
            self.step(NodeId(id), Input::FireDue);
        }
        self.settle();
    }
}

/// (8) A replica that caught up is a function of its inputs: every
/// `EngineEvent` (the snapshot install included) and `fire_due` of a
/// cold-rebooted replica replays into a fresh engine to the same state,
/// applied watermark and output.
#[test]
fn a_caught_up_replica_replays_from_its_inputs() {
    let members = [N0, N1, N2];
    let config = truncating(32);
    let deploy = |me: NodeId, incarnation| {
        ShardedEngine::deploy(config, &members, incarnation, || onepaxos(&members, me))
    };
    let mut net = Recorder {
        engines: members.iter().map(|&me| deploy(me, 0)).collect(),
        queue: VecDeque::new(),
        now: 0,
        recorded: None,
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    for id in members {
        net.step(id, Input::Event(EngineEvent::Start));
    }
    net.settle();
    let mut req = 0;
    for _ in 0..8 {
        net.puts_then_tick(&mut req, 16);
    }
    assert!(
        net.engines[0].stats(SHARD).truncations > 0,
        "prefix not truncated"
    );

    // Node 2 reboots cold and is recorded from its first input on: its
    // boot probe is answered, and it keeps up with the traffic after.
    net.engines[2] = deploy(N2, 1);
    net.recorded = Some(N2);
    net.step(N2, Input::Event(EngineEvent::Start));
    net.settle();
    for _ in 0..4 {
        net.puts_then_tick(&mut req, 8);
    }
    let live = &net.engines[2];
    let stats = live.stats(SHARD);
    assert_eq!(stats.snapshots_installed, 1);
    assert_eq!(stats.gap_backlog, 0);
    assert_eq!(live.kv_digest(), net.engines[0].kv_digest());

    let mut fresh = deploy(N2, 1);
    let mut replayed = Vec::new();
    for (now, input) in net.inputs.clone() {
        let out = feed(&mut fresh, now, input);
        replayed.extend(out.iter().map(|o| format!("{o:?}")));
    }
    assert_eq!(fresh.kv_digest(), live.kv_digest());
    assert_eq!(fresh.stats(SHARD).applied, stats.applied);
    assert_eq!(replayed, net.outputs);
}

/// A sequencer that orders nothing: whatever a node is asked to submit,
/// it tells its *peers* was decided in instance `req_id` — so a test
/// chooses, link by link, which replica learns which instance when.
struct Relay {
    me: NodeId,
    peers: Vec<NodeId>,
}

fn relay(m: &[NodeId], me: NodeId) -> Relay {
    Relay {
        me,
        peers: m.iter().copied().filter(|&p| p != me).collect(),
    }
}

impl Protocol for Relay {
    type Msg = (Instance, Command);

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self, _now: Nanos, _out: &mut Outbox<Self::Msg>) {}

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        _now: Nanos,
        out: &mut Outbox<Self::Msg>,
    ) {
        out.commit(msg.0, msg.1);
    }

    fn on_timer(&mut self, _timer: Timer, _now: Nanos, _out: &mut Outbox<Self::Msg>) {}

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        _now: Nanos,
        out: &mut Outbox<Self::Msg>,
    ) {
        for &p in &self.peers {
            out.send(p, (req_id, Command::new(client, req_id, op.clone())));
        }
    }

    fn is_leader(&self) -> bool {
        false
    }
}

/// The donors `from` asked about a gap, in order.
fn gap_requests(net: &TestNet<Relay>, from: NodeId) -> Vec<NodeId> {
    net.snapshot_requests()
        .iter()
        .filter(|r| r.0 == from)
        .skip(1) // the boot probe
        .map(|r| r.1)
        .collect()
}

/// (3) A reorder gap that closes inside the patience window costs no
/// request; the same gap left open does.
#[test]
fn a_gap_that_closes_inside_the_window_emits_no_request() {
    for closes in [true, false] {
        let mut net = TestNet::new(3, relay);
        net.client_request(N0, CLIENT, 0, Op::Put { key: 1, value: 10 });
        net.client_request(N2, CLIENT, 1, Op::Put { key: 1, value: 11 });
        // Node 1 learns instance 1 first: a gap.
        assert!(net.deliver_one(N2, N1));
        assert_eq!(net.engine_stats(N1).gap_backlog, 1);
        net.advance(MAINT_PERIOD);
        net.advance(MAINT_PERIOD);
        if closes {
            assert!(net.deliver_one(N0, N1));
            assert_eq!(net.engine_stats(N1).gap_backlog, 0);
        }
        for _ in 0..6 {
            net.advance(MAINT_PERIOD);
        }
        assert_eq!(gap_requests(&net, N1).is_empty(), closes);
    }
}

/// (4) A donor with nothing newer is skipped: the refusal costs one
/// patience window and the next firing asks the next peer.
#[test]
fn a_donor_with_nothing_newer_is_skipped() {
    let mut net = TestNet::new(3, relay);
    // Node 0 sequences two instances (and learns neither); node 1 loses
    // the first, node 2 learns both.
    net.client_request(N0, CLIENT, 0, Op::Put { key: 1, value: 10 });
    net.client_request(N0, CLIENT, 1, Op::Put { key: 1, value: 11 });
    assert!(net.drop_one(N0, N1));
    net.run_to_quiescence();
    assert_eq!(net.engine_stats(N1).gap_backlog, 1);
    assert_eq!(net.kv_get(N2, 1), Some(11));

    // Gap first seen at the first firing; asked about one window later.
    net.advance(MAINT_PERIOD);
    let seen = net.now();
    while net.now() < seen + GAP_PATIENCE {
        assert!(gap_requests(&net, N1).is_empty());
        net.advance(MAINT_PERIOD);
    }
    // Node 0 learned nothing, so it has nothing to give.
    assert_eq!(gap_requests(&net, N1), [N0]);
    assert_eq!(net.engine_stats(N1).gap_backlog, 1);
    while net.now() < seen + 2 * GAP_PATIENCE {
        net.advance(MAINT_PERIOD);
    }
    assert_eq!(gap_requests(&net, N1), [N0, N2]);
    assert_eq!(net.kv_get(N1, 1), Some(11));
    assert_eq!(net.engine_stats(N1).gap_backlog, 0);
    // Caught up: the rotation rests.
    for _ in 0..8 {
        net.advance(MAINT_PERIOD);
    }
    assert_eq!(gap_requests(&net, N1).len(), 2);
}

/// (5) On a fresh cluster every boot probe is refused, and an idle
/// group's maintenance sends nothing else.
#[test]
fn fresh_cluster_boot_probes_are_all_refused_and_nothing_else_is_sent() {
    let mut net = TestNet::builder(3).shards(2).build(onepaxos);
    for _ in 0..20 {
        net.advance_and_settle(MAINT_PERIOD, 1);
    }
    let probes = net.snapshot_requests();
    assert_eq!(probes.len(), 3 * 2, "one probe per replica per shard group");
    assert!(probes.iter().all(|(from, donor)| from != donor));
    assert!(net.replies().is_empty());
    // Refused: an install would count as a truncation.
    for id in 0..3 {
        assert_eq!(net.engine_stats(NodeId(id)).truncations, 0);
    }
    // Whatever the protocol's own ticks exchanged, none of it was a
    // commit: maintenance proposed nothing.
    assert!(net.commits(N0).is_empty());
}

/// (6) Maintenance changes no protocol traffic and no state: a fixed
/// workload on a default net replays to the delivery count and digests
/// it produced before every net ran maintenance, and the only catch-up
/// it sends is one boot probe per replica per shard group, which no
/// donor answers.
#[test]
fn maintenance_changes_no_protocol_traffic_and_no_state() {
    let mut net = TestNet::builder(3)
        .shards(2)
        .batching(BatchConfig::new(4, 20_000))
        .build(|m, me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me)));
    let mut lcg: u64 = 0x5EED;
    for i in 0..240u64 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let client = NodeId(100 + (i % 4) as u16);
        let op = Op::Put {
            key: (lcg >> 33) % 64,
            value: i,
        };
        net.client_request(N0, client, i / 4 + 1, op);
        if i % 8 == 7 {
            net.run_to_quiescence();
            net.advance_and_settle(25_000, 1);
        }
    }
    net.advance_and_settle(25_000, 2);
    net.assert_consistent();
    let probes = net.snapshot_requests();
    for id in (0..3).map(NodeId) {
        let sent = probes.iter().filter(|&&(from, _)| from == id).count();
        assert_eq!(sent, 2, "{id}: one boot probe per shard group");
    }
    assert!(probes.iter().all(|(from, donor)| from != donor));
    assert!(
        net.snapshot_serves().is_empty(),
        "a boot probe was answered"
    );
    assert_eq!(net.replies().len(), 240);
    let digests: Vec<u64> = (0..3)
        .map(|id| net.sharded_engine(NodeId(id)).kv_digest())
        .collect();
    assert_eq!(
        (net.delivered(), digests),
        (PINNED_DELIVERED, PINNED_DIGESTS.to_vec())
    );
}

/// What the workload of test (6) produced before maintenance ran on
/// every net.
const PINNED_DELIVERED: u64 = 247;
const PINNED_DIGESTS: [u64; 3] = [9_914_935_378_405_498_902; 3];
