//! Discrete-event simulation of agreement protocols on a many-core
//! machine.
//!
//! The model implements the paper's §3 network view of a many-core:
//!
//! * every process (replica-shard or client) is pinned to one core;
//! * each core serves a FIFO queue of work items; while it serves one, it
//!   is busy — saturation emerges from per-message CPU costs rather than
//!   from link bandwidth;
//! * *transmitting* a message costs the sender CPU time (`tx`) and the
//!   receiver CPU time (`rx`); *propagation* adds latency but consumes no
//!   CPU — the defining many-core trade-off (trans/prop ≈ 1, §3);
//! * propagation is non-uniform: cores sharing a socket/LLC communicate
//!   faster than cores across the interconnect (Fig 1);
//! * a *slow core* (the paper's fault model) has all its processing times
//!   multiplied by a factor, modelling CPU-hogging neighbours (§2.2,
//!   §7.6).
//!
//! Clients follow the paper's closed loop: "a client sends a request to
//! Core 0, waits for the commit ACK, and then sends another" (§7.1), with
//! timeout-driven re-targeting to other replicas ("once the clients
//! detect the slow leader, they send their requests to other nodes",
//! §7.6).
//!
//! Each replica is a [`ShardedEngine`]: S independent consensus groups
//! with key-hash routing (1 unless [`SimBuilder::shards`] raises it).
//! Every `(replica, shard)` pair is its own simulated *process*, and
//! [`SimBuilder::placement`] maps processes to physical cores — several
//! processes placed on one core **serialize** on it (sharding buys
//! nothing), while the default identity placement spreads them so
//! throughput scales with the cores hosting shard leaders. The engines
//! own protocol dispatch, timers, commits, the applied KV replicas and
//! background maintenance, while this module only prices what they emit
//! — [`EngineEffect`]s and queued snapshot requests — in CPU time and
//! moves it between cores.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use onepaxos::engine::{
    BatchConfig, CatchUp, EngineConfig, EngineEffect, EngineEvent, EngineStats, ReplicaEngine,
    ReplyMode,
};
use onepaxos::kv::KvStore;
use onepaxos::rsm::ApplierSnapshot;
use onepaxos::shard::{ShardId, ShardRouter, ShardedEngine};
use onepaxos::txn::{Fragment, TxnCoordinator, TxnOutcome, TxnStep};
use onepaxos::{Command, Instance, Nanos, NodeId, Op, Protocol};

use crate::metrics::{LatencyStats, Timeline};
use crate::profile::Profile;
use crate::rng::SimRng;

/// The untagged effect stream of one simulated shard engine.
type Effects<P> = Vec<EngineEffect<<P as Protocol>::Msg, Option<u64>>>;

/// Client operation mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Commands with no payload, as in the paper's main experiments
    /// ("there is no payload added to the requests", §7.1). Keyless:
    /// sharded deployments route them by client id.
    Noop,
    /// `read_pct` percent `Get`s, the rest `Put`s, over `keys` keys
    /// (Fig 10). Reads are ordered through consensus, except in joint
    /// deployments, where they are relaxed reads of the co-located
    /// replica (§7.5).
    ReadMix {
        /// Percentage of reads (0–100).
        read_pct: u8,
        /// Key-space size.
        keys: u64,
        /// Contention knob: percentage of operations (0–100) whose key
        /// is drawn from the [`HOT_SET`]-sized hot set at the bottom of
        /// the key space instead of uniformly — the YCSB-style hotspot
        /// approximation of a zipfian access pattern. 0 is uniform.
        hot_pct: u8,
    },
    /// Like [`Workload::ReadMix`], but reads are issued as *relaxed*
    /// reads (§7.5): the client asks the target replica for its local
    /// copy, which answers without agreement traffic when the protocol
    /// allows it (2PC outside its lock window) and degrades to an
    /// ordered read through consensus otherwise (the Paxos family). This
    /// is the sim-side `get_relaxed`, so Fig-10-style experiments can
    /// run sharded and in replica (non-joint) mode.
    RelaxedMix {
        /// Percentage of relaxed reads (0–100).
        read_pct: u8,
        /// Key-space size.
        keys: u64,
    },
    /// Cross-shard atomic transactions (see `onepaxos::txn`): every
    /// client operation is a multi-key write set touching exactly
    /// `fanout` distinct shard groups (clamped to the deployment's shard
    /// count), one key per group, driven by a client-side 2PC
    /// coordinator. A fan-out of 1 short-circuits to a single
    /// `Op::MultiPut` agreement; higher fan-outs run PREPARE → outcome
    /// across the groups, each leg costing the client
    /// [`Profile::txn_leg`] on top of transmission. Committed
    /// transactions count as completions; conflict-aborted ones are
    /// counted in `RunReport::txn_aborts` and the client moves on to a
    /// fresh write set. Non-joint deployments only.
    TxnMix {
        /// Distinct shard groups each transaction touches.
        fanout: u16,
        /// Key-space size (must comfortably exceed the shard count).
        keys: u64,
        /// Contention knob: percentage of per-shard key draws (0–100)
        /// taken from the hot end of the key space (see
        /// [`Workload::ReadMix::hot_pct`]). Raising it makes write sets
        /// collide, exercising the lock-wait queues and the
        /// conflict-aware scheduler. 0 is uniform.
        hot_pct: u8,
    },
}

/// Size of the hot set the `hot_pct` knobs draw from: small enough that
/// hot draws genuinely collide, large enough that a hot transaction is
/// not a single global lock.
pub const HOT_SET: u64 = 8;

/// Samples a key: uniform over `keys`, except `hot_pct` percent of
/// draws come from the first [`HOT_SET`] keys.
fn sample_key(keys: u64, hot_pct: u8, rng: &mut SimRng) -> u64 {
    if hot_pct > 0 && (rng.below(100) as u8) < hot_pct {
        rng.below(HOT_SET.min(keys))
    } else {
        rng.below(keys)
    }
}

impl Workload {
    fn generate(&self, rng: &mut SimRng) -> Op {
        match *self {
            Workload::Noop => Op::Noop,
            Workload::TxnMix { .. } => {
                unreachable!("TxnMix is driven by the client-side coordinator, not per-op")
            }
            Workload::ReadMix {
                read_pct,
                keys,
                hot_pct,
            } => {
                if (rng.below(100) as u8) < read_pct {
                    Op::Get {
                        key: sample_key(keys, hot_pct, rng),
                    }
                } else {
                    Op::Put {
                        key: sample_key(keys, hot_pct, rng),
                        value: rng.below(1_000_000),
                    }
                }
            }
            Workload::RelaxedMix { read_pct, keys } => {
                if (rng.below(100) as u8) < read_pct {
                    Op::Get {
                        key: rng.below(keys),
                    }
                } else {
                    Op::Put {
                        key: rng.below(keys),
                        value: rng.below(1_000_000),
                    }
                }
            }
        }
    }

    /// Whether reads of this workload bypass consensus when possible.
    fn relaxed_reads(&self) -> bool {
        matches!(self, Workload::RelaxedMix { .. })
    }

    /// Whether this workload issues coordinator-driven transactions.
    fn is_txn(&self) -> bool {
        matches!(self, Workload::TxnMix { .. })
    }
}

/// A scheduled change of a core's speed (the §2.2/§7.6 CPU-hog injection).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault {
    /// When the change takes effect.
    pub at: Nanos,
    /// The affected physical core (every process placed on it slows).
    pub core: usize,
    /// Processing-time multiplier from then on (1.0 = full speed; the
    /// paper's "8 CPU-intensive processes" give the victim ≈ 1/9 of the
    /// cycles, i.e. a multiplier of 9.0).
    pub slowdown: f64,
}

/// Everything measured during one run.
#[derive(Debug)]
pub struct RunReport {
    /// Completed client requests inside the measurement window.
    pub completed: u64,
    /// Virtual measurement duration (total minus warm-up).
    pub duration: Nanos,
    /// Commit throughput in the window, ops/sec.
    pub throughput: f64,
    /// Commit latency distribution in the window.
    pub latency: LatencyStats,
    /// Completions per time bucket over the whole run (including
    /// warm-up), for Fig 11-style plots.
    pub timeline: Timeline,
    /// Total inter-core protocol messages (replica↔replica only).
    pub server_messages: u64,
    /// Total inter-core messages including client requests and replies.
    pub total_messages: u64,
    /// Per-physical-core busy fraction over the whole run (indexed by
    /// core; cores hosting no process stay at 0).
    pub utilization: Vec<f64>,
    /// Virtual time when the run stopped.
    pub ended_at: Nanos,
    /// KV digests per replica at the end, folded across shard groups
    /// (equal once logs drain).
    pub replica_digests: Vec<u64>,
    /// Final batching counters per `(replica, shard)` process in
    /// replica-major order (all zeros except `depth` when batching is
    /// off). Under adaptive batching, `depth` is the depth each
    /// controller had learned when the run stopped.
    pub engine_stats: Vec<EngineStats>,
    /// Transactions aborted by prepare-phase lock conflicts
    /// (`Workload::TxnMix` only; the client retries with a fresh write
    /// set, so aborts never count as completions).
    pub txn_aborts: u64,
    /// Lock-wait re-probes issued by the client coordinators
    /// (`Workload::TxnMix` only): each is a deferred re-ask of a
    /// prepare that parked in a shard's lock-wait queue — retries in
    /// the conflict sense, not the message-loss sense.
    pub txn_retries: u64,
    /// Log-base advances counted by the engines
    /// ([`EngineStats::truncations`]), summed over replica-shard
    /// processes and their reset predecessors (each replica counts its
    /// own, so one agreed truncation of a 3-replica group counts up to 3
    /// here). Zero unless [`SimBuilder::truncate_every`] is set.
    pub truncations: u64,
    /// State snapshots installed by lagging replicas during
    /// snapshot-install catch-up. Zero unless
    /// [`SimBuilder::truncate_every`] is set.
    pub snapshots_installed: u64,
    /// Every catch-up request the engines' maintenance emitted, as
    /// `(requester, donor)` replica slots in send order — boot probes
    /// included. Empty unless [`SimBuilder::truncate_every`] is set.
    pub snapshot_requests: Vec<(usize, usize)>,
}

impl RunReport {
    /// Mean latency in microseconds (convenience for tables).
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() as f64 / 1_000.0
    }

    /// Median latency in microseconds.
    pub fn p50_latency_us(&mut self) -> f64 {
        self.latency.p50() as f64 / 1_000.0
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_latency_us(&mut self) -> f64 {
        self.latency.p99() as f64 / 1_000.0
    }

    /// 99.9th-percentile latency in microseconds (`&mut` because the
    /// percentile queries sort the samples lazily).
    pub fn p999_latency_us(&mut self) -> f64 {
        self.latency.p999() as f64 / 1_000.0
    }

    /// Batching counters folded over every replica-shard process
    /// (counters add, `depth` reports the deepest controller).
    pub fn batch_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.engine_stats {
            total.absorb(s);
        }
        total
    }
}

enum WorkItem<M> {
    /// Protocol message from a peer replica of the same shard group (the
    /// group is implied by the receiving process).
    Peer { from: NodeId, msg: M },
    /// A client request arriving at a replica-shard process.
    ClientReq { client: NodeId, req_id: u64, op: Op },
    /// A commit acknowledgement arriving back at the client. `value` is
    /// the state-machine output the reply carried (for a transaction
    /// prepare, the shard's vote), `None` when it was not yet applied at
    /// emission.
    Reply { req_id: u64, value: Option<u64> },
    /// A relaxed read (§7.5) arriving at a replica-shard process, whose
    /// engine serves, parks or orders it.
    RelaxedRead {
        client: NodeId,
        req_id: u64,
        key: u64,
    },
    /// Wake the process's engine to fire due timers. `due` is the
    /// deadline this check was scheduled for: a check that no longer
    /// matches the process's pending wake (it was superseded by an
    /// earlier one) is stale and must do nothing — in particular it must
    /// not reschedule, or superseded checks would duplicate forever.
    TimerCheck { due: Nanos },
    /// Client-loop: issue the next request.
    SendNext,
    /// Client-loop: outstanding-request timeout check.
    RetryCheck { req_id: u64, epoch: u64 },
    /// Client-loop: a lock-wait re-probe whose transmission the
    /// conflict-aware scheduler held back one flush window (so the
    /// current lock holder can finish before the shard is re-asked).
    /// Unlike [`WorkItem::RetryCheck`] this does not rotate the target
    /// replica: the fragment is not lost, just parked.
    TxnDeferred { req_id: u64, epoch: u64 },
    /// A snapshot to serve at a replica-shard process: a request from
    /// `for_proc`'s engine maintenance (`have` its applied watermark), or
    /// a serve this process's own engine queued for a stale `for_proc`.
    /// The server serializes and transmits its snapshot (`snapshot +
    /// marshal + tx` of CPU) only when its engine offers one.
    SnapshotServe { for_proc: usize, have: Instance },
    /// A state snapshot arriving at a lagging replica-shard process;
    /// installing costs `rx + snapshot` of CPU.
    SnapshotInstall { snap: ApplierSnapshot<KvStore> },
}

enum Event<M> {
    Work {
        proc: usize,
        item: WorkItem<M>,
    },
    CoreRun {
        core: usize,
    },
    SetSpeed {
        core: usize,
        slowdown: f64,
    },
    /// Crash-restart of a whole replica slot with amnesia: its engines
    /// are swapped for fresh ones (`idx` names the pre-built spare).
    /// Messages already in flight or queued still arrive afterwards —
    /// what is lost is *state*, exactly the runtime's `restart_replica`.
    ResetReplica {
        replica: usize,
        idx: usize,
    },
    Stop,
}

/// How long the conflict-aware scheduler holds back work aimed at a
/// contended key: one typical batch-flush window, long enough for the
/// current lock holder's outcome to commit and release the lock.
const DEFER_WINDOW: Nanos = 20_000;

/// Heap entry ordered by (time, seq) only.
struct Scheduled<M> {
    at: Nanos,
    seq: u64,
    ev: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One physical core: a FIFO of work items from every process placed on
/// it. Processes sharing a core serialize here — that is the whole
/// placement model.
struct CoreState<M> {
    queue: VecDeque<(usize, WorkItem<M>)>,
    free_at: Nanos,
    running: bool,
    slowdown: f64,
    busy: Nanos,
}

struct ClientState {
    node: NodeId,
    /// The client's process index.
    proc: usize,
    next_req: u64,
    /// The in-flight request: id, send time, and the operation itself
    /// (retries resend the *same* operation, so a re-targeted request
    /// cannot commit under two different payloads or shard routes).
    outstanding: Option<(u64, Nanos, Op)>,
    /// Bumped when the target changes; stale retry checks are dropped.
    epoch: u64,
    target_idx: usize,
    completed: u64,
    rng: SimRng,
    /// Client-side 2PC coordinator ([`Workload::TxnMix`] only): owns
    /// the transaction ids, fragment request ids and vote collection;
    /// this loop owns transport and retries.
    coord: TxnCoordinator,
    /// When the in-flight transaction began (latency measurement).
    txn_started: Option<Nanos>,
    /// A generated write set held back one flush window by the
    /// conflict-aware scheduler because it touched a recently-contended
    /// key; the next `SendNext` submits it unconditionally.
    pending_writes: Option<Vec<(u64, u64)>>,
}

/// Builder-configured simulation of one protocol deployment.
///
/// # Examples
///
/// ```
/// use manycore_sim::{Profile, SimBuilder};
/// use onepaxos::twopc::TwoPcNode;
/// use onepaxos::ClusterConfig;
///
/// let report = SimBuilder::new(Profile::opteron48(), |m, me| {
///     TwoPcNode::new(ClusterConfig::new(m.to_vec(), me))
/// })
/// .replicas(3)
/// .clients(1)
/// .requests_per_client(50)
/// .run();
/// assert_eq!(report.completed, 50);
/// assert!(report.throughput > 0.0);
/// ```
pub struct SimBuilder<P, F> {
    profile: Profile,
    replicas: usize,
    clients: usize,
    config: EngineConfig,
    joint: bool,
    factory: F,
    workload: Workload,
    think: Nanos,
    client_timeout: Nanos,
    requests_per_client: u64,
    duration: Option<Nanos>,
    warmup: Nanos,
    timeline_bucket: Nanos,
    faults: Vec<Fault>,
    resets: Vec<(Nanos, usize)>,
    seed: u64,
    spread_clients: bool,
    placement: Option<Vec<usize>>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> std::fmt::Debug for SimBuilder<P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("profile", &self.profile.name)
            .field("replicas", &self.replicas)
            .field("clients", &self.clients)
            .field("shards", &self.config.shards)
            .field("joint", &self.joint)
            .finish_non_exhaustive()
    }
}

impl<P, F> SimBuilder<P, F>
where
    P: Protocol,
    F: FnMut(&[NodeId], NodeId) -> P,
{
    /// Starts a builder on `profile`, with protocol instances built by
    /// `factory(members, me)`.
    pub fn new(profile: Profile, factory: F) -> Self {
        SimBuilder {
            profile,
            replicas: 3,
            clients: 1,
            config: EngineConfig::new(),
            joint: false,
            factory,
            workload: Workload::Noop,
            think: 0,
            client_timeout: 1_000_000,
            requests_per_client: 100,
            duration: None,
            warmup: 0,
            timeline_bucket: 10_000_000,
            faults: Vec::new(),
            resets: Vec::new(),
            seed: 0xC0FFEE,
            spread_clients: false,
            placement: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Replaces the deployment shape with a shared [`EngineConfig`] —
    /// shard count, batching and truncation, the same value accepted by
    /// `TestNet::builder` and `ClusterBuilder`, so one config describes a
    /// deployment across all three harnesses.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Enables engine-level command batching on every replica: requests
    /// coalesce into one agreement per batch, amortising the per-message
    /// tx/rx CPU cost (§3). A committed batch pays the profile's `apply`
    /// cost per extra constituent command. Each shard group batches
    /// independently — and, under [`BatchConfig::Adaptive`], learns its
    /// own flush depth from its own load (final controller state lands
    /// in [`RunReport::engine_stats`]). Default off.
    pub fn batching(mut self, cfg: BatchConfig) -> Self {
        self.config = self.config.batching(cfg);
        self
    }

    /// Number of replica slots per shard group (cores 0..r·s). Default 3,
    /// as in all the paper's replica-mode experiments.
    pub fn replicas(mut self, r: usize) -> Self {
        self.replicas = r;
        self
    }

    /// Number of independent consensus groups with key-hash routing
    /// (default 1). Every `(replica, shard)` pair becomes its own
    /// process; with the default identity placement each runs on its own
    /// core, so agreement throughput multiplies with the shard count —
    /// co-locate them via [`Self::placement`] to model fewer cores.
    /// Requires non-joint mode.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn shards(mut self, s: u16) -> Self {
        self.config = self.config.shards(s);
        self
    }

    /// Number of client processes. Default 1.
    pub fn clients(mut self, c: usize) -> Self {
        self.clients = c;
        self
    }

    /// Joint deployment (§7.4): every client is also a replica, all on
    /// `n` cores; commands are forwarded to the leader on core 0.
    pub fn joint(mut self, n: usize) -> Self {
        self.joint = true;
        self.replicas = n;
        self.clients = n;
        self
    }

    /// Client operation mix. Default [`Workload::Noop`].
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Client think time between a reply and the next request (Fig 9 uses
    /// 2 ms). Default 0.
    pub fn think(mut self, t: Nanos) -> Self {
        self.think = t;
        self
    }

    /// Client patience before re-sending to another replica. Default 1 ms.
    pub fn client_timeout(mut self, t: Nanos) -> Self {
        self.client_timeout = t;
        self
    }

    /// Closed-loop request budget per client (the paper uses 100).
    /// Ignored when a duration is set.
    pub fn requests_per_client(mut self, n: u64) -> Self {
        self.requests_per_client = n;
        self
    }

    /// Run for a fixed virtual duration instead of a request budget.
    pub fn duration(mut self, d: Nanos) -> Self {
        self.duration = Some(d);
        self
    }

    /// Exclude completions before `w` from throughput/latency.
    pub fn warmup(mut self, w: Nanos) -> Self {
        self.warmup = w;
        self
    }

    /// Timeline bucket width (default 10 ms, as in Fig 11).
    pub fn timeline_bucket(mut self, w: Nanos) -> Self {
        self.timeline_bucket = w;
        self
    }

    /// Schedules a core slowdown.
    pub fn fault(mut self, f: Fault) -> Self {
        self.faults.push(f);
        self
    }

    /// Schedules a crash-restart of replica slot `replica` at virtual
    /// time `at`: every shard engine of the slot is replaced by a fresh
    /// one (protocol state, applied log and KV copy all lost), after
    /// which the slot rejoins the group from nothing. Messages in flight
    /// toward it still arrive. Once agreed truncation
    /// ([`Self::truncate_every`]) has dropped the committed prefix, the
    /// restarted slot can only recover through the snapshot-install
    /// catch-up path, priced by the profile's `snapshot` cost. Like the
    /// runtime's `restart_replica`, only restart slots whose protocol
    /// tolerates acceptor amnesia (e.g. a 1Paxos backup).
    pub fn reset_replica(mut self, at: Nanos, replica: usize) -> Self {
        self.resets.push((at, replica));
        self
    }

    /// Enables periodic agreed log truncation
    /// ([`EngineConfig::truncate_every`]) and with it the engines'
    /// background maintenance, so replica memory stays bounded over
    /// duration-mode runs: a replica sitting on a persistent apply gap
    /// (or booting after a reset) asks a peer for a snapshot, priced by
    /// the profile's `snapshot` cost on both sides of the transfer.
    /// Default off — and when off, maintenance is never enabled, so no
    /// timer or event of it exists and seeded runs replay unchanged.
    pub fn truncate_every(mut self, every: u64) -> Self {
        self.config = self.config.truncate_every(every);
        self
    }

    /// RNG seed (jitter and workload); same seed → same run.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Spread clients' initial targets round-robin over the replicas
    /// instead of all aiming at Core 0 — required by multi-leader
    /// protocols such as Mencius (§8). Default off (the paper's clients
    /// "send a request to Core 0", §7.1).
    pub fn spread_clients(mut self, spread: bool) -> Self {
        self.spread_clients = spread;
        self
    }

    /// Pins process `i` to physical core `placement[i]`, controlling
    /// which processes share a socket/LLC (Fig 1's non-uniform latency)
    /// — and which share a *core*: processes placed on the same core
    /// serialize on its FIFO, which is how co-located shards are
    /// modelled. Defaults to the identity placement (every process its
    /// own core).
    ///
    /// Process order: replica-shard processes first (replica-major:
    /// replica 0's shards, then replica 1's, …), then clients. The
    /// vector must have one entry per process, all within the profile's
    /// core count.
    pub fn placement(mut self, placement: Vec<usize>) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Runs the simulation to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the deployment does not fit the profile's core count, if
    /// sharding is combined with joint mode, or if a protocol violates
    /// commit consistency (the safety oracle).
    pub fn run(mut self) -> RunReport {
        let shards = self.config.shards as usize;
        assert!(
            !(self.joint && shards > 1),
            "sharding is not supported in joint mode"
        );
        assert!(
            !(self.joint && self.workload.is_txn()),
            "transactions require replica mode (clients coordinate over shard groups)"
        );
        let n_replica_procs = self.replicas * shards;
        let total_procs = if self.joint {
            self.replicas
        } else {
            n_replica_procs + self.clients
        };
        assert!(self.replicas >= 1, "need at least one replica");

        let members: Vec<NodeId> = (0..self.replicas as u16).map(NodeId).collect();
        let config = self.config;
        let shard_count = config.shards;
        let factory = &mut self.factory;
        // Maintenance only with truncation, so default runs keep their
        // exact event schedule.
        let mut build = |me: NodeId| {
            let mut e =
                ShardedEngine::deploy(config, ReplyMode::Immediate, || factory(&members, me));
            if config.truncate_every.is_some() {
                e.enable_maintenance(&members, config.truncate_every);
            }
            e
        };
        let engines: Vec<ShardedEngine<P, KvStore>> = members.iter().map(|&me| build(me)).collect();
        // One pre-built fresh engine per scheduled reset, constructed up
        // front because the factory is consumed before the sim runs.
        let spare_engines: Vec<Option<ShardedEngine<P, KvStore>>> = self
            .resets
            .iter()
            .map(|&(_, r)| {
                assert!(r < self.replicas, "reset of nonexistent replica {r}");
                Some(build(members[r]))
            })
            .collect();
        let n_replicas = self.replicas;
        let clients = (0..self.clients)
            .map(|j| {
                let proc = if self.joint { j } else { n_replica_procs + j };
                let node = NodeId(proc as u16);
                ClientState {
                    node,
                    proc,
                    next_req: 1,
                    outstanding: None,
                    epoch: 0,
                    target_idx: if self.spread_clients {
                        j % n_replicas
                    } else {
                        0
                    },
                    completed: 0,
                    rng: SimRng::seed_from_u64(self.seed ^ (0x9E37_79B9 + j as u64)),
                    coord: TxnCoordinator::new(node, ShardRouter::new(shard_count)),
                    txn_started: None,
                    pending_writes: None,
                }
            })
            .collect();
        let placement = match self.placement.take() {
            Some(p) => {
                assert_eq!(p.len(), total_procs, "placement must cover every process");
                assert!(
                    p.iter().all(|&c| c < self.profile.cores),
                    "placement exceeds the profile's cores"
                );
                p
            }
            None => {
                assert!(
                    total_procs <= self.profile.cores,
                    "{total_procs} processes exceed {} cores of profile {} \
                     (co-locate them with an explicit placement)",
                    self.profile.cores,
                    self.profile.name
                );
                (0..total_procs).collect()
            }
        };

        let n_cores = self.profile.cores;
        let mut sim = ClusterSim {
            profile: self.profile,
            joint: self.joint,
            placement,
            shards,
            router: ShardRouter::new(shard_count),
            members,
            engines,
            chosen: BTreeMap::new(),
            cores: (0..n_cores)
                .map(|_| CoreState {
                    queue: VecDeque::new(),
                    free_at: 0,
                    running: false,
                    slowdown: 1.0,
                    busy: 0,
                })
                .collect(),
            clients,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            timer_wake: vec![None; n_replica_procs],
            link_last: BTreeMap::new(),
            rng: SimRng::seed_from_u64(self.seed),
            workload: self.workload,
            think: self.think,
            client_timeout: self.client_timeout,
            requests_per_client: if self.duration.is_some() {
                u64::MAX
            } else {
                self.requests_per_client
            },
            warmup: self.warmup,
            latency: LatencyStats::new(),
            timeline: Timeline::new(self.timeline_bucket),
            completed_in_window: 0,
            server_messages: 0,
            total_messages: 0,
            txn_aborts: 0,
            txn_retries: 0,
            retired_truncations: 0,
            snapshots_installed: 0,
            snapshot_requests: Vec::new(),
            spare_engines,
            reset_epochs: vec![0; n_replicas],
            stopped: false,
            scratch: Vec::new(),
        };

        // Protocol bootstrap, every shard group of every replica.
        for r in 0..sim.engines.len() {
            for s in 0..shards {
                let p = r * shards + s;
                let mut effects = std::mem::take(&mut sim.scratch);
                sim.engines[r].shard_mut(ShardId(s as u16)).handle(
                    EngineEvent::Start,
                    0,
                    &mut effects,
                );
                sim.apply_effects(p, 0, 0, &mut effects);
                sim.scratch = effects;
            }
        }
        // Clients start their closed loops at t=0.
        for j in 0..sim.clients.len() {
            let proc = sim.clients[j].proc;
            sim.push_work(0, proc, WorkItem::SendNext);
        }
        for f in &self.faults {
            sim.push(
                f.at,
                Event::SetSpeed {
                    core: f.core,
                    slowdown: f.slowdown,
                },
            );
        }
        for (idx, &(at, replica)) in self.resets.iter().enumerate() {
            sim.push(at, Event::ResetReplica { replica, idx });
        }
        if let Some(d) = self.duration {
            sim.push(d, Event::Stop);
        }
        sim.run_loop();
        sim.into_report(self.warmup)
    }
}

struct ClusterSim<P: Protocol> {
    profile: Profile,
    joint: bool,
    /// Process index → physical core (Fig 1 topology + serialization).
    placement: Vec<usize>,
    /// Shard groups per replica.
    shards: usize,
    /// Key-hash routing shared by clients and oracles.
    router: ShardRouter,
    members: Vec<NodeId>,
    /// One sharded engine per replica slot (protocol + timers + commits
    /// + KV, per shard group).
    engines: Vec<ShardedEngine<P, KvStore>>,
    /// Global safety oracle: (shard, instance) → first command seen
    /// committed (instances of different groups are unrelated logs).
    chosen: BTreeMap<(u16, Instance), Command>,
    /// Physical cores; processes sharing one serialize on its queue.
    cores: Vec<CoreState<P::Msg>>,
    clients: Vec<ClientState>,
    heap: BinaryHeap<Scheduled<P::Msg>>,
    seq: u64,
    now: Nanos,
    /// Earliest pending TimerCheck per replica-shard process, to avoid
    /// wake-up storms.
    timer_wake: Vec<Option<Nanos>>,
    /// FIFO enforcement: last arrival time per directed process pair.
    link_last: BTreeMap<(usize, usize), Nanos>,
    rng: SimRng,
    workload: Workload,
    think: Nanos,
    client_timeout: Nanos,
    requests_per_client: u64,
    warmup: Nanos,
    latency: LatencyStats,
    timeline: Timeline,
    completed_in_window: u64,
    server_messages: u64,
    total_messages: u64,
    /// Transactions aborted by prepare-phase lock conflicts (TxnMix).
    txn_aborts: u64,
    /// Lock-wait re-probes deferred by the conflict-aware scheduler.
    txn_retries: u64,
    /// Truncations counted by engines since replaced by a reset (the
    /// live engines carry the rest in their stats).
    retired_truncations: u64,
    /// Peer snapshots installed by lagging replicas.
    snapshots_installed: u64,
    /// `(requester, donor)` replica slots of every catch-up request.
    snapshot_requests: Vec<(usize, usize)>,
    /// Fresh engines awaiting their scheduled [`Event::ResetReplica`].
    spare_engines: Vec<Option<ShardedEngine<P, KvStore>>>,
    /// Times each replica slot has been reset (spaces the batch-sequence
    /// id ranges of successive incarnations apart, as `TestNet` does).
    reset_epochs: Vec<u64>,
    stopped: bool,
    /// Reusable effect buffer.
    scratch: Effects<P>,
}

impl<P: Protocol> ClusterSim<P> {
    fn push(&mut self, at: Nanos, ev: Event<P::Msg>) {
        self.seq += 1;
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            ev,
        });
    }

    /// Enqueues a work item at a process, waking its core if idle.
    fn push_work(&mut self, at: Nanos, proc: usize, item: WorkItem<P::Msg>) {
        self.push(at, Event::Work { proc, item });
    }

    /// Number of replica-shard processes (they occupy the low indices).
    fn n_replica_procs(&self) -> usize {
        self.engines.len() * self.shards
    }

    /// The (replica slot, shard) a replica process hosts.
    fn replica_of(&self, proc: usize) -> (usize, ShardId) {
        debug_assert!(self.is_replica_proc(proc));
        (proc / self.shards, ShardId((proc % self.shards) as u16))
    }

    /// The process hosting shard `s` of replica slot `r`.
    fn proc_of(&self, r: usize, s: ShardId) -> usize {
        r * self.shards + s.index()
    }

    /// Index of the client living on `proc`, if any.
    fn client_on(&self, proc: usize) -> Option<usize> {
        if self.joint {
            Some(proc).filter(|&p| p < self.clients.len())
        } else {
            proc.checked_sub(self.n_replica_procs())
                .filter(|&j| j < self.clients.len())
        }
    }

    fn is_replica_proc(&self, proc: usize) -> bool {
        proc < self.n_replica_procs()
    }

    /// The current processing-time multiplier of the core hosting `proc`.
    fn slowdown_of(&self, proc: usize) -> f64 {
        self.cores[self.placement[proc]].slowdown
    }

    fn jitter(&mut self) -> Nanos {
        if self.profile.jitter == 0 {
            0
        } else {
            self.rng.below(self.profile.jitter + 1)
        }
    }

    /// Schedules a message arrival over the interconnect with FIFO
    /// preservation per directed link.
    fn deliver(
        &mut self,
        from_proc: usize,
        to_proc: usize,
        send_done: Nanos,
        item: WorkItem<P::Msg>,
    ) {
        let prop = self
            .profile
            .prop(self.placement[from_proc], self.placement[to_proc]);
        let jitter = self.jitter();
        let mut at = send_done + prop + jitter;
        let last = self.link_last.entry((from_proc, to_proc)).or_insert(0);
        if at < *last {
            at = *last;
        }
        *last = at;
        self.push_work(at, to_proc, item);
    }

    /// Crash-restarts replica slot `r` with amnesia: swaps in the
    /// pre-built fresh engine, spaces its batch-sequence range away from
    /// the dead incarnation's, and re-runs the protocol bootstrap. Work
    /// already queued or in flight toward the slot's processes still
    /// arrives — the fresh engine sees it as a new replica would: decided
    /// instances above the truncated prefix defer behind the gap until a
    /// peer snapshot fills it.
    fn reset_replica(&mut self, r: usize, idx: usize, at: Nanos) {
        let fresh = self.spare_engines[idx].take().expect("one spare per reset");
        let dead = std::mem::replace(&mut self.engines[r], fresh);
        self.retired_truncations += dead.merged_stats().truncations;
        self.reset_epochs[r] += 1;
        self.engines[r]
            .set_batch_seq_floor(self.reset_epochs[r] * ReplicaEngine::<P, KvStore>::BATCH_EPOCH);
        for s in 0..self.shards {
            let shard = ShardId(s as u16);
            let proc = self.proc_of(r, shard);
            self.timer_wake[proc] = None;
            let mut effects = std::mem::take(&mut self.scratch);
            self.engines[r]
                .shard_mut(shard)
                .handle(EngineEvent::Start, at, &mut effects);
            self.apply_effects(proc, at, 0, &mut effects);
            self.scratch = effects;
        }
    }

    /// Schedules a TimerCheck for a replica-shard engine's earliest
    /// deadline, unless an earlier check is already pending.
    fn schedule_timer_check(&mut self, proc: usize) {
        let (r, s) = self.replica_of(proc);
        let Some(deadline) = self.engines[r].shard(s).next_deadline() else {
            return;
        };
        if self.timer_wake[proc].is_none_or(|w| deadline < w) {
            self.timer_wake[proc] = Some(deadline);
            self.push_work(deadline, proc, WorkItem::TimerCheck { due: deadline });
        }
    }

    /// Prices a shard engine's effects; `base` is the CPU time already
    /// consumed by the handler (rx + handle) scaled by the core's
    /// slowdown, relative to `start`. Returns total service time.
    ///
    /// Outbound messages are marshalled and transmitted serially within
    /// the handler (each costing `marshal + tx` of CPU), and all become
    /// visible to their receivers when the handler finishes — receivers
    /// cannot observe half-written cache lines mid-handler. This is what
    /// makes additional broadcast traffic cost latency, the §7.2 "message
    /// copy operations" effect.
    fn apply_effects(
        &mut self,
        proc: usize,
        start: Nanos,
        base: Nanos,
        effects: &mut Effects<P>,
    ) -> Nanos {
        let (r, shard) = self.replica_of(proc);
        let slowdown = self.slowdown_of(proc);
        let out_cost = ((self.profile.tx + self.profile.marshal) as f64 * slowdown) as Nanos;
        let mut service = base;
        let mut outbound: Vec<(usize, WorkItem<P::Msg>)> = Vec::new();
        let mut local: Vec<WorkItem<P::Msg>> = Vec::new();
        for effect in effects.drain(..) {
            match effect {
                EngineEffect::SendTo { to, msg } => {
                    // Peer messages stay within the shard group: the
                    // destination is the same shard's engine at replica
                    // slot `to`.
                    let to_proc = self.proc_of(to.index(), shard);
                    let item = WorkItem::Peer {
                        from: self.members[r],
                        msg,
                    };
                    if to_proc == proc {
                        // Collapsed roles on one process: local hand-off,
                        // no transmission cost (§2.3 footnote 5).
                        local.push(item);
                    } else {
                        service += out_cost;
                        self.server_messages += u64::from(self.is_replica_proc(to_proc));
                        self.total_messages += 1;
                        outbound.push((to_proc, item));
                    }
                }
                EngineEffect::ReplyTo {
                    client,
                    req_id,
                    value,
                    ..
                } => {
                    let to_proc = client.index();
                    let value = value.flatten();
                    if to_proc == proc {
                        local.push(WorkItem::Reply { req_id, value });
                    } else {
                        service += out_cost;
                        self.total_messages += 1;
                        outbound.push((to_proc, WorkItem::Reply { req_id, value }));
                    }
                }
                EngineEffect::Committed { instance, cmd } => {
                    // Applying a batch costs CPU per constituent command
                    // beyond the first (the message-level rx/handle cost
                    // already covered one), matching the §3 model: one
                    // tx/rx per agreement, per-command apply cost.
                    service += ((self.profile.apply * (cmd.command_count() as Nanos - 1)) as f64
                        * slowdown) as Nanos;
                    // Safety oracle: all replicas of a shard group must
                    // agree per instance. (The engine already recorded
                    // and applied the commit.)
                    let prior = self
                        .chosen
                        .entry((shard.0, instance))
                        .or_insert_with(|| cmd.clone());
                    assert_eq!(
                        *prior, cmd,
                        "consistency violation at shard {shard} instance {instance}"
                    );
                }
            }
        }
        // Catch-up the engine queued during this step: an ask (boot probe
        // or persistent gap) leaves like any message; a serve for a stale
        // peer is this process's own next work item.
        while let Some(catch_up) = self.engines[r].shard_mut(shard).take_catch_up() {
            match catch_up {
                CatchUp::Ask(donor, have) => {
                    service += out_cost;
                    self.server_messages += 1;
                    self.total_messages += 1;
                    self.snapshot_requests.push((r, donor.index()));
                    let item = WorkItem::SnapshotServe {
                        for_proc: proc,
                        have,
                    };
                    outbound.push((self.proc_of(donor.index(), shard), item));
                }
                CatchUp::Serve(peer, have) => {
                    let for_proc = self.proc_of(peer.index(), shard);
                    local.push(WorkItem::SnapshotServe { for_proc, have });
                }
            }
        }
        let done = start + service;
        for (to_proc, item) in outbound {
            self.deliver(proc, to_proc, done, item);
        }
        for item in local {
            self.push_work(done, proc, item);
        }
        self.schedule_timer_check(proc);
        service
    }

    /// Runs one engine event on a replica-shard process and prices the
    /// fallout.
    fn engine_step(
        &mut self,
        proc: usize,
        event: EngineEvent<P::Msg>,
        start: Nanos,
        base: Nanos,
    ) -> Nanos {
        let (r, s) = self.replica_of(proc);
        let mut effects = std::mem::take(&mut self.scratch);
        self.engines[r]
            .shard_mut(s)
            .handle(event, start, &mut effects);
        let service = self.apply_effects(proc, start, base, &mut effects);
        self.scratch = effects;
        service
    }

    /// Picks a transaction write set touching exactly `fanout` distinct
    /// shard groups (clamped to the deployment), one key per group —
    /// the cross-shard fan-out knob of [`Workload::TxnMix`].
    fn gen_txn_writes(&mut self, j: usize) -> Vec<(u64, u64)> {
        let Workload::TxnMix {
            fanout,
            keys,
            hot_pct,
        } = self.workload
        else {
            unreachable!("txn write sets only exist under TxnMix");
        };
        let shards = self.shards as u16;
        let router = self.router;
        let f = fanout.clamp(1, shards);
        let c = &mut self.clients[j];
        let first_shard = c.rng.below(u64::from(shards)) as u16;
        let mut writes = Vec::with_capacity(f as usize);
        for i in 0..f {
            let target = ShardId((first_shard + i) % shards);
            // The scan maps the sampled base to the next key owned by
            // the target shard — so hot draws (low bases) land on each
            // shard's lowest keys and genuinely collide across clients.
            let base = sample_key(keys, hot_pct, &mut c.rng);
            let key = (0..keys)
                .map(|d| (base + d) % keys)
                .find(|&k| router.route_key(k) == target)
                .expect("key space too small to cover every shard");
            writes.push((key, c.rng.below(1_000_000)));
        }
        writes
    }

    /// Transmits transaction fragments to their shards' current target
    /// replica, charging the client `marshal + tx + txn_leg` of CPU per
    /// leg and arming a per-fragment retry check. Returns the client
    /// service time, cumulative over the legs.
    fn transmit_fragments(&mut self, j: usize, frags: &[Fragment], start: Nanos) -> Nanos {
        let proc = self.clients[j].proc;
        let slowdown = self.slowdown_of(proc);
        let leg_cost = ((self.profile.tx + self.profile.marshal + self.profile.txn_leg) as f64
            * slowdown) as Nanos;
        let target_slot = self.clients[j].target_idx % self.engines.len();
        let client_node = self.clients[j].node;
        let mut service = 0;
        for f in frags {
            service += leg_cost;
            let send_done = start + service;
            self.total_messages += 1;
            self.deliver(
                proc,
                self.proc_of(target_slot, f.shard),
                send_done,
                WorkItem::ClientReq {
                    client: client_node,
                    req_id: f.req_id,
                    op: f.op.clone(),
                },
            );
            let epoch = self.clients[j].epoch;
            self.push_work(
                send_done + self.client_timeout,
                proc,
                WorkItem::RetryCheck {
                    req_id: f.req_id,
                    epoch,
                },
            );
        }
        service
    }

    /// Feeds a reply to the client's transaction coordinator and prices
    /// the fallout: outcome legs out, or completion of the closed loop.
    fn client_txn_reply(
        &mut self,
        j: usize,
        req_id: u64,
        value: Option<u64>,
        start: Nanos,
        base: Nanos,
    ) -> Nanos {
        let step = self.clients[j].coord.on_reply(req_id, value);
        // Conflict-aware defer: a Wait/Busy vote queued a fresh-id
        // re-probe — hold its transmission back one flush window so the
        // lock holder can finish, instead of hammering the shard.
        let deferred = self.clients[j].coord.take_deferred();
        if !deferred.is_empty() {
            self.txn_retries += deferred.len() as u64;
            let (proc, epoch) = (self.clients[j].proc, self.clients[j].epoch);
            for f in deferred {
                self.push_work(
                    start + base + DEFER_WINDOW,
                    proc,
                    WorkItem::TxnDeferred {
                        req_id: f.req_id,
                        epoch,
                    },
                );
            }
        }
        let done = start + base;
        match step {
            TxnStep::Pending => base,
            TxnStep::Submit(frags) => base + self.transmit_fragments(j, &frags, done),
            TxnStep::Decided { outcome, submit } => {
                base + self.finish_txn(j, outcome, &submit, done)
            }
            // Recovery coordinators finish through Done, with no outcome
            // legs left to send; the live loop above always decides
            // early, so drain acknowledgements arrive as Pending.
            TxnStep::Done(outcome) => base + self.finish_txn(j, outcome, &[], done),
        }
    }

    /// Completes client `j`'s transaction with `outcome` at `done` and
    /// sends its outcome legs. Presumed durability: the recorded votes
    /// force the outcome whether or not the coordinator survives to
    /// deliver it, so the client observes completion NOW and the legs
    /// drain in the background — phase 2 of this transaction overlaps
    /// phase 1 of the next. Returns the client service time of the legs.
    fn finish_txn(
        &mut self,
        j: usize,
        outcome: TxnOutcome,
        submit: &[Fragment],
        done: Nanos,
    ) -> Nanos {
        let c = &mut self.clients[j];
        c.epoch += 1;
        let started = c.txn_started.take().unwrap_or(done);
        match outcome {
            TxnOutcome::Committed => {
                c.completed += 1;
                self.timeline.record(done);
                if done >= self.warmup {
                    self.latency.record(done.saturating_sub(started));
                    self.completed_in_window += 1;
                }
            }
            TxnOutcome::Aborted => {
                // A prepare-phase lock conflict: the transaction applied
                // nowhere. The closed loop moves on to a fresh write set
                // (counting it would inflate committed-txn throughput).
                self.txn_aborts += 1;
            }
        }
        let service = self.transmit_fragments(j, submit, done);
        let (completed, proc) = (self.clients[j].completed, self.clients[j].proc);
        if completed < self.requests_per_client {
            self.push_work(done + service + self.think, proc, WorkItem::SendNext);
        }
        service
    }

    /// Client issues its next request (or finishes).
    fn client_send_next(&mut self, j: usize, start: Nanos) -> Nanos {
        let budget = self.requests_per_client;
        if self.workload.is_txn() {
            if self.clients[j].completed >= budget || self.clients[j].coord.in_flight() {
                return 0;
            }
            let writes = if let Some(w) = self.clients[j].pending_writes.take() {
                // A write set the scheduler already held back once goes
                // out unconditionally — one window of politeness, not a
                // livelock.
                w
            } else {
                let w = self.gen_txn_writes(j);
                if self.clients[j].coord.is_hot(&w) {
                    // Conflict-aware scheduling: this write set touches
                    // a key that recently drew a conflict vote. Submit
                    // it one flush window later so the current holder
                    // can finish, instead of parking behind it (or
                    // dying young) at the shard.
                    let c = &mut self.clients[j];
                    c.pending_writes = Some(w);
                    let proc = c.proc;
                    self.push_work(start + DEFER_WINDOW, proc, WorkItem::SendNext);
                    return 0;
                }
                w
            };
            let c = &mut self.clients[j];
            c.txn_started = Some(start);
            let frags = c.coord.begin(&writes);
            return self.transmit_fragments(j, &frags, start);
        }
        let c = &mut self.clients[j];
        if c.completed >= budget || c.outstanding.is_some() {
            return 0;
        }
        let req_id = c.next_req;
        c.next_req += 1;
        let op = self.workload.generate(&mut c.rng);
        c.outstanding = Some((req_id, start, op.clone()));
        let client_node = c.node;
        let proc = c.proc;
        let epoch = c.epoch;

        if self.joint {
            // Joint deployment: hand the command to the co-located
            // replica. Reads are relaxed (§7.5): its engine serves them
            // from the local copy when the protocol allows it, waits out
            // a 2PC lock window, or orders them (the Paxos family).
            let client = client_node;
            let event = match op {
                Op::Get { key } => EngineEvent::ReadRelaxed {
                    client,
                    req_id,
                    key,
                },
                op => EngineEvent::ClientRequest { client, req_id, op },
            };
            let base = (self.profile.handle as f64 * self.slowdown_of(proc)) as Nanos;
            // No client timeout in joint mode: the local node handles
            // leader failover itself.
            self.engine_step(proc, event, start, base)
        } else {
            // Send the request to the current target replica of the
            // shard group owning the operation.
            self.client_transmit(j, req_id, op, start, epoch)
        }
    }

    /// Transmits (or re-transmits) a client request to its routed target
    /// and arms the retry check. Returns the client-side service time.
    fn client_transmit(
        &mut self,
        j: usize,
        req_id: u64,
        op: Op,
        start: Nanos,
        epoch: u64,
    ) -> Nanos {
        let proc = self.clients[j].proc;
        let client_node = self.clients[j].node;
        let slowdown = self.slowdown_of(proc);
        let service = ((self.profile.tx + self.profile.marshal) as f64 * slowdown) as Nanos;
        let shard = self.router.route(client_node, &op);
        let target_slot = self.clients[j].target_idx % self.engines.len();
        let target_proc = self.proc_of(target_slot, shard);
        let send_done = start + service;
        self.total_messages += 1;
        // Relaxed-read workloads issue their Gets as local-copy reads
        // (the sim-side `get_relaxed`); everything else is an ordinary
        // replicated request.
        let item = match op {
            Op::Get { key } if self.workload.relaxed_reads() => WorkItem::RelaxedRead {
                client: client_node,
                req_id,
                key,
            },
            op => WorkItem::ClientReq {
                client: client_node,
                req_id,
                op,
            },
        };
        self.deliver(proc, target_proc, send_done, item);
        let at = start + service + self.client_timeout;
        self.push_work(at, proc, WorkItem::RetryCheck { req_id, epoch });
        service
    }

    /// Marks the client's outstanding request completed; returns `false`
    /// for stale/duplicate replies (a retried request answered by more
    /// than one node).
    fn client_complete(&mut self, j: usize, req_id: u64, at: Nanos) -> bool {
        let c = &mut self.clients[j];
        let Some((out_req, sent_at)) = c.outstanding.as_ref().map(|(r, t, _)| (*r, *t)) else {
            return false;
        };
        if out_req != req_id {
            return false; // stale reply for an older (retried) request
        }
        c.outstanding = None;
        c.completed += 1;
        c.epoch += 1;
        self.timeline.record(at);
        if at >= self.warmup {
            self.latency.record(at.saturating_sub(sent_at));
            self.completed_in_window += 1;
        }
        true
    }

    fn run_loop(&mut self) {
        while let Some(Scheduled { at, ev, .. }) = self.heap.pop() {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            if self.stopped {
                break;
            }
            match ev {
                Event::Work { proc, item } => {
                    let core = self.placement[proc];
                    self.cores[core].queue.push_back((proc, item));
                    if !self.cores[core].running {
                        self.cores[core].running = true;
                        let when = self.cores[core].free_at.max(at);
                        self.push(when, Event::CoreRun { core });
                    }
                }
                Event::CoreRun { core } => {
                    let Some((proc, item)) = self.cores[core].queue.pop_front() else {
                        self.cores[core].running = false;
                        continue;
                    };
                    let service = self.execute(proc, item, at);
                    let c = &mut self.cores[core];
                    c.free_at = at + service;
                    c.busy += service;
                    if c.queue.is_empty() {
                        c.running = false;
                    } else {
                        let when = c.free_at;
                        self.push(when, Event::CoreRun { core });
                    }
                }
                Event::SetSpeed { core, slowdown } => {
                    self.cores[core].slowdown = slowdown;
                }
                Event::ResetReplica { replica, idx } => {
                    self.reset_replica(replica, idx, at);
                }
                Event::Stop => {
                    self.stopped = true;
                    break;
                }
            }
            // Request-budget termination: stop once every client is done.
            if self.requests_per_client != u64::MAX
                && self
                    .clients
                    .iter()
                    .all(|c| c.completed >= self.requests_per_client)
            {
                break;
            }
        }
    }

    /// Processes one work item of `proc` at time `start`; returns the
    /// service time (already scaled by the hosting core's slowdown).
    fn execute(&mut self, proc: usize, item: WorkItem<P::Msg>, start: Nanos) -> Nanos {
        let slowdown = self.slowdown_of(proc);
        let scaled = |ns: Nanos| (ns as f64 * slowdown) as Nanos;
        match item {
            WorkItem::Peer { from, msg } => {
                debug_assert!(self.is_replica_proc(proc));
                let base = scaled(self.profile.rx + self.profile.handle);
                self.engine_step(proc, EngineEvent::Message { from, msg }, start, base)
            }
            WorkItem::ClientReq { client, req_id, op } => {
                debug_assert!(self.is_replica_proc(proc));
                let base = scaled(self.profile.rx + self.profile.handle);
                self.engine_step(
                    proc,
                    EngineEvent::ClientRequest { client, req_id, op },
                    start,
                    base,
                )
            }
            WorkItem::RelaxedRead {
                client,
                req_id,
                key,
            } => {
                debug_assert!(self.is_replica_proc(proc));
                let base = scaled(self.profile.rx + self.profile.handle);
                let event = EngineEvent::ReadRelaxed {
                    client,
                    req_id,
                    key,
                };
                self.engine_step(proc, event, start, base)
            }
            WorkItem::TimerCheck { due } => {
                debug_assert!(self.is_replica_proc(proc));
                if self.timer_wake[proc] != Some(due) {
                    // Superseded by an earlier check: that one owns the
                    // wake and will reschedule; doing anything here would
                    // spawn a perpetually duplicated check stream.
                    return 0;
                }
                self.timer_wake[proc] = None;
                let (r, s) = self.replica_of(proc);
                let mut effects = std::mem::take(&mut self.scratch);
                let fired = self.engines[r].shard_mut(s).fire_due(start, &mut effects);
                // Each fired timer costs one timer service; a check whose
                // timer was cancelled or re-armed later costs nothing.
                let base = scaled(self.profile.timer_cost) * fired as Nanos;
                let service = self.apply_effects(proc, start, base, &mut effects);
                self.scratch = effects;
                service
            }
            WorkItem::Reply { req_id, value } => {
                let service = scaled(self.profile.rx);
                if let Some(j) = self.client_on(proc) {
                    // Transaction fragments are resolved by the client's
                    // coordinator (which ignores replies it does not
                    // own, so plain and txn traffic cannot cross wires).
                    if self.workload.is_txn() {
                        return self.client_txn_reply(j, req_id, value, start, service);
                    }
                    let done = start + service;
                    // Only a reply that completes the outstanding request
                    // continues the closed loop; duplicates (a retried
                    // request answered by several nodes) must not fork it.
                    if self.client_complete(j, req_id, done)
                        && self.clients[j].completed < self.requests_per_client
                    {
                        let think = self.think;
                        self.push_work(done + think, proc, WorkItem::SendNext);
                    }
                }
                service
            }
            WorkItem::SendNext => {
                if let Some(j) = self.client_on(proc) {
                    self.client_send_next(j, start)
                } else {
                    0
                }
            }
            WorkItem::TxnDeferred { req_id, epoch } => {
                let Some(j) = self.client_on(proc) else {
                    return 0;
                };
                if self.clients[j].epoch != epoch {
                    return 0; // the transaction decided meanwhile
                }
                let Some(frag) = self.clients[j].coord.fragment(req_id) else {
                    return 0; // answered meanwhile
                };
                self.transmit_fragments(j, &[frag], start)
            }
            WorkItem::RetryCheck { req_id, epoch } => {
                let Some(j) = self.client_on(proc) else {
                    return 0;
                };
                if self.workload.is_txn() {
                    // Per-fragment retry: only a still-unanswered
                    // fragment of the *current* transaction re-sends
                    // (epoch filters checks armed for finished ones).
                    if self.clients[j].epoch != epoch {
                        return 0;
                    }
                    let Some(frag) = self.clients[j].coord.fragment(req_id) else {
                        return 0; // answered meanwhile
                    };
                    let n_replicas = self.engines.len();
                    let c = &mut self.clients[j];
                    c.target_idx = (c.target_idx + 1) % n_replicas;
                    return self.transmit_fragments(j, &[frag], start);
                }
                let c = &self.clients[j];
                if c.epoch != epoch || c.outstanding.as_ref().map(|&(r, _, _)| r) != Some(req_id) {
                    return 0; // answered meanwhile
                }
                // "Once the clients detect the slow leader, they send
                // their requests to other nodes" (§7.6): round-robin to
                // the next replica slot, same request id, same operation
                // (so the retry routes to the same shard group).
                let n_replicas = self.engines.len();
                let c = &mut self.clients[j];
                c.target_idx = (c.target_idx + 1) % n_replicas;
                let op = c
                    .outstanding
                    .as_ref()
                    .map(|(_, _, op)| op.clone())
                    .expect("checked");
                self.client_transmit(j, req_id, op, start, epoch)
            }
            WorkItem::SnapshotServe { for_proc, have } => {
                debug_assert!(self.is_replica_proc(proc));
                let (r, s) = self.replica_of(proc);
                let base = scaled(self.profile.rx);
                let Some(snap) = self.engines[r].serve_snapshot(s, have) else {
                    return base; // nothing newer to offer
                };
                let service =
                    base + scaled(self.profile.snapshot + self.profile.marshal + self.profile.tx);
                self.server_messages += 1;
                self.total_messages += 1;
                self.deliver(
                    proc,
                    for_proc,
                    start + service,
                    WorkItem::SnapshotInstall { snap },
                );
                service
            }
            WorkItem::SnapshotInstall { snap } => {
                debug_assert!(self.is_replica_proc(proc));
                let (r, s) = self.replica_of(proc);
                let service = scaled(self.profile.rx + self.profile.snapshot);
                self.snapshots_installed +=
                    u64::from(self.engines[r].install_shard_snapshot(s, snap));
                service
            }
        }
    }

    fn into_report(mut self, warmup: Nanos) -> RunReport {
        let ended_at = self.now;
        let duration = ended_at.saturating_sub(warmup).max(1);
        let throughput = self.completed_in_window as f64 * 1e9 / duration as f64;
        let utilization = self
            .cores
            .iter()
            .map(|c| c.busy as f64 / ended_at.max(1) as f64)
            .collect();
        let replica_digests = self.engines.iter().map(ShardedEngine::kv_digest).collect();
        let engine_stats: Vec<EngineStats> = self
            .engines
            .iter()
            .flat_map(|e| e.iter().map(|(s, _)| e.stats(s)).collect::<Vec<_>>())
            .collect();
        let live_truncations: u64 = engine_stats.iter().map(|s| s.truncations).sum();
        RunReport {
            completed: self.completed_in_window,
            duration,
            throughput,
            latency: std::mem::take(&mut self.latency),
            timeline: self.timeline,
            server_messages: self.server_messages,
            total_messages: self.total_messages,
            utilization,
            ended_at,
            replica_digests,
            engine_stats,
            txn_aborts: self.txn_aborts,
            txn_retries: self.txn_retries,
            truncations: self.retired_truncations + live_truncations,
            snapshots_installed: self.snapshots_installed,
            snapshot_requests: self.snapshot_requests,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use onepaxos::multipaxos::MultiPaxosNode;
    use onepaxos::onepaxos::OnePaxosNode;
    use onepaxos::twopc::TwoPcNode;
    use onepaxos::ClusterConfig;

    fn cfg(m: &[NodeId], me: NodeId) -> ClusterConfig {
        ClusterConfig::new(m.to_vec(), me)
    }

    #[test]
    fn twopc_single_client_completes_budget() {
        let r = SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .requests_per_client(100)
            .run();
        assert_eq!(r.completed, 100);
        assert!(r.mean_latency_us() > 5.0 && r.mean_latency_us() < 100.0);
    }

    #[test]
    fn onepaxos_single_client_latency_is_lowest() {
        // §7.2 ordering: 1Paxos < Multi-Paxos < 2PC.
        let l1 = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .requests_per_client(200)
            .run()
            .mean_latency_us();
        let lm = SimBuilder::new(Profile::opteron48(), |m, me| {
            MultiPaxosNode::new(cfg(m, me))
        })
        .requests_per_client(200)
        .run()
        .mean_latency_us();
        let l2 = SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
            .requests_per_client(200)
            .run()
            .mean_latency_us();
        assert!(l1 < lm, "1Paxos {l1} vs Multi-Paxos {lm}");
        assert!(lm < l2, "Multi-Paxos {lm} vs 2PC {l2}");
    }

    #[test]
    fn onepaxos_outscales_multipaxos_with_many_clients() {
        let t1 = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(12)
            .duration(200_000_000)
            .warmup(20_000_000)
            .run()
            .throughput;
        let tm = SimBuilder::new(Profile::opteron48(), |m, me| {
            MultiPaxosNode::new(cfg(m, me))
        })
        .clients(12)
        .duration(200_000_000)
        .warmup(20_000_000)
        .run()
        .throughput;
        assert!(
            t1 > 1.5 * tm,
            "1Paxos {t1:.0} op/s should beat Multi-Paxos {tm:.0} op/s clearly"
        );
    }

    #[test]
    fn batching_raises_saturated_throughput_and_stays_consistent() {
        // The §3 claim, closed end-to-end: coalescing commands per
        // agreement amortises the per-message tx/rx CPU cost, so a
        // saturated deployment commits strictly more per second. The
        // run's safety oracle and replica digests keep checking.
        let run = |batch: Option<BatchConfig>| {
            let mut b =
                SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                    .clients(16)
                    .duration(150_000_000)
                    .warmup(20_000_000);
            if let Some(c) = batch {
                b = b.batching(c);
            }
            b.run()
        };
        let plain = run(None);
        let batched = run(Some(BatchConfig::new(8, 20_000)));
        assert!(
            batched.throughput > plain.throughput,
            "batched {:.0} op/s must beat unbatched {:.0} op/s",
            batched.throughput,
            plain.throughput
        );
        // Fewer inter-replica messages carried more commits.
        assert!(
            batched.server_messages < plain.server_messages,
            "batched {} server messages vs unbatched {}",
            batched.server_messages,
            plain.server_messages
        );
    }

    #[test]
    fn adaptive_batching_learns_a_depth_and_beats_unbatched_at_saturation() {
        use onepaxos::engine::AdaptiveBatch;
        // The tentpole end-to-end: a saturated deployment with *no*
        // depth knob set must discover one good enough to beat the
        // unbatched baseline, with the safety oracle checking throughout.
        let run = |batch: Option<BatchConfig>| {
            let mut b =
                SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                    .clients(16)
                    .duration(150_000_000)
                    .warmup(20_000_000);
            if let Some(c) = batch {
                b = b.batching(c);
            }
            b.run()
        };
        let plain = run(None);
        let adaptive = run(Some(BatchConfig::adaptive(AdaptiveBatch::new(32, 20_000))));
        assert!(
            adaptive.throughput > plain.throughput,
            "adaptive {:.0} op/s must beat unbatched {:.0} op/s",
            adaptive.throughput,
            plain.throughput
        );
        // The leader process (replica 0, shard 0) did the learning.
        let leader = adaptive.engine_stats[0];
        assert!(leader.depth > 1, "controller never grew: {leader:?}");
        assert!(leader.grows > 0 && leader.flushes > 0);
        assert!(leader.depth <= 32, "depth escaped the cap");
    }

    #[test]
    fn adaptive_batching_stays_shallow_for_a_single_closed_loop_client() {
        use onepaxos::engine::AdaptiveBatch;
        // One client can never justify a deep batch: the controller must
        // hover at the bottom of its range and keep latency flat instead
        // of making every request wait out the deadline at a high depth.
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(1)
            .requests_per_client(50)
            .batching(BatchConfig::adaptive(AdaptiveBatch::new(32, 20_000)))
            .run();
        assert_eq!(r.completed, 50);
        assert!(r.mean_latency_us() < 100.0, "got {}", r.mean_latency_us());
        let leader = r.engine_stats[0];
        assert!(
            leader.depth <= 2,
            "one client grew depth to {}",
            leader.depth
        );
    }

    #[test]
    fn batching_deadline_flushes_an_unsaturated_trickle() {
        // A single closed-loop client can never fill an 8-deep batch, so
        // every command must ride a deadline (or singleton) flush: if the
        // scheduler ever slept past the batch deadline, this would stall.
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(1)
            .requests_per_client(50)
            .batching(BatchConfig::new(8, 20_000))
            .run();
        assert_eq!(r.completed, 50);
        // Latency gains the flush delay at most.
        assert!(r.mean_latency_us() < 100.0, "got {}", r.mean_latency_us());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                .clients(4)
                .requests_per_client(50)
                .seed(42)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.ended_at, b.ended_at);
        assert_eq!(a.total_messages, b.total_messages);
    }

    #[test]
    fn slow_coordinator_stalls_twopc() {
        // §2.2: "after Core 0 becomes slow, only a few requests can commit
        // and the throughput drops to zero."
        let r = SimBuilder::new(Profile::opteron8(), |m, me| TwoPcNode::new(cfg(m, me)))
            .clients(5)
            .duration(400_000_000)
            .fault(Fault {
                at: 100_000_000,
                core: 0,
                slowdown: 400.0,
            })
            .run();
        let rates: Vec<f64> = r.timeline.rates().map(|(_, v)| v).collect();
        let before = rates[..8].iter().copied().fold(0.0, f64::max);
        let after = rates[15..].iter().copied().fold(0.0, f64::max);
        assert!(before > 10_000.0, "healthy 2PC should commit, got {before}");
        assert!(
            after < before / 20.0,
            "slow coordinator must collapse 2PC throughput: {after} vs {before}"
        );
    }

    #[test]
    fn slow_leader_onepaxos_recovers() {
        // Fig 11: throughput drops during the leader change, then
        // recovers.
        let r = SimBuilder::new(Profile::opteron8(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(5)
            .duration(600_000_000)
            .fault(Fault {
                at: 200_000_000,
                core: 0,
                slowdown: 400.0,
            })
            .run();
        let rates: Vec<f64> = r.timeline.rates().map(|(_, v)| v).collect();
        let before = rates[5..18].iter().copied().fold(0.0, f64::max);
        let tail = &rates[rates.len() - 10..];
        let after = tail.iter().copied().fold(0.0, f64::max);
        assert!(before > 10_000.0, "healthy throughput, got {before}");
        assert!(
            after > before * 0.5,
            "1Paxos must recover after leader switch: {after} vs {before}"
        );
    }

    #[test]
    fn joint_mode_runs_all_protocols() {
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .joint(8)
            .think(2_000_000)
            .duration(100_000_000)
            .run();
        assert!(r.completed > 0);
        let r2 = SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
            .joint(8)
            .think(2_000_000)
            .duration(100_000_000)
            .run();
        assert!(r2.completed > 0);
    }

    #[test]
    fn twopc_joint_serves_reads_locally() {
        let mixed = SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
            .joint(5)
            .workload(Workload::ReadMix {
                read_pct: 75,
                keys: 64,
                hot_pct: 0,
            })
            .duration(100_000_000)
            .run();
        let writes = SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
            .joint(5)
            .workload(Workload::Noop)
            .duration(100_000_000)
            .run();
        assert!(
            mixed.throughput > 1.5 * writes.throughput,
            "75% local reads must outpace pure writes: {} vs {}",
            mixed.throughput,
            writes.throughput
        );
    }

    #[test]
    fn report_replicas_stay_consistent() {
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(6)
            .workload(Workload::ReadMix {
                read_pct: 20,
                keys: 32,
                hot_pct: 0,
            })
            .requests_per_client(100)
            .run();
        // All replicas that fully drained agree (oracle also asserts per
        // commit); digests of the first two replicas must match since
        // both saw every learn.
        assert!(r.completed >= 595, "got {}", r.completed);
    }

    #[test]
    fn sharding_multiplies_saturated_throughput() {
        // The tentpole claim end-to-end: four shard groups on their own
        // cores commit far more per second than one, same protocol code,
        // same clients, per-commit consistency checked throughout.
        let run = |shards: u16| {
            SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                .clients(16)
                .shards(shards)
                .workload(Workload::ReadMix {
                    read_pct: 0,
                    keys: 1024,
                    hot_pct: 0,
                })
                .duration(120_000_000)
                .warmup(20_000_000)
                .run()
        };
        let s1 = run(1);
        let s4 = run(4);
        assert!(
            s4.throughput > 1.8 * s1.throughput,
            "4 shards {:.0} op/s must far outscale 1 shard {:.0} op/s",
            s4.throughput,
            s1.throughput
        );
    }

    #[test]
    fn sharded_runs_complete_budgets_and_stay_deterministic() {
        let run = || {
            SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                .clients(4)
                .shards(3)
                .workload(Workload::ReadMix {
                    read_pct: 25,
                    keys: 64,
                    hot_pct: 0,
                })
                .requests_per_client(50)
                .seed(7)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, 200);
        assert_eq!(a.ended_at, b.ended_at);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.replica_digests, b.replica_digests);
    }

    #[test]
    fn sharding_composes_with_batching() {
        // The acceptance-criteria configuration in miniature: batching on
        // both sides, sharded still well ahead.
        let run = |shards: u16| {
            SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                .clients(16)
                .shards(shards)
                .batching(BatchConfig::new(8, 20_000))
                .workload(Workload::ReadMix {
                    read_pct: 0,
                    keys: 1024,
                    hot_pct: 0,
                })
                .duration(120_000_000)
                .warmup(20_000_000)
                .run()
        };
        let s1 = run(1);
        let s4 = run(4);
        assert!(
            s4.throughput > 1.5 * s1.throughput,
            "sharded+batched {:.0} op/s vs batched {:.0} op/s",
            s4.throughput,
            s1.throughput
        );
    }

    #[test]
    fn relaxed_mix_bypasses_agreements_for_twopc_replica_mode() {
        // The sim-side get_relaxed: in replica (non-joint) mode, 2PC
        // serves relaxed reads from the target replica's local copy —
        // fewer server messages per completed op than ordering every
        // read, and more completions.
        let run = |w: Workload| {
            SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
                .clients(8)
                .workload(w)
                .duration(100_000_000)
                .warmup(15_000_000)
                .run()
        };
        let ordered = run(Workload::ReadMix {
            read_pct: 75,
            keys: 64,
            hot_pct: 0,
        });
        let relaxed = run(Workload::RelaxedMix {
            read_pct: 75,
            keys: 64,
        });
        let per_op_ordered = ordered.server_messages as f64 / ordered.completed.max(1) as f64;
        let per_op_relaxed = relaxed.server_messages as f64 / relaxed.completed.max(1) as f64;
        assert!(
            per_op_relaxed < 0.5 * per_op_ordered,
            "relaxed reads must skip agreement traffic: {per_op_relaxed:.2} vs {per_op_ordered:.2}"
        );
        assert!(
            relaxed.throughput > ordered.throughput,
            "relaxed {:.0} op/s vs ordered {:.0} op/s",
            relaxed.throughput,
            ordered.throughput
        );
    }

    #[test]
    fn txn_mix_single_shard_short_circuits_and_completes_the_budget() {
        // Fan-out 1: every transaction is one MultiPut agreement — no
        // lock windows, no second phase, and the closed loop completes
        // its budget like a plain-put run.
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(4)
            .shards(2)
            .workload(Workload::TxnMix {
                fanout: 1,
                keys: 256,
                hot_pct: 0,
            })
            .requests_per_client(25)
            .run();
        assert_eq!(r.completed, 100);
        assert_eq!(r.txn_aborts, 0, "single-shard txns cannot conflict");
    }

    #[test]
    fn txn_mix_cross_shard_commits_make_progress_and_stay_consistent() {
        // Fan-out 2 over four groups: every commit is a full
        // PREPARE → COMMIT round across two Paxos groups, with the
        // per-commit safety oracle checking throughout.
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(4)
            .shards(4)
            .workload(Workload::TxnMix {
                fanout: 2,
                keys: 1024,
                hot_pct: 0,
            })
            .requests_per_client(20)
            .run();
        assert_eq!(r.completed, 80, "every client's budget must commit");
        // Committed transactions did real cross-group work: strictly
        // more server messages than the same budget of single-shard
        // puts would need is implied by the 2PC legs; just assert some
        // agreement traffic happened on multiple fronts.
        assert!(r.server_messages > 0);
    }

    #[test]
    fn txn_mix_is_deterministic_given_a_seed() {
        let run = || {
            SimBuilder::new(Profile::opteron48(), |m, me| TwoPcNode::new(cfg(m, me)))
                .clients(3)
                .shards(3)
                .workload(Workload::TxnMix {
                    fanout: 2,
                    keys: 512,
                    hot_pct: 0,
                })
                .requests_per_client(15)
                .seed(11)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.ended_at, b.ended_at);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.txn_aborts, b.txn_aborts);
        assert_eq!(a.replica_digests, b.replica_digests);
    }

    #[test]
    fn relaxed_mix_degrades_to_consensus_for_ordered_protocols() {
        // 1Paxos without the relaxed-reads opt-in orders every read: the
        // RelaxedMix workload still completes (reads come back through
        // consensus) and replicas stay consistent.
        let r = SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(4)
            .shards(2)
            .workload(Workload::RelaxedMix {
                read_pct: 50,
                keys: 32,
            })
            .requests_per_client(50)
            .run();
        assert_eq!(r.completed, 200);
    }

    #[test]
    fn agreed_truncation_bounds_the_applied_log() {
        // The unbounded-memory bug, measured: without truncation every
        // replica's applied log grows with the commit count; with
        // periodic agreed truncation it stays near the threshold, at the
        // same completed work, with the safety oracle checking every
        // commit throughout.
        let run = |every: Option<u64>| {
            let mut b =
                SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                    .clients(4)
                    .requests_per_client(2_000);
            if let Some(e) = every {
                b = b.truncate_every(e);
            }
            b.run()
        };
        let unbounded = run(None);
        let bounded = run(Some(500));
        assert_eq!(unbounded.completed, 8_000);
        assert_eq!(bounded.completed, 8_000);
        assert!(bounded.truncations > 0, "no truncation ever committed");
        let max_log = |r: &RunReport| r.engine_stats.iter().map(|s| s.applied_log_len).max();
        let grown = max_log(&unbounded).unwrap();
        let flat = max_log(&bounded).unwrap();
        assert!(grown >= 8_000, "untruncated log must hold every commit");
        // Between truncations the log regrows toward the threshold plus
        // whatever is in flight; well under the total committed work.
        assert!(
            flat < 2_000,
            "truncated log should stay near the 500 threshold, got {flat}"
        );
    }

    #[test]
    fn truncation_maintenance_is_deterministic_given_a_seed() {
        let run = || {
            SimBuilder::new(Profile::opteron48(), |m, me| OnePaxosNode::new(cfg(m, me)))
                .clients(4)
                .requests_per_client(500)
                .truncate_every(100)
                .seed(7)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.ended_at, b.ended_at);
        assert_eq!(a.total_messages, b.total_messages);
        assert_eq!(a.truncations, b.truncations);
        assert_eq!(a.replica_digests, b.replica_digests);
    }

    #[test]
    fn restarted_replica_catches_up_by_snapshot_install() {
        // A backup crash-restarts with amnesia after agreed truncation
        // has dropped the committed prefix: replay can never fill the
        // hole below its gap (nobody retransmits truncated instances),
        // so the maintenance loop must fetch a peer snapshot — priced by
        // the profile's `snapshot` cost — install it, and consume the
        // live log from the watermark, with the safety oracle checking
        // every re-learned commit.
        let r = SimBuilder::new(Profile::opteron8(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(5)
            .duration(300_000_000)
            .truncate_every(300)
            .reset_replica(100_000_000, 2)
            .run();
        assert!(r.completed > 0);
        assert!(r.truncations > 0, "leader never truncated");
        assert!(
            r.snapshots_installed > 0,
            "restarted replica never installed a snapshot"
        );
    }

    #[test]
    fn restarted_replica_asks_the_donor_its_engine_rotates_to() {
        // Parity with the other harnesses: in the scenario above the
        // requester, donor and timing of every catch-up request come from
        // the engine's maintenance policy — no omniscient "most advanced
        // peer". The three boot probes at t=0 go to the staggered first
        // donor (the peer list minus self, cursor = node id) and find
        // nothing; after the reset only slot 2 ever asks, starting over
        // at its first donor.
        let r = SimBuilder::new(Profile::opteron8(), |m, me| OnePaxosNode::new(cfg(m, me)))
            .clients(5)
            .duration(300_000_000)
            .truncate_every(300)
            .reset_replica(100_000_000, 2)
            .run();
        let first_donor = |me: usize| [0, 1, 2].into_iter().filter(|&p| p != me).nth(me % 2);
        let (boot, later) = r.snapshot_requests.split_at(3);
        for (me, &(from, donor)) in boot.iter().enumerate() {
            assert_eq!((from, Some(donor)), (me, first_donor(me)), "boot probe");
        }
        assert_eq!(later.first(), Some(&(2, first_donor(2).unwrap())));
        assert!(later.iter().all(|&(from, donor)| from == 2 && donor != 2));
        assert!(r.snapshots_installed as usize <= later.len());
    }
}
