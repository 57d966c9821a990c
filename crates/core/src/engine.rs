//! The shared replica-engine layer: everything a deployment needs around a
//! sans-IO [`Protocol`] node, in exactly one place.
//!
//! Before this module existed, each harness — [`TestNet`](crate::testnet),
//! the `manycore-sim` cluster and the `onepaxos-runtime` node loop —
//! hand-rolled its own copy of [`Action`] dispatch, timer bookkeeping,
//! commit application and client replies. The paper's portability claim
//! (protocol state machines "can be easily ported to a network system with
//! no change", §6.2) holds for the *protocols*; the engine extends it to
//! the *plumbing*, so a harness is only a transport.
//!
//! # The Event/Effect contract
//!
//! A [`ReplicaEngine`] owns one protocol node plus its deadlines and
//! the replicated-state-machine [`Applier`], and holds nothing a
//! deployment does not need: no commit log, no record of replies. The
//! harness feeds it [`EngineEvent`]s:
//!
//! * [`EngineEvent::Start`] — bootstrap; run once before anything else.
//! * [`EngineEvent::Message`] — a peer message was delivered.
//! * [`EngineEvent::ClientRequest`] — a client submitted a command.
//! * [`EngineEvent::ReadRelaxed`] — a client asked for a relaxed read.
//! * [`EngineEvent::CatchUp`] — a peer's snapshot ask or snapshot was
//!   delivered (see [Maintenance](#maintenance)).
//!
//! Time is the harness's too: it calls [`ReplicaEngine::fire_due`] at
//! or after [`ReplicaEngine::next_deadline`] to fire every deadline that
//! is due. It receives [`EngineEffect`]s back:
//!
//! * [`EngineEffect::SendTo`] — transport this message to that node.
//! * [`EngineEffect::ReplyTo`] — answer this client with the
//!   state-machine output of its applied command.
//! * [`EngineEffect::Committed`] — a slot was decided locally (already
//!   applied by the engine; emitted for the harness's agreement oracle,
//!   [`crate::oracle::Agreement`], and its metrics).
//!
//! Everything stateful in between — arm/fire ordering of deadlines,
//! in-order application with at-most-once execution (the [`Applier`]
//! refuses an instance re-decided with another command), deferred
//! replies waiting for a log gap to fill, and the §7.5 relaxed-read fast
//! path — happens inside the engine, behind the single `Action` dispatch
//! in the workspace.
//!
//! # Timers
//!
//! The engine keeps three fixed deadlines, one absolute time each:
//!
//! * **tick** — the protocol's one timer, armed by
//!   [`Action::SetTick`] and fired into [`Protocol::on_tick`];
//! * **maintenance** — the engine's [Maintenance](#maintenance) round;
//! * **flush** — the open batch's [`BatchConfig::max_delay`] deadline
//!   (see [Batching](#batching)).
//!
//! A protocol arms only its tick; the other two belong to the engine,
//! and no protocol can reach them. Re-arming a deadline replaces it (a
//! size flush disarms the flush deadline), and
//! [`ReplicaEngine::next_deadline`] is the earliest armed one, so a
//! harness that sleeps until it (the simulator plans every wake-up this
//! way) can stall neither a tick nor a partly filled batch. A deadline
//! fires at most once per arm: firing disarms it before its handler
//! runs, so a handler that re-arms it starts a fresh deadline. Deadlines
//! due together fire in the order listed above.
//!
//! # Replies
//!
//! A reply leaves after its command applies: the engine holds
//! [`EngineEffect::ReplyTo`] until the command's state-machine output
//! exists, so no client ever sees a commit acknowledgement without its
//! read value, and every harness answers by this one rule. A command
//! decided above a log gap is answered once the gap fills. A request
//! whose client has already applied a later one is answered at once
//! without a value: the session table keeps only the latest output, so
//! waiting would be forever.
//!
//! # Relaxed reads
//!
//! [`EngineEvent::ReadRelaxed`] is the §7.5 fast path, decided here and
//! nowhere else. The engine does one of three things with it:
//!
//! * **Serve.** The key is readable now ([`ReplicaEngine::local_read`]:
//!   the protocol allows it, e.g. 2PC outside its lock window, and no
//!   prepared transaction locks the key), so the answer is an ordinary
//!   [`EngineEffect::ReplyTo`] carrying the value, with `instance` the
//!   applied watermark it reflects. No agreement traffic.
//! * **Park.** The protocol serves reads locally but not this key right
//!   now: the read waits inside the engine and is answered at the end
//!   of the first handler that makes the key readable. One parked read
//!   per client; a newer read replaces an older one.
//! * **Degrade.** The protocol orders every read (the Paxos family):
//!   the read is submitted as an [`Op::Get`] like any other command.
//!
//! Harnesses only carry the event in and the reply out; none of them
//! polls.
//!
//! # Batching
//!
//! Per-message tx/rx CPU cost — not propagation — is the throughput
//! bottleneck inside a machine (§3). [`BatchConfig`] turns on the
//! engine-side cure: client requests accumulate in the engine and travel
//! through **one** agreement as an [`Op::Batch`] command. A batch opens on
//! the first enqueued request, flushes when it reaches the flush depth
//! or when [`BatchConfig::max_delay`] has passed (the flush deadline of
//! [Timers](#timers)). A flushed singleton is submitted as a plain
//! command, so `max_delay` is the only cost batching can add to an idle
//! system.
//!
//! The flush depth itself comes in two flavours. [`BatchConfig::Fixed`]
//! is a static knob — always flush at `max_commands`. But the optimal
//! depth tracks offered load (the `exp_batching` sweep: 16 is best at 24
//! closed-loop clients while 32 already loses throughput and adds
//! latency), so a static knob is wrong at every load but one.
//! [`BatchConfig::Adaptive`] instead lets the engine **learn** the depth:
//! a flush-time controller ([`AdaptiveBatch`]) walks the depth up while
//! demand keeps batches full, snaps it back to the observed fill when
//! load drops, refuses to grow while the commit backlog is past its
//! knee, and decays to depth 1 when idle — so a latency-sensitive
//! trickle never waits out `max_delay`. The controller samples only at
//! batch-open and flush time from counters the engine already maintains
//! ([`EngineStats`]): zero allocation, no timers of its own, depth always
//! within `[1, max_commands]`.
//!
//! Batches are advocated under the engine's [`NodeId::batch_source`]
//! identity. When a batch this engine advocated commits, the engine fans
//! it back out into per-client [`EngineEffect::ReplyTo`]s (in payload
//! order, each once its output is applied); the protocol-level reply for the
//! batch identity itself is swallowed. Duplicate requests coalesced into
//! the same batch are submitted once, and the [`Applier`] deduplicates
//! across batches.
//!
//! # Maintenance
//!
//! Keeping a long-running replica bounded and caught up is a protocol
//! decision like any other, so it lives here and not in the harnesses.
//! Every harness deploys its engines through
//! [`ShardedEngine::deploy`](crate::shard::ShardedEngine::deploy), which
//! switches maintenance on; [`EngineEvent::Start`] then arms the
//! maintenance deadline (see [Timers](#timers)), so
//! [`ReplicaEngine::next_deadline`] / [`ReplicaEngine::fire_due`]
//! carry it into every harness with no clock of its own. Each firing,
//! [`MAINT_PERIOD`] apart:
//!
//! * **Truncate.** A leader with `truncate_every` or more commands
//!   applied above its log base submits an [`Op::Truncate`] at its
//!   applied watermark to itself, as [`MAINT_CLIENT`] with
//!   `req_id = watermark` — monotone for the applier's session dedup
//!   across leader changes and restarts, idempotent when re-proposed.
//!   The reply to that identity is swallowed like a batch source's.
//! * **Catch up.** An apply gap ([`EngineStats::gap_backlog`]) that
//!   outlives [`GAP_PATIENCE`] cannot be assumed replay-fillable — the
//!   missing prefix may be truncated on every peer — so the engine asks
//!   one peer for a snapshot. The patience re-arms with every ask and
//!   the donor cursor rotates (staggered by node id + shard), so a lost
//!   ask, a lost snapshot or a donor with nothing newer costs one window.
//! * **Boot probe.** `Start` itself sends one ask (`have = 0`), so a
//!   restarted replica rejoins warm without waiting for traffic; on a
//!   fresh cluster every donor refuses it.
//! * **Stale peer.** The applier's log base is the one truncation floor:
//!   a peer message whose [`Protocol::instance_of`] lies below it is
//!   dropped before the protocol sees it — that slot is decided, applied
//!   and snapshotted, so promising, accepting or counting a vote there
//!   could re-decide it. The sender is evidently behind, so the engine
//!   sends it this replica's snapshot unasked, at most once per peer per
//!   [`GAP_PATIENCE`]. This part needs no timer and runs whether or not
//!   maintenance is enabled; it only ever fires once a floor exists.
//!
//! Catch-up is a peer message, [`CatchUp`], that only engines send,
//! answer and install: an [`Ask`](CatchUp::Ask) (gap and boot probe) or
//! a [`Snapshot`](CatchUp::Snapshot) (the answer to an ask, or the
//! unasked serve of a stale peer). A peer's message arrives as
//! [`EngineEvent::CatchUp`]. The engine answers an ask only with a
//! snapshot strictly newer than the asker's `have`, and installs a
//! snapshot only if it is strictly ahead of what it applied, so a late,
//! duplicated or crossing message changes nothing. What the engine sends
//! waits as ready-to-send `(to, message)` pairs in one outgoing queue,
//! [`ReplicaEngine::take_catch_up`]; a snapshot carries the state
//! machine's type, which [`EngineEffect`] does not, so it leaves there
//! and not in the effect stream. A harness drains the queue after every
//! step and carries each message to its peer like any other; it decides
//! nothing about catch-up, and whether maintenance runs is not its
//! choice either: the runtime, the simulator and `TestNet` all run it.
//! A bare [`ReplicaEngine::new`] runs without it, for unit tests that
//! pin one engine's deadlines and effect stream.
//!
//! # Example
//!
//! ```
//! use onepaxos::engine::{EngineEffect, EngineEvent, ReplicaEngine};
//! use onepaxos::kv::KvStore;
//! use onepaxos::twopc::TwoPcNode;
//! use onepaxos::{ClusterConfig, NodeId, Op};
//!
//! // A single-node 2PC group decides immediately: drive one request
//! // through the engine and observe the effect stream.
//! let cfg = ClusterConfig::new(vec![NodeId(0)], NodeId(0));
//! let mut engine = ReplicaEngine::new(TwoPcNode::new(cfg), KvStore::new());
//! let mut effects = Vec::new();
//! engine.handle(EngineEvent::Start, 0, &mut effects);
//! engine.handle(
//!     EngineEvent::ClientRequest { client: NodeId(9), req_id: 1, op: Op::Put { key: 1, value: 7 } },
//!     0,
//!     &mut effects,
//! );
//! assert!(effects.iter().any(|e| matches!(e, EngineEffect::Committed { .. })));
//! assert_eq!(engine.state().get(1), Some(7));
//! ```

use std::collections::{BTreeMap, VecDeque};

use crate::hash::WordSet;
use crate::outbox::{Action, Outbox};
use crate::protocol::Protocol;
use crate::rsm::{Applier, ApplierSnapshot, StateMachine};
use crate::types::{BatchPayload, Command, Instance, Nanos, NodeId, Op};

/// Interval between maintenance rounds (see the
/// [module docs](self#maintenance)): coarse, so truncation and catch-up
/// stay background work next to the message-driven hot path.
pub const MAINT_PERIOD: Nanos = 5_000_000;

/// How long an apply gap must persist before the engine treats it as
/// unfillable by replay and requests a snapshot. Transient reorder gaps
/// close well inside this window; it also paces re-requests while a
/// transfer is in flight.
pub const GAP_PATIENCE: Nanos = 15_000_000;

/// The client identity under which engines propose agreed truncations:
/// the last id below the batch-source namespace, owned by no process.
/// One identity per group (not per node) keeps `req_id = watermark`
/// monotone across leader changes.
pub const MAINT_CLIENT: NodeId = NodeId(NodeId::BATCH_SOURCE_BASE - 1);

/// Command-batching policy (off by default; see the
/// [module docs](self#batching)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchConfig {
    /// Always flush at `max_commands` — the static knob, right at exactly
    /// one offered load.
    Fixed {
        /// Flush as soon as this many commands are waiting.
        max_commands: usize,
        /// Flush when the oldest waiting command is this old, even if the
        /// batch is not full — bounds the latency batching can add.
        max_delay: Nanos,
    },
    /// Track offered load and drive the flush depth with a hill-climb
    /// controller bounded by `[1, max_commands]`.
    Adaptive(AdaptiveBatch),
}

impl BatchConfig {
    /// Creates a [fixed](Self::Fixed) config flushing at `max_commands`
    /// or after `max_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `max_commands` is zero.
    pub fn new(max_commands: usize, max_delay: Nanos) -> Self {
        assert!(max_commands >= 1, "a batch holds at least one command");
        BatchConfig::Fixed {
            max_commands,
            max_delay,
        }
    }

    /// Creates an [adaptive](Self::Adaptive) config (convenience mirror
    /// of `BatchConfig::Adaptive(cfg)`).
    pub fn adaptive(cfg: AdaptiveBatch) -> Self {
        BatchConfig::Adaptive(cfg)
    }

    /// The flush deadline shared by both policies.
    pub fn max_delay(&self) -> Nanos {
        match *self {
            BatchConfig::Fixed { max_delay, .. } => max_delay,
            BatchConfig::Adaptive(a) => a.max_delay,
        }
    }

    /// The depth ceiling: the fixed flush depth, or the adaptive
    /// controller's upper bound.
    pub fn max_commands(&self) -> usize {
        match *self {
            BatchConfig::Fixed { max_commands, .. } => max_commands,
            BatchConfig::Adaptive(a) => a.max_commands,
        }
    }
}

impl Default for BatchConfig {
    /// Fixed 8 commands or 20 µs, whichever comes first — a batch deep
    /// enough to amortise the §3 per-message cost, a delay well under
    /// typical client patience.
    fn default() -> Self {
        BatchConfig::new(8, 20_000)
    }
}

/// Knobs of the adaptive batch-depth controller
/// ([`BatchConfig::Adaptive`]).
///
/// The controller owns one number — the current flush depth, always in
/// `[1, max_commands]` — and adjusts it from two zero-cost signals
/// sampled where the engine already does work:
///
/// * **Grow** (additive, +1): a flush was size-triggered *and* the next
///   request arrived within `max_delay` of it — demand exceeded the
///   depth inside one flush window. Each such signal raises the depth,
///   unless the commit backlog (batches advocated but not yet
///   committed) has reached the knee of 4 batches.
/// * **Shrink** (snap to demand): consecutive deadline flushes at half
///   the depth or less drop the depth to the largest fill observed since
///   the last shrink — so a transient remainder flush behind a full one
///   never shrinks, while a real load drop converges in a couple of
///   windows. A commit backlog at twice the knee (8) halves the depth
///   outright.
/// * **Goodput veto** (the hill-climb half): arrival rate and mean fill
///   are measured per window of 32 flush deadlines. A window that ran
///   deeper than its predecessor yet shipped ≥5% less is proof the
///   climb's marginal throughput was negative — the depth reverts to
///   the measured-better one; a window dominated by deadline flushes
///   that coalesced fewer than two commands on average paid deadline
///   waits for no message savings at all, and drops straight to
///   depth 1. Either way growth freezes for 48 goodput windows
///   (≈31 ms at the default deadline). This is what stops a fast closed loop
///   (whose replies echo requests back within one flush window at *any*
///   depth) from talking the controller into batching a load too light
///   to profit from it.
/// * **Idle decay**: a request arriving after `16 × max_delay` of
///   silence resets the depth to 1, so a trickle flushes every command
///   immediately instead of waiting out `max_delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveBatch {
    /// Upper bound on the flush depth (the controller starts at 1).
    pub max_commands: usize,
    /// Flush deadline, as in the fixed policy.
    pub max_delay: Nanos,
}

impl AdaptiveBatch {
    /// Creates a controller config bounded by `max_commands` with flush
    /// deadline `max_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `max_commands` is zero.
    pub fn new(max_commands: usize, max_delay: Nanos) -> Self {
        assert!(max_commands >= 1, "a batch holds at least one command");
        AdaptiveBatch {
            max_commands,
            max_delay,
        }
    }

    /// Idle gap after which the depth decays back to 1.
    fn idle_after(&self) -> Nanos {
        IDLE_WINDOWS * self.max_delay.max(1)
    }
}

impl Default for AdaptiveBatch {
    /// Depth in `[1, 32]` with the default 20 µs deadline: the span the
    /// static sweep found load-dependent (16 best at 24 clients, 32
    /// already overshooting).
    fn default() -> Self {
        AdaptiveBatch::new(32, 20_000)
    }
}

/// The deployment knobs shared by every harness — the one config struct
/// `TestNet::builder`, `SimBuilder` and the runtime `ClusterBuilder` all
/// accept, so a deployment shape written for one harness moves to
/// another unchanged.
///
/// # Examples
///
/// ```
/// use onepaxos::{BatchConfig, EngineConfig};
///
/// let cfg = EngineConfig::new()
///     .shards(4)
///     .batching(BatchConfig::new(8, 20_000));
/// assert_eq!(cfg.shards, 4);
/// assert!(cfg.batching.is_some());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Independent consensus groups per node, with key-hash routing
    /// between them (see [`crate::shard`]). Must be at least 1.
    pub shards: u16,
    /// Engine-level command batching, `None` for off (see
    /// [`BatchConfig`]).
    pub batching: Option<BatchConfig>,
    /// Periodic agreed truncation threshold, `None` for never (see the
    /// [module docs](self#maintenance)).
    pub truncate_every: Option<u64>,
}

impl EngineConfig {
    /// The default deployment: one consensus group, batching off,
    /// nothing ever truncated.
    pub fn new() -> Self {
        EngineConfig {
            shards: 1,
            batching: None,
            truncate_every: None,
        }
    }

    /// Sets the number of shard groups.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero — every deployment has at least one group.
    pub fn shards(mut self, s: u16) -> Self {
        assert!(s >= 1, "a deployment needs at least one shard group");
        self.shards = s;
        self
    }

    /// Enables engine-level command batching with `cfg`.
    pub fn batching(mut self, cfg: BatchConfig) -> Self {
        self.batching = Some(cfg);
        self
    }

    /// Enables **adaptive** batching (shorthand for
    /// `batching(BatchConfig::Adaptive(cfg))`).
    pub fn adaptive_batching(mut self, cfg: AdaptiveBatch) -> Self {
        self.batching = Some(BatchConfig::Adaptive(cfg));
        self
    }

    /// Enables **periodic agreed truncation**: whenever a shard group's
    /// leader sees `every` (at least 1) or more commands applied above
    /// the group's log base, it orders an [`Op::Truncate`] at its
    /// applied watermark through the group's own log, and every replica
    /// drops its applied log, retired outputs and learner state below
    /// it at the same point in the command sequence. A replica that
    /// falls behind a truncation catches up by snapshot install.
    pub fn truncate_every(mut self, every: u64) -> Self {
        self.truncate_every = Some(every.max(1));
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new()
    }
}

/// What ended a batch's accumulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlushTrigger {
    /// The batch reached the flush depth.
    Size,
    /// The flush deadline fired first.
    Deadline,
}

/// Lightweight batching counters, maintained inline by the engine (plain
/// integer bumps, zero allocation) and sampled by the adaptive
/// controller at flush time. Snapshot via [`ReplicaEngine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted into a batch accumulator (retries coalesced
    /// into a waiting batch are not counted).
    pub enqueued: u64,
    /// Batches handed to the protocol (singletons included).
    pub flushes: u64,
    /// Commands carried by those flushes.
    pub flushed_commands: u64,
    /// Flushes triggered by reaching the flush depth.
    pub size_flushes: u64,
    /// Flushes triggered by the [`BatchConfig::max_delay`] deadline.
    pub deadline_flushes: u64,
    /// Current flush depth: the controller's depth under
    /// [`BatchConfig::Adaptive`], `max_commands` under
    /// [`BatchConfig::Fixed`], 1 with batching off.
    pub depth: usize,
    /// Adaptive depth increases.
    pub grows: u64,
    /// Adaptive depth decreases (demand snaps and backlog halvings).
    pub shrinks: u64,
    /// Adaptive resets to depth 1 after an idle gap.
    pub idle_decays: u64,
    /// Transaction prepares applied by this node's state machine
    /// (every replica applies every prepare, so for a group of `n`
    /// replicas this is `n×` the prepares decided by the group).
    pub txn_prepares: u64,
    /// Prepares parked in the lock-wait queue instead of voting no
    /// (the ordered-lock fast path absorbing a conflict).
    pub txn_lock_waits: u64,
    /// Prepares turned away with a retryable busy vote (younger than
    /// the lock holder, or the wait queue was full).
    pub txn_busy_rejects: u64,
    /// Prepares that voted a hard no (transaction already aborted).
    pub txn_vote_aborts: u64,
    /// High-water mark of the lock-wait queue depth.
    pub txn_wait_depth: usize,
    /// Decided-but-unappliable commands buffered above an apply gap
    /// (see [`Applier::gap_backlog`]). A persistently non-zero backlog
    /// means this replica is missing a prefix — after an agreed
    /// truncation it can only catch up via snapshot install.
    pub gap_backlog: usize,
    /// Retained applied-log suffix length (since the last truncation).
    pub applied_log_len: usize,
    /// Times the applier's log base advanced: agreed truncations
    /// applied plus snapshot installs (installing implies truncating
    /// below the watermark).
    pub truncations: u64,
    /// Session-table entries ([`Applier::outputs_len`]): one per
    /// client, holding that client's latest output — so bounded by the
    /// number of clients.
    pub outputs_len: usize,
    /// The applied watermark: the first instance not yet applied,
    /// whether learned or skipped by a snapshot install.
    pub applied: Instance,
    /// Finished-transaction outcomes retained by the state machine
    /// (bounded per coordinator by [`crate::kv::FINISHED_WINDOW`]).
    pub finished_len: usize,
    /// Replies held for an output not yet applied
    /// ([`ReplicaEngine::deferred_replies`]). Drains to zero once the
    /// log has no gap.
    pub deferred_replies: usize,
    /// Snapshot asks this engine sent: boot probes and asks about a
    /// persistent apply gap.
    pub snapshot_asks: u64,
    /// Snapshots this engine sent: answers to asks and unasked serves
    /// of stale peers.
    pub snapshots_served: u64,
    /// Peer snapshots this engine installed.
    pub snapshots_installed: u64,
}

impl EngineStats {
    /// Mean commands per flush (0 when nothing has flushed).
    pub fn mean_fill(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flushed_commands as f64 / self.flushes as f64
        }
    }

    /// Folds `other` into `self`: counters add, `depth` keeps the
    /// maximum (the aggregate of independent controllers has no single
    /// depth; the max is the one that matters for latency bounds).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.enqueued += other.enqueued;
        self.flushes += other.flushes;
        self.flushed_commands += other.flushed_commands;
        self.size_flushes += other.size_flushes;
        self.deadline_flushes += other.deadline_flushes;
        self.depth = self.depth.max(other.depth);
        self.grows += other.grows;
        self.shrinks += other.shrinks;
        self.idle_decays += other.idle_decays;
        self.txn_prepares += other.txn_prepares;
        self.txn_lock_waits += other.txn_lock_waits;
        self.txn_busy_rejects += other.txn_busy_rejects;
        self.txn_vote_aborts += other.txn_vote_aborts;
        self.txn_wait_depth = self.txn_wait_depth.max(other.txn_wait_depth);
        // Shards hold disjoint logs, gap buffers and outcome tables, so
        // the aggregate sizes are the sums.
        self.gap_backlog += other.gap_backlog;
        self.applied_log_len += other.applied_log_len;
        self.truncations += other.truncations;
        self.outputs_len += other.outputs_len;
        self.applied += other.applied;
        self.finished_len += other.finished_len;
        self.deferred_replies += other.deferred_replies;
        self.snapshot_asks += other.snapshot_asks;
        self.snapshots_served += other.snapshots_served;
        self.snapshots_installed += other.snapshots_installed;
    }
}

/// Commit-backlog knee of the adaptive controller: at this many
/// in-flight batches the depth stops growing, at twice that it halves.
const BACKLOG_KNEE: usize = 4;

/// Silence, in flush windows (`max_delay` units), after which the
/// adaptive depth decays back to 1.
const IDLE_WINDOWS: u64 = 16;

/// Consecutive low-fill deadline flushes required before the depth
/// snaps down to the observed demand. Two, not one: a remainder flush
/// trailing a size-triggered flush is noise, two windows of low fill is
/// a load drop.
const SHRINK_AFTER: u32 = 2;

/// Goodput-measurement window, in flush windows (`max_delay` units):
/// long enough to average out per-batch noise, short enough that a
/// climb that hurt throughput is caught within a few windows.
const RATE_WINDOW: u64 = 32;

/// How long growth stays frozen after a climb was reverted for making
/// goodput worse, in goodput windows (each [`RATE_WINDOW`] = 32 flush
/// deadlines, so 48 × 32 × 20 µs ≈ 31 ms at the default deadline).
/// The freeze bounds the probing duty cycle: at light load the
/// controller spends a few windows rediscovering that batching does
/// not pay and then holds the proven depth for this long, keeping the
/// probe tax in the single-digit percents while a genuine load
/// increase is still noticed within tens of milliseconds.
const FREEZE_WINDOWS: u64 = 48;

/// Runtime state of the adaptive depth controller; see [`AdaptiveBatch`]
/// for the policy.
#[derive(Debug)]
struct BatchController {
    cfg: AdaptiveBatch,
    /// Current flush depth, always in `[1, cfg.max_commands]`.
    depth: usize,
    /// Consecutive low-fill deadline flushes observed.
    low_streak: u32,
    /// Largest fill since the last shrink evaluation — the demand level
    /// a shrink snaps to.
    peak_fill: usize,
    /// When the last size-triggered flush happened; consumed by the next
    /// batch-open to detect back-to-back demand.
    last_size_flush: Option<Nanos>,
    /// Last enqueue or flush, for idle detection.
    last_activity: Nanos,
    /// Start of the current goodput window.
    win_start: Nanos,
    /// `EngineStats::enqueued` at the window start, to measure the
    /// window's arrival rate as a delta.
    win_enqueued: u64,
    /// `EngineStats::flushes` at the window start.
    win_flushes: u64,
    /// `EngineStats::flushed_commands` at the window start.
    win_flushed: u64,
    /// `EngineStats::deadline_flushes` at the window start.
    win_deadline: u64,
    /// Last completed window's `(goodput, depth)` — the reference the
    /// hill-climb compares the current window against.
    anchor: Option<(f64, usize)>,
    /// Growth is suppressed until this time (set when a climb was
    /// reverted for shipping less goodput).
    frozen_until: Nanos,
}

impl BatchController {
    fn new(cfg: AdaptiveBatch) -> Self {
        BatchController {
            cfg,
            depth: 1,
            low_streak: 0,
            peak_fill: 0,
            last_size_flush: None,
            last_activity: 0,
            win_start: 0,
            win_enqueued: 0,
            win_flushes: 0,
            win_flushed: 0,
            win_deadline: 0,
            anchor: None,
            frozen_until: 0,
        }
    }

    /// Closes the goodput window if it has run its course: the
    /// hill-climb's veto. Demand signals only say "requests arrive
    /// back-to-back", which a fast closed loop produces at *any* depth —
    /// whether a deeper batch actually ships more commands per second
    /// only the measured arrival rate can tell. A window that is deeper
    /// than its predecessor and ≥5% slower means the marginal throughput
    /// of the climb was negative: revert to the anchor depth and freeze
    /// growth, so light-load deployments spend their time at the depth
    /// that measured best instead of riding the demand echo upward.
    fn roll_window(&mut self, now: Nanos, stats: &mut EngineStats) {
        let win = RATE_WINDOW * self.cfg.max_delay.max(1);
        let elapsed = now.saturating_sub(self.win_start);
        if elapsed < win {
            return;
        }
        let rate = (stats.enqueued - self.win_enqueued) as f64 / elapsed as f64;
        let flushes = stats.flushes - self.win_flushes;
        let deadline = stats.deadline_flushes - self.win_deadline;
        let clean = elapsed < 2 * win; // an idle-stretched window measures the gap, not the depth
        if clean && flushes >= 4 && deadline * 2 > flushes && self.depth > 1 {
            let mean_fill = (stats.flushed_commands - self.win_flushed) as f64 / flushes as f64;
            if mean_fill < 2.0 {
                // A window dominated by deadline flushes that coalesced
                // next to nothing: the load is too light for batching to
                // pay, and every command is waiting out a deadline for
                // no message savings. (A size-flushing engine never
                // trips this — its batches fill without waiting.) The
                // only depth that cannot wait is 1.
                self.depth = 1;
                self.frozen_until = now + FREEZE_WINDOWS * win;
                stats.shrinks += 1;
            }
        }
        if let Some((anchor_rate, anchor_depth)) = self.anchor {
            if clean && self.depth > anchor_depth && rate <= 0.95 * anchor_rate {
                self.depth = anchor_depth;
                self.frozen_until = now + FREEZE_WINDOWS * win;
                stats.shrinks += 1;
            }
        }
        self.anchor = Some((rate, self.depth));
        self.win_start = now;
        self.win_enqueued = stats.enqueued;
        self.win_flushes = stats.flushes;
        self.win_flushed = stats.flushed_commands;
        self.win_deadline = stats.deadline_flushes;
    }

    /// Samples the controller as a new batch opens: the hot-demand grow
    /// signal and the idle decay both live here.
    fn on_open(&mut self, now: Nanos, backlog: usize, stats: &mut EngineStats) {
        self.roll_window(now, stats);
        if let Some(flushed_at) = self.last_size_flush.take() {
            if now.saturating_sub(flushed_at) <= self.cfg.max_delay {
                // The previous batch filled and more demand arrived
                // within one flush window: the depth is too small.
                if backlog < BACKLOG_KNEE
                    && now >= self.frozen_until
                    && self.depth < self.cfg.max_commands
                {
                    self.depth += 1;
                    stats.grows += 1;
                }
            }
        }
        if self.depth > 1 && now.saturating_sub(self.last_activity) >= self.cfg.idle_after() {
            self.depth = 1;
            self.low_streak = 0;
            self.peak_fill = 0;
            // A fresh regime: stale goodput anchors must not veto it.
            self.anchor = None;
            self.win_start = now;
            self.win_enqueued = stats.enqueued;
            self.win_flushes = stats.flushes;
            self.win_flushed = stats.flushed_commands;
            self.win_deadline = stats.deadline_flushes;
            stats.idle_decays += 1;
        }
        self.last_activity = now;
    }

    /// Samples the controller as a batch flushes with `fill` commands.
    fn on_flush(
        &mut self,
        now: Nanos,
        fill: usize,
        trigger: FlushTrigger,
        backlog: usize,
        stats: &mut EngineStats,
    ) {
        self.roll_window(now, stats);
        self.last_activity = now;
        self.peak_fill = self.peak_fill.max(fill);
        match trigger {
            FlushTrigger::Size => {
                self.last_size_flush = Some(now);
                self.low_streak = 0;
            }
            FlushTrigger::Deadline => {
                if fill * 2 <= self.depth {
                    self.low_streak += 1;
                    if self.low_streak >= SHRINK_AFTER {
                        // Snap to the demand actually observed, not to a
                        // blind halving: any size flush since the last
                        // shrink keeps the peak at the full depth, so
                        // remainder noise cannot shrink a loaded engine.
                        let target = self.peak_fill.max(1);
                        if target < self.depth {
                            self.depth = target;
                            stats.shrinks += 1;
                        }
                        self.peak_fill = 0;
                        self.low_streak = 0;
                    }
                } else {
                    self.low_streak = 0;
                }
            }
        }
        if backlog >= 2 * BACKLOG_KNEE && self.depth > 1 {
            // Commits are falling behind the advocacy rate: the knee of
            // the latency curve. Multiplicative decrease, immediately.
            self.depth = (self.depth / 2).max(1);
            stats.shrinks += 1;
        }
    }
}

/// One input to a [`ReplicaEngine`]: something the outside world did.
///
/// `M` is the protocol's wire message type, `S` the state machine (the
/// type a [`CatchUp`] snapshot carries).
#[derive(Clone, Debug)]
pub enum EngineEvent<M, S: StateMachine> {
    /// Bootstrap the node (runs the protocol's `on_start`).
    Start,
    /// A message from peer `from` was delivered.
    Message {
        /// Sending node.
        from: NodeId,
        /// The protocol message.
        msg: M,
    },
    /// A client submitted operation `op` as `(client, req_id)`.
    ClientRequest {
        /// Originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// Operation to replicate.
        op: Op,
    },
    /// A client asked for a relaxed read (§7.5) of `key` as
    /// `(client, req_id)`: served from the local replica when possible
    /// (see the [module docs](self#relaxed-reads)).
    ReadRelaxed {
        /// Originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// Key to read.
        key: u64,
    },
    /// A catch-up message from peer `from` was delivered (see the
    /// [module docs](self#maintenance)).
    CatchUp {
        /// Sending node.
        from: NodeId,
        /// The snapshot ask or snapshot.
        msg: CatchUp<S>,
    },
}

/// One output of a [`ReplicaEngine`]: something the harness must transport.
///
/// `M` is the protocol's wire message type, `O` the state machine's output
/// type ([`StateMachine::Output`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEffect<M, O> {
    /// Deliver `msg` to node `to` (self-sends included; harnesses deliver
    /// them without transmission cost, §2.3 footnote 5).
    SendTo {
        /// Destination node.
        to: NodeId,
        /// Protocol message.
        msg: M,
    },
    /// Answer `client`: `(client, req_id)` committed in `instance` and
    /// is applied. `value` is its state-machine output, `None` only when
    /// the client had already superseded the request (its output is
    /// gone). A relaxed read served locally answers the same way, with
    /// the value read and the applied watermark as `instance`.
    ReplyTo {
        /// Client to notify.
        client: NodeId,
        /// The client's request id.
        req_id: u64,
        /// Slot in which the command committed.
        instance: Instance,
        /// State-machine output; `None` for a superseded request.
        value: Option<O>,
    },
    /// Slot `instance` was decided locally with `cmd`. The engine has
    /// already applied it; harnesses feed it to their agreement oracle
    /// ([`crate::oracle::Agreement`]) and their commit metrics.
    Committed {
        /// Decided slot.
        instance: Instance,
        /// Decided command.
        cmd: Command,
    },
}

/// Where an engine writes its effects: a harness's plain vector, or a
/// [`ShardedEngine`](crate::ShardedEngine)'s sink that tags each effect
/// with its shard as it is made, so nothing is copied to be tagged.
pub(crate) trait EffectSink<M, O> {
    /// Appends one effect.
    fn push(&mut self, effect: EngineEffect<M, O>);
}

impl<M, O> EffectSink<M, O> for Vec<EngineEffect<M, O>> {
    fn push(&mut self, effect: EngineEffect<M, O>) {
        Vec::push(self, effect);
    }
}

/// The one reply rule, kept as a name only: a reply leaves after its
/// command applies (see the [module docs](self#replies)). It remains
/// because the repository benchmark (`benchmark/src/pipeline.rs`) still
/// passes it to `ReplicaEngine::with_reply_mode`; the next change to
/// the benchmark drops that call, this type and the method.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplyMode {
    /// Hold the reply until the command's output has been applied.
    #[default]
    AfterApply,
}

/// A catch-up message between two members of one group (see the
/// [module docs](self#maintenance)). Engines send it through
/// [`ReplicaEngine::take_catch_up`] and take it as
/// [`EngineEvent::CatchUp`]; harnesses only carry it.
#[derive(Clone, Debug)]
pub enum CatchUp<S: StateMachine> {
    /// The sender is behind and asks for a snapshot past `have`, the
    /// first instance it has not applied.
    Ask {
        /// The asker's applied watermark.
        have: Instance,
    },
    /// The sender's applied state: the answer to an ask, or served
    /// unasked to a peer whose message reached below the sender's floor.
    Snapshot(Box<ApplierSnapshot<S>>),
}

/// Per-group state of the background maintenance policy; see the
/// [module docs](self#maintenance).
#[derive(Debug)]
struct Maintenance {
    /// The snapshot donor pool: every group member but this node.
    peers: Vec<NodeId>,
    /// Truncation threshold; `None` watches gaps only.
    truncate_every: Option<u64>,
    /// When the current apply gap was first seen or last asked about
    /// (`None` while there is none).
    gap_since: Option<Nanos>,
    /// Rotating donor cursor, so retries and concurrent catch-ups spread
    /// over the group.
    donor_rr: usize,
}

/// One of the engine's three deadlines (see the
/// [module docs](self#timers)), declared in the order they fire when due
/// together.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// The protocol's tick.
    Tick,
    /// The next maintenance round.
    Maintenance,
    /// The open batch's flush deadline.
    Flush,
}

impl Slot {
    const ALL: [Slot; 3] = [Slot::Tick, Slot::Maintenance, Slot::Flush];
}

/// One protocol node plus all of its deployment plumbing; see the
/// [module docs](self) for the Event/Effect contract.
#[derive(Debug)]
pub struct ReplicaEngine<P: Protocol, S: StateMachine> {
    node: P,
    applier: Applier<S>,
    /// Absolute deadline per [`Slot`], indexed by `slot as usize`;
    /// `None` while disarmed.
    deadlines: [Option<Nanos>; 3],
    /// Replies waiting for the state machine to catch up.
    deferred: Vec<(NodeId, u64, Instance)>,
    /// Relaxed reads waiting for their key to become readable, as
    /// `(client, req_id, key)`; at most one per client.
    parked_reads: Vec<(NodeId, u64, u64)>,
    /// Command-batching knobs; `None` = every request is its own
    /// agreement.
    batch: Option<BatchConfig>,
    /// The adaptive depth controller; `Some` iff `batch` is
    /// [`BatchConfig::Adaptive`].
    ctl: Option<BatchController>,
    /// Requests waiting for the current batch to flush; drained, not
    /// taken, at flush, so it keeps its capacity.
    batch_buf: Vec<Command>,
    /// Identities of the requests in `batch_buf`, for O(1) retry dedup
    /// (cleared, not dropped, at flush — zero-alloc in steady state).
    batch_keys: WordSet<(NodeId, u64)>,
    /// Batching counters (see [`EngineStats`]); plain integer bumps on
    /// the hot path.
    stats: EngineStats,
    /// Sequence number of the next batch this engine advocates.
    batch_seq: u64,
    /// Batches advocated but not yet committed-and-fanned-out, so a
    /// re-decided batch cannot fan its replies out twice.
    inflight_batches: WordSet<u64>,
    /// Background maintenance; `None` until
    /// [`Self::enable_maintenance`] switches it on (as
    /// [`ShardedEngine::deploy`](crate::shard::ShardedEngine::deploy)
    /// does).
    maint: Option<Maintenance>,
    /// Catch-up messages waiting for the harness to send them
    /// ([`Self::take_catch_up`]), as `(to, message)`.
    catch_up: VecDeque<(NodeId, CatchUp<S>)>,
    /// When each stale peer was last served a snapshot.
    served: BTreeMap<NodeId, Nanos>,
    /// The consensus group this engine belongs to in a sharded
    /// deployment, if any; it offsets the snapshot donor rotation so the
    /// groups of one node spread their asks.
    shard: Option<crate::shard::ShardId>,
    /// Reusable action buffer handed to protocol handlers.
    outbox: Outbox<P::Msg>,
    /// Scratch vector [`Self::absorb`] swaps the outbox's actions into,
    /// so draining a handler's actions allocates nothing in steady state.
    action_scratch: Vec<Action<P::Msg>>,
}

impl<P: Protocol, S: StateMachine> ReplicaEngine<P, S> {
    /// Wraps `node` and a fresh `state` replica.
    pub fn new(node: P, state: S) -> Self {
        ReplicaEngine {
            node,
            applier: Applier::new(state),
            deadlines: [None; 3],
            deferred: Vec::new(),
            parked_reads: Vec::new(),
            batch: None,
            ctl: None,
            batch_buf: Vec::new(),
            batch_keys: WordSet::default(),
            stats: EngineStats::default(),
            batch_seq: 0,
            inflight_batches: WordSet::default(),
            maint: None,
            catch_up: VecDeque::new(),
            served: BTreeMap::new(),
            shard: None,
            outbox: Outbox::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Labels this engine with the shard (consensus group) it serves in a
    /// sharded deployment (see [`crate::shard::ShardedEngine`]).
    pub fn with_shard(mut self, shard: crate::shard::ShardId) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The shard label, if this engine is part of a sharded deployment.
    pub fn shard(&self) -> Option<crate::shard::ShardId> {
        self.shard
    }

    /// Enables command batching with `cfg` (see the
    /// [module docs](self#batching)).
    pub fn with_batching(mut self, cfg: BatchConfig) -> Self {
        self.set_batching(Some(cfg));
        self
    }

    /// Enables (`Some`) or disables (`None`) command batching. Call only
    /// while no batch is accumulating (e.g. before the first request):
    /// disabling with requests buffered would strand them. Switching to
    /// an adaptive config starts its controller fresh at depth 1.
    ///
    /// # Panics
    ///
    /// Panics if requests are currently buffered.
    pub fn set_batching(&mut self, cfg: Option<BatchConfig>) {
        assert!(
            self.batch_buf.is_empty(),
            "cannot reconfigure batching with {} requests buffered",
            self.batch_buf.len()
        );
        self.batch = cfg;
        self.ctl = match cfg {
            Some(BatchConfig::Adaptive(a)) => Some(BatchController::new(a)),
            _ => None,
        };
    }

    /// The active batching config, if batching is on.
    pub fn batching(&self) -> Option<BatchConfig> {
        self.batch
    }

    /// Number of requests waiting in the open batch.
    pub fn pending_batch(&self) -> usize {
        self.batch_buf.len()
    }

    /// A snapshot of the batching counters, including the current flush
    /// depth and the applied state machine's transaction counters (see
    /// [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.depth = self.flush_depth();
        let t = self.applier.state().txn_stats();
        s.txn_prepares = t.prepares;
        s.txn_lock_waits = t.lock_waits;
        s.txn_busy_rejects = t.busy_rejects;
        s.txn_vote_aborts = t.vote_aborts;
        s.txn_wait_depth = t.wait_depth;
        s.finished_len = t.finished_len;
        s.gap_backlog = self.applier.gap_backlog();
        s.applied_log_len = self.applier.applied_log().len();
        s.outputs_len = self.applier.outputs_len();
        s.applied = self.applied_next();
        s.deferred_replies = self.deferred.len();
        s
    }

    /// The number of buffered commands that triggers a size flush right
    /// now: the controller's learned depth under an adaptive config, the
    /// static `max_commands` otherwise (1 with batching off).
    fn flush_depth(&self) -> usize {
        match (&self.ctl, &self.batch) {
            (Some(ctl), _) => ctl.depth,
            (None, Some(cfg)) => cfg.max_commands(),
            (None, None) => 1,
        }
    }

    /// Moves the batch sequence into incarnation `incarnation`'s epoch
    /// (2³² batch ids each).
    ///
    /// Batch identities are `(batch_source, seq)` and the protocols
    /// deduplicate decided identities — so an engine **rebuilt** in place
    /// (a restarted replica, the paper's silently rebooted node) must not
    /// recycle its predecessor's ids, or surviving peers would drop its
    /// batches as already decided and the batched clients would never be
    /// answered. [`ShardedEngine::deploy`](crate::ShardedEngine::deploy)
    /// calls this with the slot's incarnation.
    pub(crate) fn enter_batch_epoch(&mut self, incarnation: u64) {
        self.batch_seq = self.batch_seq.max(incarnation << 32);
    }

    /// Does nothing: the engine keeps no commit or reply history to
    /// switch. It remains only because the repository benchmark
    /// (`benchmark/src/pipeline.rs`) still calls `.with_history(false)`;
    /// the next change to the benchmark drops that call and this method.
    #[doc(hidden)]
    pub fn with_history(self, _record: bool) -> Self {
        self
    }

    /// [`Self::new`]: there is one reply rule, so the mode is ignored.
    /// It remains only because the repository benchmark still calls it;
    /// the next change to the benchmark drops that call and this method.
    #[doc(hidden)]
    pub fn with_reply_mode(node: P, state: S, _reply_mode: ReplyMode) -> Self {
        Self::new(node, state)
    }

    /// Feeds one event to the node at time `now`, appending the resulting
    /// effects to `effects`.
    pub fn handle(
        &mut self,
        event: EngineEvent<P::Msg, S>,
        now: Nanos,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) {
        self.handle_into(event, now, effects);
    }

    /// [`Self::handle`] into any [`EffectSink`].
    pub(crate) fn handle_into(
        &mut self,
        event: EngineEvent<P::Msg, S>,
        now: Nanos,
        effects: &mut impl EffectSink<P::Msg, S::Output>,
    ) {
        match event {
            EngineEvent::Start => {
                self.node.on_start(now, &mut self.outbox);
                self.absorb(now, effects);
                if self.maint.is_some() {
                    // Boot probe: a (re)joining replica asks a peer for a
                    // snapshot outright, so it rejoins warm even when no
                    // client traffic is flowing.
                    self.request_snapshot();
                    self.deadlines[Slot::Maintenance as usize] = Some(now + MAINT_PERIOD);
                }
            }
            EngineEvent::Message { from, msg } => match self.node.instance_of(&msg) {
                Some(inst) if inst < self.applier.log_base() => self.serve_stale(from, now),
                _ => {
                    self.node.on_message(from, msg, now, &mut self.outbox);
                    self.absorb(now, effects);
                }
            },
            EngineEvent::ClientRequest { client, req_id, op } => {
                self.submit(client, req_id, op, now, effects);
            }
            EngineEvent::ReadRelaxed {
                client,
                req_id,
                key,
            } => {
                if let Some(value) = self.local_read(key) {
                    effects.push(EngineEffect::ReplyTo {
                        client,
                        req_id,
                        instance: self.applied_next(),
                        value: Some(value),
                    });
                } else if self.node.supports_local_reads() {
                    // Inside a lock window: wait it out. Clients are
                    // synchronous, so a newer read supersedes an older
                    // one, which bounds the backlog by the client count
                    // even if a window never closes.
                    self.parked_reads.retain(|&(c, ..)| c != client);
                    self.parked_reads.push((client, req_id, key));
                } else {
                    // Ordered-reads protocol: a linearized read through
                    // the log, like any other command.
                    self.submit(client, req_id, Op::Get { key }, now, effects);
                }
            }
            EngineEvent::CatchUp { from, msg } => match msg {
                // Only a strictly newer snapshot is an answer: a stale
                // ask or a boot probe against an empty group goes
                // unanswered instead of bouncing state the asker has.
                CatchUp::Ask { have } => {
                    if self.applied_next() > have {
                        self.queue_snapshot(from);
                    }
                }
                CatchUp::Snapshot(snap) => self.install_snapshot(*snap),
            },
        }
    }

    /// Takes one client request: into the batch accumulator when
    /// batching is on, else straight to the protocol.
    fn submit(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        effects: &mut impl EffectSink<P::Msg, S::Output>,
    ) {
        // Pre-built batches bypass the accumulator (never nest).
        if self.batch.is_some() && !matches!(op, Op::Batch(_)) {
            self.enqueue_batched(client, req_id, op, now, effects);
        } else {
            self.node
                .on_client_request(client, req_id, op, now, &mut self.outbox);
            self.absorb(now, effects);
        }
    }

    /// Fires every armed deadline at or before `now` — tick, then
    /// maintenance, then flush — and returns how many fired.
    ///
    /// The due set is computed before any handler runs, so a handler
    /// re-arming its own deadline (the periodic-tick pattern) cannot make
    /// it fire twice in one call — but each deadline is re-checked just
    /// before it fires, so an earlier handler that disarms or pushes out
    /// a later due one (a maintenance truncate that size-flushes the open
    /// batch) takes effect within the same pass.
    pub fn fire_due(
        &mut self,
        now: Nanos,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) -> usize {
        self.fire_due_into(now, effects)
    }

    /// [`Self::fire_due`] into any [`EffectSink`].
    pub(crate) fn fire_due_into(
        &mut self,
        now: Nanos,
        effects: &mut impl EffectSink<P::Msg, S::Output>,
    ) -> usize {
        let is_due = |at: Option<Nanos>| at.is_some_and(|at| at <= now);
        let due = self.deadlines.map(is_due);
        let mut fired = 0;
        for (slot, was_due) in Slot::ALL.into_iter().zip(due) {
            let armed = &mut self.deadlines[slot as usize];
            // Skips one an earlier handler disarmed or pushed out.
            if !was_due || !is_due(*armed) {
                continue;
            }
            *armed = None;
            match slot {
                Slot::Tick => {
                    self.node.on_tick(now, &mut self.outbox);
                    self.absorb(now, effects);
                }
                Slot::Maintenance => self.maintain(now, effects),
                Slot::Flush => self.flush_batch(FlushTrigger::Deadline, now, effects),
            }
            fired += 1;
        }
        fired
    }

    // ----------------------------------------------------------------
    // Maintenance (see the module docs).
    // ----------------------------------------------------------------

    /// Switches background maintenance on for this group: gap watching
    /// and the boot probe always, leader-driven agreed truncation when
    /// `truncate_every` is set. `members` is the group's membership;
    /// everyone but this node is a snapshot donor. Call before
    /// [`EngineEvent::Start`], which arms the maintenance deadline.
    pub(crate) fn enable_maintenance(&mut self, members: &[NodeId], truncate_every: Option<u64>) {
        let me = self.node.node_id();
        self.maint = Some(Maintenance {
            peers: members.iter().copied().filter(|&p| p != me).collect(),
            truncate_every,
            gap_since: None,
            donor_rr: me.index() + self.shard.map_or(0, |s| s.index()),
        });
    }

    /// The first instance this replica has not applied yet.
    fn applied_next(&self) -> Instance {
        self.applier.applied_up_to().map_or(0, |i| i + 1)
    }

    /// Queues a snapshot ask to the next donor in rotation (none in a
    /// single-member group).
    fn request_snapshot(&mut self) {
        let have = self.applied_next();
        let m = self.maint.as_mut().expect("maintenance enabled");
        if !m.peers.is_empty() {
            let donor = m.peers[m.donor_rr % m.peers.len()];
            self.catch_up.push_back((donor, CatchUp::Ask { have }));
            self.stats.snapshot_asks += 1;
            m.donor_rr += 1;
        }
    }

    /// `peer`'s message reached below the floor and was dropped: queue
    /// this replica's snapshot for it, unless it was served within the
    /// last [`GAP_PATIENCE`].
    fn serve_stale(&mut self, peer: NodeId, now: Nanos) {
        let due = |&at: &Nanos| now.saturating_sub(at) >= GAP_PATIENCE;
        if self.served.get(&peer).is_none_or(due) {
            self.served.insert(peer, now);
            self.queue_snapshot(peer);
        }
    }

    /// Queues this replica's snapshot for `peer`.
    fn queue_snapshot(&mut self, peer: NodeId) {
        let snap = Box::new(self.applier.snapshot());
        self.catch_up.push_back((peer, CatchUp::Snapshot(snap)));
        self.stats.snapshots_served += 1;
    }

    /// One maintenance round: re-arm, watch the apply gap, and — as
    /// leader — propose the next agreed truncation.
    fn maintain(&mut self, now: Nanos, effects: &mut impl EffectSink<P::Msg, S::Output>) {
        self.deadlines[Slot::Maintenance as usize] = Some(now + MAINT_PERIOD);
        let m = self.maint.as_mut().expect("armed only when enabled");
        let truncate_every = m.truncate_every;
        if self.applier.gap_backlog() == 0 {
            m.gap_since = None;
        } else if now - *m.gap_since.get_or_insert(now) >= GAP_PATIENCE {
            m.gap_since = Some(now);
            self.request_snapshot();
        }
        let next = self.applied_next();
        if truncate_every.is_some_and(|every| next - self.applier.log_base() >= every)
            && self.node.is_leader()
        {
            let op = Op::Truncate { watermark: next };
            self.submit(MAINT_CLIENT, next, op, now, effects);
        }
    }

    /// Takes the oldest catch-up message waiting to be sent, as
    /// `(to, message)`: the harness delivers it to `to`'s engine as an
    /// [`EngineEvent::CatchUp`] from this node.
    pub fn take_catch_up(&mut self) -> Option<(NodeId, CatchUp<S>)> {
        self.catch_up.pop_front()
    }

    // ----------------------------------------------------------------
    // Batching (see the module docs).
    // ----------------------------------------------------------------

    /// Adds one request to the open batch, opening it (and arming the
    /// flush deadline) if necessary, and flushing when the depth is
    /// reached.
    fn enqueue_batched(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        effects: &mut impl EffectSink<P::Msg, S::Output>,
    ) {
        let cfg = self.batch.expect("checked by the caller");
        // O(1) retry dedup: a linear scan of `batch_buf` here would make
        // accumulation O(n²) at exactly the depths the adaptive
        // controller reaches. The set mirrors `batch_buf`'s identities
        // and is cleared (capacity kept) at every flush.
        if !self.batch_keys.insert((client, req_id)) {
            return; // a retry of a request already waiting in this batch
        }
        if self.batch_buf.is_empty() {
            if let Some(ctl) = &mut self.ctl {
                ctl.on_open(now, self.inflight_batches.len(), &mut self.stats);
            }
            self.deadlines[Slot::Flush as usize] = Some(now + cfg.max_delay());
        }
        self.stats.enqueued += 1;
        self.batch_buf.push(Command::new(client, req_id, op));
        if self.batch_buf.len() >= self.flush_depth() {
            self.flush_batch(FlushTrigger::Size, now, effects);
        }
    }

    /// Hands the accumulated batch to the protocol as one agreement (or
    /// as a plain command, if only one request is waiting) and disarms
    /// the flush deadline.
    fn flush_batch(
        &mut self,
        trigger: FlushTrigger,
        now: Nanos,
        effects: &mut impl EffectSink<P::Msg, S::Output>,
    ) {
        self.deadlines[Slot::Flush as usize] = None;
        self.batch_keys.clear();
        if self.batch_buf.is_empty() {
            return;
        }
        self.stats.flushes += 1;
        self.stats.flushed_commands += self.batch_buf.len() as u64;
        match trigger {
            FlushTrigger::Size => self.stats.size_flushes += 1,
            FlushTrigger::Deadline => self.stats.deadline_flushes += 1,
        }
        if let Some(ctl) = &mut self.ctl {
            ctl.on_flush(
                now,
                self.batch_buf.len(),
                trigger,
                self.inflight_batches.len(),
                &mut self.stats,
            );
        }
        if self.batch_buf.len() == 1 {
            // A singleton batch is indistinguishable from an unbatched
            // command: no synthetic identity, no fan-out bookkeeping.
            let c = self.batch_buf.pop().expect("len checked");
            self.node
                .on_client_request(c.client, c.req_id, c.op, now, &mut self.outbox);
        } else {
            self.batch_seq += 1;
            self.inflight_batches.insert(self.batch_seq);
            // The payload is built straight from the drain: one
            // allocation, and the accumulator keeps its capacity.
            let payload: BatchPayload = self.batch_buf.drain(..).collect();
            self.node.on_client_request(
                self.node.node_id().batch_source(),
                self.batch_seq,
                Op::Batch(payload),
                now,
                &mut self.outbox,
            );
        }
        self.absorb(now, effects);
    }

    /// The single `Action` dispatch of the workspace: drains the node's
    /// outbox into engine state and harness-facing effects.
    ///
    /// The drain swaps the outbox's backing vector with a persistent
    /// scratch vector instead of allocating a fresh one per handler
    /// invocation — both buffers keep their capacity, so the hottest
    /// loop in the workspace settles at zero allocations.
    fn absorb(&mut self, now: Nanos, effects: &mut impl EffectSink<P::Msg, S::Output>) {
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.outbox.take_into(&mut actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => effects.push(EngineEffect::SendTo { to, msg }),
                Action::Reply {
                    client,
                    req_id,
                    instance,
                } => self.reply(client, req_id, instance, effects),
                Action::Commit { instance, cmd } => {
                    // The applier rejects an instance re-decided here
                    // with a different command; agreement across nodes
                    // is the harness oracle's to check.
                    let base_before = self.applier.log_base();
                    self.applier.on_decided(instance, cmd.clone());
                    if self.applier.log_base() > base_before {
                        // An agreed Op::Truncate (possibly inside a
                        // batch) applied.
                        self.floor_rose();
                    }
                    // A committed batch that *this* engine advocated fans
                    // back out into per-client replies, exactly once (a
                    // re-decided batch finds its inflight entry gone).
                    let fan_out = match &cmd.op {
                        Op::Batch(inner)
                            if cmd.client == self.node.node_id().batch_source()
                                && self.inflight_batches.remove(&cmd.req_id) =>
                        {
                            Some(inner.clone())
                        }
                        _ => None,
                    };
                    effects.push(EngineEffect::Committed { instance, cmd });
                    self.flush_deferred(effects);
                    for c in fan_out.as_deref().unwrap_or_default() {
                        self.reply(c.client, c.req_id, instance, effects);
                    }
                }
                Action::SetTick { after } => {
                    self.deadlines[Slot::Tick as usize] = Some(now + after);
                }
            }
        }
        self.action_scratch = actions;
        if !self.parked_reads.is_empty() {
            self.answer_parked_reads(effects);
        }
    }

    /// Answers every parked relaxed read whose key the handler just
    /// absorbed made readable.
    fn answer_parked_reads(&mut self, effects: &mut impl EffectSink<P::Msg, S::Output>) {
        let mut parked = std::mem::take(&mut self.parked_reads);
        parked.retain(|&(client, req_id, key)| {
            let Some(value) = self.local_read(key) else {
                return true;
            };
            effects.push(EngineEffect::ReplyTo {
                client,
                req_id,
                instance: self.applied_next(),
                value: Some(value),
            });
            false
        });
        self.parked_reads = parked;
    }

    fn reply(
        &mut self,
        client: NodeId,
        req_id: u64,
        instance: Instance,
        effects: &mut impl EffectSink<P::Msg, S::Output>,
    ) {
        if client.is_batch_source() || client == MAINT_CLIENT {
            // The protocol acknowledging a batch to its synthetic
            // advocate (possibly another engine's): per-client replies
            // are fanned out at commit time by the advocating engine, so
            // this must never reach a real wire. Nobody waits for a
            // maintenance-proposed truncation either.
            return;
        }
        let value = self.applier.output_of(client, req_id).cloned();
        // Only a client's latest output is kept, so a request its client
        // has already superseded never gets one: it is answered bare
        // rather than deferred forever.
        if value.is_none() && !self.applier.applied_past(client, req_id) {
            self.deferred.push((client, req_id, instance));
            return;
        }
        effects.push(EngineEffect::ReplyTo {
            client,
            req_id,
            instance,
            value,
        });
    }

    /// Retries deferred replies after new commands were applied. Each is
    /// re-run through [`Self::reply`], which emits it when the output now
    /// exists and re-defers it otherwise.
    fn flush_deferred(&mut self, effects: &mut impl EffectSink<P::Msg, S::Output>) {
        if self.deferred.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.deferred);
        for (client, req_id, instance) in pending {
            self.reply(client, req_id, instance, effects);
        }
    }

    /// The earliest armed deadline — tick, maintenance or batch flush —
    /// if any (for harness wake-up planning; see the
    /// [module docs](self#timers)).
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.deadlines.iter().flatten().copied().min()
    }

    // ----------------------------------------------------------------
    // Snapshot install (see `Applier::snapshot`).
    // ----------------------------------------------------------------

    /// Installs a peer's snapshot, fast-forwarding the applier *and* the
    /// protocol past its watermark in one step; changes nothing if the
    /// snapshot is at or below what this replica already applied.
    fn install_snapshot(&mut self, snap: ApplierSnapshot<S>) {
        let watermark = snap.watermark;
        if !self.applier.install_snapshot(snap) {
            return;
        }
        self.stats.snapshots_installed += 1;
        self.floor_rose();
        if let Some(m) = &mut self.maint {
            m.gap_since = None; // whatever gap remains starts a fresh window
        }
        // Drop replies parked for instances the snapshot covers: their
        // clients re-send, and the retry is answered from the installed
        // session table (at-most-once) instead of re-applying.
        self.deferred.retain(|&(_, _, inst)| inst >= watermark);
    }

    /// The applier's log base — the one truncation floor — just rose:
    /// the protocol drops everything below it. The only caller of
    /// [`Protocol::truncate`], so each call passes a strictly larger
    /// floor.
    fn floor_rose(&mut self) {
        let floor = self.applier.log_base();
        self.node.truncate(floor);
        self.stats.truncations += 1;
    }

    // ----------------------------------------------------------------
    // Local reads (§7.5).
    // ----------------------------------------------------------------

    /// Reads `key` from the local replica, without any agreement
    /// traffic, if it is readable *right now*: the protocol must allow
    /// it (e.g. 2PC outside its lock window) **and** the state machine
    /// must not hold a transactional lock on the key
    /// ([`StateMachine::blocks_local_read`] — a prepared cross-shard
    /// fragment keeps its keys unreadable until the outcome). The gate
    /// [`EngineEvent::ReadRelaxed`] serves through, exposed as a test
    /// oracle.
    pub fn local_read(&self, key: u64) -> Option<S::Output> {
        let state = self.applier.state();
        (self.node.can_read_locally(key) && !state.blocks_local_read(key))
            .then(|| state.read_local(key))
    }

    // ----------------------------------------------------------------
    // Accessors.
    // ----------------------------------------------------------------

    /// The wrapped protocol node.
    pub fn node(&self) -> &P {
        &self.node
    }

    /// Mutable access to the node (white-box assertions in tests).
    pub fn node_mut(&mut self) -> &mut P {
        &mut self.node
    }

    /// The replicated-state-machine applier.
    pub fn applier(&self) -> &Applier<S> {
        &self.applier
    }

    /// The applied state machine.
    pub fn state(&self) -> &S {
        self.applier.state()
    }

    /// Replies currently waiting for the state machine to catch up.
    pub fn deferred_replies(&self) -> usize {
        self.deferred.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvStore;

    /// A scripted protocol: handlers replay queued actions, so tests can
    /// exercise engine semantics without a real consensus protocol.
    struct Scripted {
        me: NodeId,
        /// Actions to emit on the next handler invocation.
        script: Vec<Action<u8>>,
        /// When each tick fired.
        ticks: Vec<Nanos>,
        /// The op of every client request the engine handed over.
        requests: Vec<Op>,
        readable: bool,
    }

    impl Scripted {
        fn new() -> Self {
            Scripted {
                me: NodeId(0),
                script: Vec::new(),
                ticks: Vec::new(),
                requests: Vec::new(),
                readable: false,
            }
        }
    }

    impl Protocol for Scripted {
        type Msg = u8;

        fn node_id(&self) -> NodeId {
            self.me
        }

        fn on_start(&mut self, _now: Nanos, out: &mut Outbox<u8>) {
            for a in self.script.drain(..) {
                out.push(a);
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: u8, _now: Nanos, out: &mut Outbox<u8>) {
            for a in self.script.drain(..) {
                out.push(a);
            }
        }

        fn on_tick(&mut self, now: Nanos, out: &mut Outbox<u8>) {
            self.ticks.push(now);
            for a in self.script.drain(..) {
                out.push(a);
            }
        }

        fn on_client_request(
            &mut self,
            _client: NodeId,
            _req_id: u64,
            op: Op,
            _now: Nanos,
            out: &mut Outbox<u8>,
        ) {
            self.requests.push(op);
            for a in self.script.drain(..) {
                out.push(a);
            }
        }

        fn is_leader(&self) -> bool {
            true
        }

        fn supports_local_reads(&self) -> bool {
            true
        }

        fn can_read_locally(&self, _key: u64) -> bool {
            self.readable
        }
    }

    type E = ReplicaEngine<Scripted, KvStore>;
    type Fx = Vec<EngineEffect<u8, Option<u64>>>;

    fn engine() -> E {
        ReplicaEngine::new(Scripted::new(), KvStore::new())
    }

    fn drive(e: &mut E, actions: Vec<Action<u8>>, now: Nanos) -> Fx {
        e.node_mut().script = actions;
        let mut fx = Vec::new();
        e.handle(
            EngineEvent::Message {
                from: NodeId(1),
                msg: 0,
            },
            now,
            &mut fx,
        );
        fx
    }

    fn tick_after(after: Nanos) -> Action<u8> {
        Action::SetTick { after }
    }

    #[test]
    fn rearm_replaces_the_deadline() {
        let mut e = engine();
        drive(&mut e, vec![tick_after(100)], 0);
        assert_eq!(e.deadlines[Slot::Tick as usize], Some(100));
        // Re-arm at a later deadline: the old one must not fire.
        drive(&mut e, vec![tick_after(500)], 50);
        assert_eq!(e.deadlines[Slot::Tick as usize], Some(550));
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(100, &mut fx), 0, "superseded deadline fired");
        assert_eq!(e.fire_due(550, &mut fx), 1);
        assert_eq!(e.node().ticks, vec![550]);
    }

    #[test]
    fn fired_timer_is_disarmed_and_rearm_in_handler_is_fresh() {
        let mut e = engine();
        drive(&mut e, vec![tick_after(100)], 0);
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(99, &mut fx), 0, "fired before its deadline");
        // The handler re-arms the tick; it must not re-fire in the same
        // fire_due pass.
        e.node_mut().script = vec![tick_after(100)];
        assert_eq!(e.fire_due(1_000, &mut fx), 1);
        assert_eq!(e.deadlines[Slot::Tick as usize], Some(1_100));
        // One-shot semantics: without a re-arm nothing is left.
        assert_eq!(e.fire_due(1_100, &mut fx), 1);
        assert_eq!(e.fire_due(10_000, &mut fx), 0);
        assert_eq!(e.node().ticks, vec![1_000, 1_100]);
        assert_eq!(e.next_deadline(), None);
    }

    #[test]
    fn timer_due_ignores_stale_and_unarmed_deadlines() {
        let mut e = engine();
        drive(&mut e, vec![tick_after(100)], 0);
        let mut fx = Vec::new();
        // Not yet due.
        assert_eq!(e.fire_due(99, &mut fx), 0);
        assert!(e.node().ticks.is_empty());
        // Due.
        assert_eq!(e.fire_due(100, &mut fx), 1);
        assert_eq!(e.node().ticks, vec![100]);
        // Already fired: a later pass finds nothing armed.
        assert_eq!(e.fire_due(200, &mut fx), 0);
        assert_eq!(e.node().ticks, vec![100]);
    }

    /// A single-member engine whose batches of `depth` flush after
    /// [`MAINT_PERIOD`] and whose maintenance truncates after every
    /// applied command, started at 0 with `on_start` emitting `start`.
    fn maintained(depth: usize, start: Vec<Action<u8>>) -> E {
        let mut e = engine().with_batching(BatchConfig::new(depth, MAINT_PERIOD));
        e.enable_maintenance(&[NodeId(0)], Some(1));
        e.node_mut().script = start;
        e.handle(EngineEvent::Start, 0, &mut Vec::new());
        e
    }

    /// Opens a batch at 0, so its flush falls due with maintenance.
    fn open_batch(e: &mut E) {
        let request = EngineEvent::ClientRequest {
            client: NodeId(9),
            req_id: 1,
            op: Op::Noop,
        };
        e.handle(request, 0, &mut Vec::new());
        assert_eq!(e.pending_batch(), 1);
    }

    /// The ids of the one batch the protocol was handed.
    fn only_batch(e: &E) -> Vec<(NodeId, u64)> {
        match &e.node().requests[..] {
            [Op::Batch(b)] => b.iter().map(Command::id).collect(),
            other => panic!("expected one batch, got {other:?}"),
        }
    }

    #[test]
    fn tick_maintenance_and_flush_fire_in_that_order() {
        // All three fall due at MAINT_PERIOD. The tick applies a command,
        // so maintenance proposes a truncate only if the tick ran first;
        // the truncate joins the open batch only if maintenance ran
        // before the flush.
        let mut e = maintained(8, vec![tick_after(MAINT_PERIOD)]);
        open_batch(&mut e);
        e.node_mut().script = vec![Action::Commit {
            instance: 0,
            cmd: put(7, 1, 1, 10),
        }];
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(MAINT_PERIOD, &mut fx), 3);
        assert_eq!(e.node().ticks, vec![MAINT_PERIOD]);
        assert_eq!(only_batch(&e), vec![(NodeId(9), 1), (MAINT_CLIENT, 1)]);
        assert_eq!(e.stats().deadline_flushes, 1);
    }

    #[test]
    fn a_due_flush_disarmed_by_maintenance_neither_fires_nor_counts() {
        // Maintenance's truncate fills the open batch to its depth of 2:
        // the size flush disarms the flush deadline that was due in the
        // same pass, so it is skipped and not counted.
        let mut e = maintained(2, Vec::new());
        let commit = Action::Commit {
            instance: 0,
            cmd: put(7, 1, 1, 10),
        };
        drive(&mut e, vec![commit], 0);
        open_batch(&mut e);
        let mut fx = Vec::new();
        assert_eq!(
            e.fire_due(MAINT_PERIOD, &mut fx),
            1,
            "only maintenance fires"
        );
        assert_eq!(only_batch(&e), vec![(NodeId(9), 1), (MAINT_CLIENT, 1)]);
        assert_eq!(e.stats().size_flushes, 1);
        assert_eq!(e.stats().deadline_flushes, 0);
        assert_eq!(e.next_deadline(), Some(2 * MAINT_PERIOD));
    }

    #[test]
    fn a_flush_armed_by_maintenance_waits_for_the_next_pass() {
        // With no delay, the batch maintenance's truncate opens is due at
        // once; but the due set was taken before maintenance ran.
        let mut e = engine().with_batching(BatchConfig::new(8, 0));
        e.enable_maintenance(&[NodeId(0)], Some(1));
        e.handle(EngineEvent::Start, 0, &mut Vec::new());
        let commit = Action::Commit {
            instance: 0,
            cmd: put(7, 1, 1, 10),
        };
        drive(&mut e, vec![commit], 0);
        let mut fx = Vec::new();
        // Only maintenance fires; the flush it armed waits a pass.
        assert_eq!(e.fire_due(MAINT_PERIOD, &mut fx), 1);
        assert_eq!(e.pending_batch(), 1);
        assert_eq!(e.fire_due(MAINT_PERIOD, &mut fx), 1);
        assert_eq!(e.pending_batch(), 0);
        assert_eq!(e.stats().deadline_flushes, 1);
    }

    /// Blocking is the harness's (a slow core gets no cycles, so its
    /// harness does not call `fire_due`); `TestNet` is that harness.
    #[test]
    fn blocked_engine_fires_no_timers() {
        let mut net = crate::testnet::TestNet::builder(1).build(|_, _| {
            let mut node = Scripted::new();
            node.script = vec![tick_after(10)];
            node
        });
        net.block(NodeId(0));
        net.advance(1_000);
        assert!(net.node(NodeId(0)).ticks.is_empty());
        net.unblock(NodeId(0));
        net.advance(0);
        assert_eq!(net.node(NodeId(0)).ticks, vec![1_000]);
    }

    fn put(client: u16, req: u64, key: u64, value: u64) -> Command {
        Command::new(NodeId(client), req, Op::Put { key, value })
    }

    #[test]
    fn duplicate_client_request_applies_once() {
        let mut e = engine();
        // The same (client, req) decided in two instances: the client
        // retried and two advocates won slots. Applied exactly once.
        let fx = drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 5, 50),
                },
                Action::Commit {
                    instance: 1,
                    cmd: put(9, 1, 5, 50),
                },
                Action::Commit {
                    instance: 2,
                    cmd: put(9, 2, 5, 60),
                },
            ],
            0,
        );
        assert_eq!(e.state().writes(), 2, "duplicate must not re-apply");
        assert_eq!(e.state().get(5), Some(60));
        let commits = fx
            .iter()
            .filter(|e| matches!(e, EngineEffect::Committed { .. }))
            .count();
        assert_eq!(commits, 3);
    }

    #[test]
    fn relearn_same_command_is_idempotent() {
        let mut e = engine();
        let fx = drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 1, 10),
                },
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 1, 10),
                },
            ],
            0,
        );
        // Both learns surface for oracles/metrics, but state applied once.
        let commits = fx
            .iter()
            .filter(|e| matches!(e, EngineEffect::Committed { .. }))
            .count();
        assert_eq!(commits, 2);
        assert_eq!(e.state().writes(), 1);
    }

    #[test]
    #[should_panic(
        expected = "consistency violation: instance 0 decided twice with different commands"
    )]
    fn relearn_different_command_panics() {
        let mut e = engine();
        drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 1, 10),
                },
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 2, 1, 20),
                },
            ],
            0,
        );
    }

    #[test]
    fn reply_records_are_idempotent_per_request() {
        let mut e = engine();
        let first = drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 3, 30),
                },
                Action::Reply {
                    client: NodeId(9),
                    req_id: 1,
                    instance: 0,
                },
            ],
            0,
        );
        // A duplicate request is re-answered (e.g. Mencius answering from
        // its decided-id table): same instance, same value, two identical
        // replies, no double application.
        let fx = drive(
            &mut e,
            vec![Action::Reply {
                client: NodeId(9),
                req_id: 1,
                instance: 0,
            }],
            0,
        );
        assert_eq!(first[1..], fx[..]);
        match &fx[0] {
            EngineEffect::ReplyTo {
                instance, value, ..
            } => {
                assert_eq!(*instance, 0);
                assert_eq!(*value, Some(None)); // Put output: no prior value
            }
            other => panic!("expected ReplyTo, got {other:?}"),
        }
        assert_eq!(e.state().writes(), 1);
    }

    #[test]
    fn after_apply_defers_replies_across_log_gaps() {
        let mut e = engine();
        // Instance 1 decided and replied-to before instance 0 exists: the
        // reply must wait for the gap to fill.
        let fx = drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 1,
                    cmd: put(9, 2, 7, 70),
                },
                Action::Reply {
                    client: NodeId(9),
                    req_id: 2,
                    instance: 1,
                },
            ],
            0,
        );
        assert!(
            !fx.iter().any(|e| matches!(e, EngineEffect::ReplyTo { .. })),
            "reply leaked across a log gap"
        );
        assert_eq!(e.deferred_replies(), 1);
        // Filling the gap applies both commands and releases the reply,
        // with the output attached.
        let fx = drive(
            &mut e,
            vec![Action::Commit {
                instance: 0,
                cmd: put(9, 1, 7, 60),
            }],
            0,
        );
        let reply = fx
            .iter()
            .find_map(|e| match e {
                EngineEffect::ReplyTo { req_id, value, .. } => Some((*req_id, *value)),
                _ => None,
            })
            .expect("deferred reply released");
        assert_eq!(reply, (2, Some(Some(60)))); // Put returns prior value
        assert_eq!(e.deferred_replies(), 0);
    }

    #[test]
    fn after_apply_answers_a_superseded_request_bare() {
        let mut e = engine();
        // Two requests of one client apply before either is replied to
        // (one batch, or a filled gap): only the later output is kept.
        let fx = drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 7, 60),
                },
                Action::Commit {
                    instance: 1,
                    cmd: put(9, 2, 8, 70),
                },
                Action::Reply {
                    client: NodeId(9),
                    req_id: 1,
                    instance: 0,
                },
                Action::Reply {
                    client: NodeId(9),
                    req_id: 2,
                    instance: 1,
                },
            ],
            0,
        );
        let replies: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                EngineEffect::ReplyTo { req_id, value, .. } => Some((*req_id, *value)),
                _ => None,
            })
            .collect();
        assert_eq!(replies, [(1, None), (2, Some(None))]);
        assert_eq!(e.deferred_replies(), 0, "nothing waits for a lost output");
    }

    #[test]
    fn local_read_is_gated_by_the_protocol() {
        let mut e = engine();
        drive(
            &mut e,
            vec![Action::Commit {
                instance: 0,
                cmd: put(9, 1, 2, 22),
            }],
            0,
        );
        e.node_mut().readable = false;
        assert_eq!(e.local_read(2), None, "lock window must block the read");
        e.node_mut().readable = true;
        assert_eq!(e.local_read(2), Some(Some(22)));
        assert_eq!(e.local_read(99), Some(None));
        // Reads through the fast path are not applied operations.
        assert_eq!(e.state().reads(), 0);
    }

    fn read_relaxed<P: Protocol<Msg = u8>>(
        e: &mut ReplicaEngine<P, KvStore>,
        client: u16,
        req_id: u64,
        key: u64,
    ) -> Fx {
        let mut fx = Vec::new();
        let client = NodeId(client);
        let event = EngineEvent::ReadRelaxed {
            client,
            req_id,
            key,
        };
        e.handle(event, 0, &mut fx);
        fx
    }

    fn read_reply(client: u16, req_id: u64, instance: Instance, value: Option<u64>) -> Fx {
        vec![EngineEffect::ReplyTo {
            client: NodeId(client),
            req_id,
            instance,
            value: Some(value),
        }]
    }

    #[test]
    fn relaxed_read_is_served_from_the_local_copy_when_readable() {
        let mut e = engine();
        let commit = Action::Commit {
            instance: 0,
            cmd: put(9, 1, 2, 22),
        };
        assert!(reply_ids(&drive(&mut e, vec![commit], 0)).is_empty());
        e.node_mut().readable = true;
        // An ordinary reply, stamped with the applied watermark.
        assert_eq!(read_relaxed(&mut e, 7, 1, 2), read_reply(7, 1, 1, Some(22)));
        assert_eq!(e.state().reads(), 0, "a local read is not an applied Get");
    }

    #[test]
    fn relaxed_read_parks_until_a_handler_opens_the_gate_and_a_newer_one_replaces_it() {
        let mut e = engine();
        assert!(read_relaxed(&mut e, 7, 1, 2).is_empty());
        assert!(read_relaxed(&mut e, 7, 2, 2).is_empty(), "supersedes #1");
        assert!(read_relaxed(&mut e, 8, 1, 3).is_empty());
        // A handler that leaves the window shut answers nothing.
        assert!(drive(&mut e, vec![], 0).is_empty());
        // The first handler after the window opens answers each client's
        // newest read once, with what that handler applied.
        e.node_mut().readable = true;
        let commit = Action::Commit {
            instance: 0,
            cmd: put(9, 1, 2, 22),
        };
        let fx = drive(&mut e, vec![commit], 0);
        let mut expected = read_reply(7, 2, 1, Some(22));
        expected.extend(read_reply(8, 1, 1, None));
        assert_eq!(fx[1..], expected[..]);
        assert!(drive(&mut e, vec![], 0).is_empty(), "answered twice");
    }

    #[test]
    fn relaxed_read_is_ordered_when_the_protocol_never_reads_locally() {
        let mut e = ReplicaEngine::new(Deciding::new(), KvStore::new());
        request(&mut e, 9, 1, Op::Put { key: 4, value: 40 }, 0);
        let fx = read_relaxed(&mut e, 7, 1, 4);
        assert_eq!(e.node().requests, vec![(NodeId(9), 1), (NodeId(7), 1)]);
        assert!(matches!(
            &fx[..],
            [
                EngineEffect::Committed { instance: 1, cmd },
                EngineEffect::ReplyTo { client: NodeId(7), req_id: 1, instance: 1, value: Some(Some(40)) },
            ] if cmd.op == Op::Get { key: 4 }
        ));
        assert_eq!(e.state().reads(), 1, "an applied Get");
    }

    #[test]
    fn a_decided_command_is_applied_and_answered() {
        let mut e = engine();
        let fx = drive(
            &mut e,
            vec![
                Action::Commit {
                    instance: 0,
                    cmd: put(9, 1, 3, 30),
                },
                Action::Reply {
                    client: NodeId(9),
                    req_id: 1,
                    instance: 0,
                },
            ],
            0,
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, EngineEffect::Committed { .. })));
        assert!(fx.iter().any(|e| matches!(e, EngineEffect::ReplyTo { .. })));
        assert_eq!(e.state().get(3), Some(30));
        // The applier rejects a divergent re-decide on its own.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(
                &mut e,
                vec![Action::Commit {
                    instance: 0,
                    cmd: put(9, 2, 3, 31),
                }],
                0,
            );
        }));
        assert!(result.is_err(), "divergent re-decide must still panic");
    }

    /// A protocol that instantly decides whatever it is asked to
    /// advocate: one agreement (commit + reply) per `on_client_request`.
    /// Exactly what batch-semantics tests need — the number of
    /// `on_client_request` invocations *is* the number of agreements.
    struct Deciding {
        me: NodeId,
        next: Instance,
        /// Every advocated (client, req_id) in submission order.
        requests: Vec<(NodeId, u64)>,
        /// Last decision, replayable via `on_message` (a duplicate learn).
        last: Option<(Instance, Command)>,
    }

    impl Deciding {
        fn new() -> Self {
            Deciding {
                me: NodeId(0),
                next: 0,
                requests: Vec::new(),
                last: None,
            }
        }
    }

    impl Protocol for Deciding {
        type Msg = u8;

        fn node_id(&self) -> NodeId {
            self.me
        }

        fn on_start(&mut self, _now: Nanos, _out: &mut Outbox<u8>) {}

        fn on_message(&mut self, _from: NodeId, _msg: u8, _now: Nanos, out: &mut Outbox<u8>) {
            // A duplicate learn of the last decision.
            if let Some((inst, cmd)) = self.last.clone() {
                out.commit(inst, cmd.clone());
                out.reply(cmd.client, cmd.req_id, inst);
            }
        }

        fn on_tick(&mut self, _now: Nanos, _out: &mut Outbox<u8>) {}

        fn on_client_request(
            &mut self,
            client: NodeId,
            req_id: u64,
            op: Op,
            _now: Nanos,
            out: &mut Outbox<u8>,
        ) {
            self.requests.push((client, req_id));
            let cmd = Command::new(client, req_id, op);
            let inst = self.next;
            self.next += 1;
            self.last = Some((inst, cmd.clone()));
            out.commit(inst, cmd);
            out.reply(client, req_id, inst);
        }

        fn is_leader(&self) -> bool {
            true
        }
    }

    type D = ReplicaEngine<Deciding, KvStore>;

    fn batched(cfg: BatchConfig) -> D {
        ReplicaEngine::new(Deciding::new(), KvStore::new()).with_batching(cfg)
    }

    fn request(e: &mut D, client: u16, req_id: u64, op: Op, now: Nanos) -> Fx {
        let mut fx = Vec::new();
        e.handle(
            EngineEvent::ClientRequest {
                client: NodeId(client),
                req_id,
                op,
            },
            now,
            &mut fx,
        );
        fx
    }

    fn reply_ids(fx: &Fx) -> Vec<(NodeId, u64)> {
        fx.iter()
            .filter_map(|e| match e {
                EngineEffect::ReplyTo { client, req_id, .. } => Some((*client, *req_id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn batch_flushes_on_max_size_as_one_agreement() {
        let mut e = batched(BatchConfig::new(3, 1_000_000));
        assert!(request(&mut e, 9, 1, Op::Put { key: 1, value: 10 }, 0).is_empty());
        assert!(request(&mut e, 10, 1, Op::Put { key: 2, value: 20 }, 0).is_empty());
        assert_eq!(e.pending_batch(), 2);
        let fx = request(&mut e, 11, 1, Op::Get { key: 1 }, 0);
        // One protocol-level agreement carried all three commands…
        assert_eq!(e.node().requests.len(), 1);
        assert_eq!(
            fx.iter()
                .filter(|f| matches!(f, EngineEffect::Committed { .. }))
                .count(),
            1
        );
        // …and fanned out per-client replies in submission order.
        assert_eq!(
            reply_ids(&fx),
            vec![(NodeId(9), 1), (NodeId(10), 1), (NodeId(11), 1)]
        );
        assert_eq!(e.pending_batch(), 0);
        assert_eq!(e.state().get(1), Some(10));
        assert_eq!(e.state().get(2), Some(20));
        // The Get inside the batch saw the preceding Put.
        match &fx[3] {
            EngineEffect::ReplyTo { value, .. } => assert_eq!(*value, Some(Some(10))),
            other => panic!("expected the Get's reply, got {other:?}"),
        }
    }

    #[test]
    fn batch_flushes_on_deadline_via_the_timer_table() {
        let mut e = batched(BatchConfig::new(100, 500));
        request(&mut e, 9, 1, Op::Noop, 0);
        request(&mut e, 10, 1, Op::Noop, 10);
        // The flush deadline is a real timer: next_deadline covers it, so
        // sleep-until-next-deadline harnesses cannot stall the batch.
        assert_eq!(e.next_deadline(), Some(500));
        assert_eq!(e.deadlines[Slot::Flush as usize], Some(500));
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(499, &mut fx), 0);
        assert!(fx.is_empty());
        assert_eq!(e.fire_due(500, &mut fx), 1);
        assert_eq!(reply_ids(&fx), vec![(NodeId(9), 1), (NodeId(10), 1)]);
        assert_eq!(e.node().requests.len(), 1);
        assert_eq!(e.next_deadline(), None, "flush disarms the deadline");
    }

    #[test]
    fn singleton_batch_is_submitted_as_an_unbatched_command() {
        let mut e = batched(BatchConfig::new(8, 500));
        let mut fx = request(&mut e, 9, 1, Op::Put { key: 7, value: 70 }, 0);
        e.fire_due(500, &mut fx);
        // The protocol saw the client's own identity, not a batch source.
        assert_eq!(e.node().requests, vec![(NodeId(9), 1)]);
        match &fx[0] {
            EngineEffect::Committed { cmd, .. } => {
                assert_eq!(cmd.as_batch(), None);
                assert_eq!(cmd.id(), (NodeId(9), 1));
            }
            other => panic!("expected Committed, got {other:?}"),
        }
        assert_eq!(reply_ids(&fx), vec![(NodeId(9), 1)]);
        assert_eq!(e.state().get(7), Some(70));
    }

    #[test]
    fn duplicate_request_inside_a_batch_is_submitted_once() {
        let mut e = batched(BatchConfig::new(100, 500));
        request(&mut e, 9, 1, Op::Put { key: 1, value: 1 }, 0);
        request(&mut e, 9, 1, Op::Put { key: 1, value: 1 }, 5); // client retry
        request(&mut e, 10, 1, Op::Noop, 10);
        assert_eq!(e.pending_batch(), 2, "retry coalesced away");
        let mut fx = Vec::new();
        e.fire_due(500, &mut fx);
        assert_eq!(reply_ids(&fx), vec![(NodeId(9), 1), (NodeId(10), 1)]);
        assert_eq!(e.state().writes(), 1);
    }

    #[test]
    fn redecided_batch_does_not_fan_replies_out_twice() {
        let mut e = batched(BatchConfig::new(2, 1_000));
        assert!(request(&mut e, 9, 1, Op::Noop, 0).is_empty());
        let fx = request(&mut e, 10, 1, Op::Noop, 0);
        assert_eq!(reply_ids(&fx).len(), 2);
        // A duplicate learn of the same batch decision arrives.
        let mut fx = Vec::new();
        e.handle(
            EngineEvent::Message {
                from: NodeId(1),
                msg: 0,
            },
            0,
            &mut fx,
        );
        assert!(
            fx.iter()
                .any(|f| matches!(f, EngineEffect::Committed { .. })),
            "the duplicate learn still surfaces for oracles"
        );
        assert!(reply_ids(&fx).is_empty(), "no duplicate client replies");
    }

    #[test]
    fn batched_equals_unbatched_state_and_replies() {
        // The same request stream through a batched and an unbatched
        // engine must land in identical state with identical reply sets.
        let ops = [
            (9u16, 1u64, Op::Put { key: 1, value: 10 }),
            (10, 1, Op::Put { key: 2, value: 20 }),
            (9, 2, Op::Get { key: 2 }),
            (11, 1, Op::Put { key: 1, value: 30 }),
            (10, 2, Op::Get { key: 1 }),
        ];
        let mut plain = ReplicaEngine::new(Deciding::new(), KvStore::new());
        let mut batch = batched(BatchConfig::new(2, 1_000));
        let (mut plain_fx, mut batch_fx) = (Vec::new(), Vec::new());
        for (c, r, op) in ops.iter().cloned() {
            plain_fx.extend(request(&mut plain, c, r, op.clone(), 0));
            batch_fx.extend(request(&mut batch, c, r, op, 0));
        }
        batch.fire_due(1_000, &mut batch_fx); // flush the odd tail
        assert_eq!(plain.state().digest(), batch.state().digest());
        assert_eq!(reply_ids(&plain_fx), reply_ids(&batch_fx));
        // Batching needed fewer agreements for the same work.
        assert_eq!(plain.node().requests.len(), 5);
        assert_eq!(batch.node().requests.len(), 3);
    }

    #[test]
    fn blocked_engine_holds_the_batch_until_unblocked() {
        let mut net = crate::testnet::TestNet::builder(1)
            .batching(BatchConfig::new(100, 500))
            .build(|_, _| Deciding::new());
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.block(NodeId(0));
        net.advance(10_000);
        assert!(net.replies().is_empty(), "slow core gets no cycles");
        assert_eq!(net.engine(NodeId(0)).pending_batch(), 1);
        net.unblock(NodeId(0));
        net.advance(0);
        assert_eq!(net.engine(NodeId(0)).pending_batch(), 0);
        assert_eq!(net.replies().len(), 1);
    }

    // ----------------------------------------------------------------
    // Adaptive batch depth (the controller; see AdaptiveBatch).
    // ----------------------------------------------------------------

    fn adaptive_cfg(cap: usize, delay: Nanos) -> AdaptiveBatch {
        AdaptiveBatch::new(cap, delay)
    }

    fn adaptive(cap: usize, delay: Nanos) -> D {
        ReplicaEngine::new(Deciding::new(), KvStore::new())
            .with_batching(BatchConfig::adaptive(adaptive_cfg(cap, delay)))
    }

    #[test]
    fn adaptive_starts_at_one_and_a_trickle_never_waits_out_the_deadline() {
        let mut e = adaptive(32, 1_000);
        assert_eq!(e.stats().depth, 1);
        // Requests spaced beyond the flush window: each one flushes
        // immediately as a singleton — zero added latency, no timer wait.
        for i in 0..5u64 {
            let now = i * 10_000;
            let fx = request(&mut e, 9, i + 1, Op::Noop, now);
            assert_eq!(reply_ids(&fx), vec![(NodeId(9), i + 1)], "request {i}");
            assert_eq!(e.stats().depth, 1, "trickle must not grow the depth");
        }
        assert_eq!(e.stats().grows, 0);
        assert_eq!(e.stats().size_flushes, 5);
    }

    #[test]
    fn adaptive_grows_under_back_to_back_demand_and_respects_the_cap() {
        let mut e = adaptive(8, 1_000);
        // A flood of concurrent requests: every size flush is followed by
        // another arrival within the window, so the depth climbs — but
        // never past the cap.
        let mut fx = Vec::new();
        for i in 0..200u64 {
            fx.extend(request(&mut e, (i % 100) as u16, i / 100 + 1, Op::Noop, 0));
            let d = e.stats().depth;
            assert!((1..=8).contains(&d), "depth {d} escaped [1, 8]");
        }
        assert_eq!(e.stats().depth, 8, "sustained demand must reach the cap");
        assert!(e.stats().grows >= 7);
        // Flush the tail so nothing is stranded.
        e.fire_due(1_000, &mut fx);
        assert_eq!(reply_ids(&fx).len(), 200);
    }

    #[test]
    fn adaptive_converges_to_the_offered_burst_size() {
        // Constant offered load: bursts of 5 per flush window, rounds
        // spaced wider than the window but inside the idle threshold.
        let cfg = adaptive_cfg(16, 1_000);
        let mut e = adaptive(16, 1_000);
        assert!(5 * 1_000 < cfg.idle_after(), "spacing must not look idle");
        let mut depths = Vec::new();
        for round in 0..20u64 {
            let t = round * 5_000;
            for c in 0..5u16 {
                request(&mut e, 10 + c, round + 1, Op::Noop, t);
            }
            let mut fx = Vec::new();
            e.fire_due(t + 1_000, &mut fx);
            depths.push(e.stats().depth);
        }
        // Fixed point: the depth settles at exactly the burst size and
        // stays there (one agreement per burst, no deadline waits).
        assert_eq!(&depths[15..], &[5, 5, 5, 5, 5], "depths: {depths:?}");
    }

    #[test]
    fn adaptive_snaps_down_when_load_drops() {
        let mut e = adaptive(32, 1_000);
        // Phase 1: saturate to grow the depth.
        for i in 0..60u64 {
            request(&mut e, (i % 60) as u16, 1, Op::Noop, 0);
        }
        let mut fx = Vec::new();
        e.fire_due(1_000, &mut fx);
        let grown = e.stats().depth;
        assert!(grown > 4, "saturation should have grown the depth: {grown}");
        // Phase 2: a thin trickle of deadline flushes. The first shrink
        // evaluation snaps to the (stale, high) peak; the following ones
        // see only the trickle and collapse the depth.
        for round in 1..=6u64 {
            let t = round * 10_000;
            request(&mut e, 99, round, Op::Noop, t);
            e.fire_due(t + 1_000, &mut fx);
        }
        let shrunk = e.stats().depth;
        assert!(shrunk <= 2, "load drop must shrink the depth: {shrunk}");
        assert!(e.stats().shrinks >= 1);
    }

    #[test]
    fn adaptive_idle_decay_resets_to_depth_one() {
        let cfg = adaptive_cfg(32, 1_000);
        let mut e = adaptive(32, 1_000);
        for i in 0..60u64 {
            request(&mut e, (i % 60) as u16, 1, Op::Noop, 0);
        }
        let mut fx = Vec::new();
        e.fire_due(1_000, &mut fx);
        assert!(e.stats().depth > 1);
        // A long silence, then one request: it must flush immediately at
        // depth 1 instead of waiting out the deadline at the old depth.
        let later = 1_000 + cfg.idle_after();
        let fx = request(&mut e, 77, 1, Op::Noop, later);
        assert_eq!(reply_ids(&fx), vec![(NodeId(77), 1)]);
        assert_eq!(e.stats().depth, 1);
        assert_eq!(e.stats().idle_decays, 1);
    }

    #[test]
    fn adaptive_backlog_knee_stops_growth() {
        // Scripted never commits, so every multi-command batch stays in
        // flight: the controller must stop growing once BACKLOG_KNEE
        // batches are outstanding (and halve at twice that), keeping the
        // depth pinned low no matter how hot the demand looks.
        let mut e = ReplicaEngine::new(Scripted::new(), KvStore::new())
            .with_batching(BatchConfig::adaptive(adaptive_cfg(32, 1_000)));
        let mut fx = Vec::new();
        let mut depths = Vec::new();
        for i in 0..100u64 {
            e.handle(
                EngineEvent::ClientRequest {
                    client: NodeId((i % 100) as u16),
                    req_id: 1,
                    op: Op::Noop,
                },
                0,
                &mut fx,
            );
            depths.push(e.stats().depth);
        }
        // Growth stops with the knee's worth of batches in flight...
        let peak = depths.iter().copied().max().unwrap();
        assert!(
            peak <= BACKLOG_KNEE + 1,
            "backlog past the knee must cap growth: {depths:?}"
        );
        // ...and twice the knee halves the depth down to 1.
        assert_eq!(depths.last(), Some(&1), "depths: {depths:?}");
    }

    #[test]
    fn adaptive_batched_equals_unbatched_state_and_replies() {
        let ops = [
            (9u16, 1u64, Op::Put { key: 1, value: 10 }),
            (10, 1, Op::Put { key: 2, value: 20 }),
            (9, 2, Op::Get { key: 2 }),
            (11, 1, Op::Put { key: 1, value: 30 }),
            (10, 2, Op::Get { key: 1 }),
        ];
        let mut plain = ReplicaEngine::new(Deciding::new(), KvStore::new());
        let mut adapt = adaptive(8, 1_000);
        let (mut plain_fx, mut adapt_fx) = (Vec::new(), Vec::new());
        for (c, r, op) in ops.iter().cloned() {
            plain_fx.extend(request(&mut plain, c, r, op.clone(), 0));
            adapt_fx.extend(request(&mut adapt, c, r, op, 0));
        }
        adapt.fire_due(1_000, &mut adapt_fx); // flush any tail
        assert_eq!(plain.state().digest(), adapt.state().digest());
        assert_eq!(reply_ids(&plain_fx), reply_ids(&adapt_fx));
    }

    #[test]
    fn retry_after_flush_is_resubmitted_and_applied_once() {
        // The dedup set is cleared at flush: a retry arriving *after* its
        // batch flushed is advocated again (the protocol may decide it in
        // a second slot), and the applier still executes it exactly once.
        let mut e = batched(BatchConfig::new(2, 1_000));
        request(&mut e, 9, 1, Op::Put { key: 1, value: 1 }, 0);
        request(&mut e, 10, 1, Op::Noop, 0); // flushes the pair
        request(&mut e, 9, 1, Op::Put { key: 1, value: 1 }, 5); // late retry
        request(&mut e, 11, 1, Op::Noop, 5); // flushes the retry pair
        assert_eq!(e.node().requests.len(), 2, "two agreements");
        assert_eq!(e.state().writes(), 1, "retried put applied once");
    }

    #[test]
    fn stats_track_flush_shapes() {
        let mut e = batched(BatchConfig::new(3, 500));
        for c in 0..3u16 {
            request(&mut e, 9 + c, 1, Op::Noop, 0);
        }
        request(&mut e, 20, 1, Op::Noop, 10);
        let mut fx = Vec::new();
        e.fire_due(510, &mut fx);
        let s = e.stats();
        assert_eq!(s.enqueued, 4);
        assert_eq!(s.flushes, 2);
        assert_eq!(s.flushed_commands, 4);
        assert_eq!(s.size_flushes, 1);
        assert_eq!(s.deadline_flushes, 1);
        assert_eq!(s.depth, 3, "fixed config reports its static depth");
        assert_eq!(s.mean_fill(), 2.0);
        // Unbatched engines report depth 1 and no flush activity.
        let plain = ReplicaEngine::new(Deciding::new(), KvStore::new());
        assert_eq!(plain.stats().depth, 1);
        assert_eq!(plain.stats().flushes, 0);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_timer() {
        let mut e = engine().with_batching(BatchConfig::new(8, 100));
        assert_eq!(e.next_deadline(), None);
        drive(&mut e, vec![tick_after(300)], 0);
        assert_eq!(e.next_deadline(), Some(300));
        open_batch(&mut e);
        assert_eq!(e.next_deadline(), Some(100));
        let mut fx = Vec::new();
        e.fire_due(100, &mut fx);
        assert_eq!(e.next_deadline(), Some(300));
    }
}
