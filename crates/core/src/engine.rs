//! The shared replica-engine layer: everything a deployment needs around a
//! sans-IO [`Protocol`] node, in exactly one place.
//!
//! Before this module existed, each harness — [`TestNet`](crate::testnet),
//! the `manycore-sim` cluster and the `onepaxos-runtime` node loop —
//! hand-rolled its own copy of [`Action`] dispatch, timer bookkeeping,
//! commit tracking and reply recording. The paper's portability claim
//! (protocol state machines "can be easily ported to a network system with
//! no change", §6.2) holds for the *protocols*; the engine extends it to
//! the *plumbing*, so a harness is only a transport.
//!
//! # The Event/Effect contract
//!
//! A [`ReplicaEngine`] owns one protocol node plus its timer table, its
//! commit log, the replicated-state-machine [`Applier`] and the per-client
//! reply records. The harness feeds it [`EngineEvent`]s:
//!
//! * [`EngineEvent::Start`] — bootstrap; run once before anything else.
//! * [`EngineEvent::Message`] — a peer message was delivered.
//! * [`EngineEvent::ClientRequest`] — a client submitted a command.
//! * [`EngineEvent::ReadRelaxed`] — a client asked for a relaxed read.
//! * [`EngineEvent::TimerDue`] — a *specific* timer's deadline passed.
//! * [`EngineEvent::Tick`] — fire every timer whose deadline passed.
//!
//! and receives [`EngineEffect`]s back:
//!
//! * [`EngineEffect::SendTo`] — transport this message to that node.
//! * [`EngineEffect::ReplyTo`] — notify this client of its commit (with
//!   the state-machine output when it is already applied).
//! * [`EngineEffect::Committed`] — a slot was decided locally (already
//!   recorded and applied by the engine; emitted for oracles and metrics).
//!
//! Everything stateful in between — arm/cancel/fire ordering of timers,
//! in-order application with at-most-once execution, commit-log
//! consistency checking, deferred replies waiting for a log gap to fill,
//! and the §7.5 relaxed-read fast path — happens inside the engine, behind
//! the single `Action` dispatch in the workspace.
//!
//! # Timers
//!
//! The engine keeps absolute deadlines per [`Timer`]. Re-arming a timer
//! replaces its deadline; cancelling removes it; [`Self::next_deadline`]
//! lets schedulers (the simulator) plan wake-ups. A timer fires at most
//! once per arm: firing disarms it before the handler runs, so a handler
//! re-arming the same timer starts a fresh deadline.
//!
//! # Replies
//!
//! [`ReplyMode::Immediate`] emits [`EngineEffect::ReplyTo`] the moment the
//! protocol requests it (the output is attached when already applied) —
//! the semantics tests and the simulator want. [`ReplyMode::AfterApply`]
//! holds the reply until the command's state-machine output exists, so a
//! real client never observes a commit acknowledgement without its read
//! value — the threaded runtime's contract.
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
//! or when [`BatchConfig::max_delay`] has passed (via the ordinary timer
//! table, under the reserved [`BATCH_FLUSH`] timer — so
//! [`Self::next_deadline`] automatically covers a partially filled batch
//! and sleep-until-deadline harnesses cannot stall it). A flushed
//! singleton is submitted as a plain command, so `max_delay` is the only
//! cost batching can add to an idle system.
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
//! order, honouring the [`ReplyMode`]); the protocol-level reply for the
//! batch identity itself is swallowed. Duplicate requests coalesced into
//! the same batch are submitted once, and the [`Applier`] deduplicates
//! across batches.
//!
//! # Maintenance
//!
//! Keeping a long-running replica bounded and caught up is a protocol
//! decision like any other, so it lives here and not in the harnesses.
//! [`ReplicaEngine::enable_maintenance`] (before [`EngineEvent::Start`])
//! arms the reserved [`MAINTENANCE`] timer in the ordinary timer table,
//! so [`Self::next_deadline`] / [`Self::fire_due`] carry it into every
//! harness with no clock of its own. Each firing, [`MAINT_PERIOD`] apart:
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
//!   one peer for a snapshot. The patience re-arms with every request
//!   and the donor cursor rotates (staggered by node id + shard), so a
//!   lost request or a donor with nothing newer costs one window.
//! * **Boot probe.** `Start` itself issues one request (`have = 0`), so
//!   a restarted replica rejoins warm without waiting for traffic; on a
//!   fresh cluster every donor refuses it.
//! * **Stale peer.** The applier's log base is the one truncation floor:
//!   a peer message whose [`Protocol::instance_of`] lies below it is
//!   dropped before the protocol sees it — that slot is decided, applied
//!   and snapshotted, so promising, accepting or counting a vote there
//!   could re-decide it. The sender is evidently behind, so the engine
//!   serves it this replica's snapshot, at most once per peer per
//!   [`GAP_PATIENCE`]. This part needs no timer and runs whether or not
//!   maintenance is enabled; it only ever fires once a floor exists.
//!
//! Catch-up leaves through a side queue, not an [`EngineEffect`], in two
//! kinds of [`CatchUp`]: *ask a donor* (gap and boot probe) and *serve a
//! peer* (stale peer). The harness drains [`ReplicaEngine::take_catch_up`]
//! after `Start` and after firing timers or delivering messages (the
//! threaded runtime once per loop turn). It
//! carries an ask over its own transport to the donor and a serve to the
//! peer; either way the serving engine's [`ReplicaEngine::serve_snapshot`]
//! offers a snapshot (only if strictly newer than `have`) and the
//! receiver feeds it to [`ReplicaEngine::install_snapshot`], which also
//! refuses anything not strictly ahead. The threaded runtime always
//! enables maintenance; the simulator and `TestNet` only when
//! [`EngineConfig::truncate_every`] is set, so their default runs keep
//! an unchanged timer table and effect stream.
//!
//! # Fault injection
//!
//! [`Self::set_blocked`] is the uniform slow-core hook: a blocked engine
//! refuses to fire timers and tells the harness (via [`Self::is_blocked`])
//! to keep inbound messages queued.
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

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use crate::outbox::{Action, Outbox, Timer};
use crate::protocol::Protocol;
use crate::rsm::{Applier, StateMachine};
use crate::types::{Command, Instance, Nanos, NodeId, Op};

/// The engine-internal timer driving batch flushes. Reserved: protocols
/// must not arm it (they own [`Timer::Tick`] and the low `Custom` ids);
/// the engine intercepts it before protocol dispatch.
pub const BATCH_FLUSH: Timer = Timer::Custom(u8::MAX);

/// The engine-internal timer driving background maintenance (see the
/// [module docs](self#maintenance)). Reserved like [`BATCH_FLUSH`].
pub const MAINTENANCE: Timer = Timer::Custom(u8::MAX - 1);

/// Interval between [`MAINTENANCE`] firings: coarse, so truncation and
/// catch-up stay background work next to the message-driven hot path.
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

    /// Whether this config drives the depth adaptively.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, BatchConfig::Adaptive(_))
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
///   depth inside one flush window. `grow_after` consecutive such
///   signals raise the depth, unless the commit backlog (batches
///   advocated but not yet committed) has reached `backlog_knee`.
/// * **Shrink** (snap to demand): consecutive deadline flushes at half
///   the depth or less drop the depth to the largest fill observed since
///   the last shrink — so a transient remainder flush behind a full one
///   never shrinks, while a real load drop converges in a couple of
///   windows. A commit backlog at twice the knee halves the depth
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
/// * **Idle decay**: a request arriving after `idle_after` of silence
///   resets the depth to 1, so a trickle flushes every command
///   immediately instead of waiting out `max_delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveBatch {
    /// Upper bound on the flush depth (the controller starts at 1).
    pub max_commands: usize,
    /// Flush deadline, as in the fixed policy.
    pub max_delay: Nanos,
    /// Consecutive demand signals required before growing by one.
    pub grow_after: u32,
    /// Commit-backlog knee: at `backlog_knee` in-flight batches the
    /// depth stops growing, at twice that it halves.
    pub backlog_knee: usize,
    /// Idle gap after which the depth decays back to 1.
    pub idle_after: Nanos,
}

impl AdaptiveBatch {
    /// Creates a controller config bounded by `max_commands` with flush
    /// deadline `max_delay`, using the default pacing knobs (grow on
    /// every demand signal, backlog knee 4, idle decay after 16 flush
    /// windows).
    ///
    /// # Panics
    ///
    /// Panics if `max_commands` is zero.
    pub fn new(max_commands: usize, max_delay: Nanos) -> Self {
        assert!(max_commands >= 1, "a batch holds at least one command");
        AdaptiveBatch {
            max_commands,
            max_delay,
            grow_after: 1,
            backlog_knee: 4,
            idle_after: 16 * max_delay.max(1),
        }
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
    /// The [`BATCH_FLUSH`] deadline fired first.
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
    /// Flushes triggered by the [`BATCH_FLUSH`] deadline.
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
    }
}

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
    /// Consecutive grow signals observed (see [`AdaptiveBatch`]).
    full_streak: u32,
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
            full_streak: 0,
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
                self.full_streak = 0;
                stats.shrinks += 1;
            }
        }
        if let Some((anchor_rate, anchor_depth)) = self.anchor {
            if clean && self.depth > anchor_depth && rate <= 0.95 * anchor_rate {
                self.depth = anchor_depth;
                self.frozen_until = now + FREEZE_WINDOWS * win;
                self.full_streak = 0;
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
                self.full_streak += 1;
                if self.full_streak >= self.cfg.grow_after
                    && backlog < self.cfg.backlog_knee
                    && now >= self.frozen_until
                    && self.depth < self.cfg.max_commands
                {
                    self.depth += 1;
                    self.full_streak = 0;
                    stats.grows += 1;
                }
            } else {
                self.full_streak = 0;
            }
        }
        if self.depth > 1 && now.saturating_sub(self.last_activity) >= self.cfg.idle_after {
            self.depth = 1;
            self.full_streak = 0;
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
        if backlog >= 2 * self.cfg.backlog_knee && self.depth > 1 {
            // Commits are falling behind the advocacy rate: the knee of
            // the latency curve. Multiplicative decrease, immediately.
            self.depth = (self.depth / 2).max(1);
            stats.shrinks += 1;
        }
    }
}

/// One input to a [`ReplicaEngine`]: something the outside world did.
#[derive(Clone, Debug)]
pub enum EngineEvent<M> {
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
    /// The deadline of `timer` passed; fire it if it is still armed.
    TimerDue {
        /// Which timer.
        timer: Timer,
    },
    /// Fire every armed timer whose deadline is at or before `now`.
    Tick,
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
    /// Acknowledge to `client` that `(client, req_id)` committed in
    /// `instance`. `value` carries the state-machine output when the
    /// command has already been applied locally (always, under
    /// [`ReplyMode::AfterApply`]). A relaxed read served locally
    /// answers the same way, with the value read and the applied
    /// watermark as `instance`.
    ReplyTo {
        /// Client to notify.
        client: NodeId,
        /// The client's request id.
        req_id: u64,
        /// Slot in which the command committed.
        instance: Instance,
        /// State-machine output, when already applied.
        value: Option<O>,
    },
    /// Slot `instance` was decided locally with `cmd`. The engine has
    /// already recorded and applied it; harnesses use this for global
    /// consistency oracles and commit metrics.
    Committed {
        /// Decided slot.
        instance: Instance,
        /// Decided command.
        cmd: Command,
    },
}

/// When [`EngineEffect::ReplyTo`] is emitted relative to application.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplyMode {
    /// Emit the reply the moment the protocol requests it; `value` is
    /// attached opportunistically. The deterministic harnesses use this.
    #[default]
    Immediate,
    /// Hold the reply until the command's output has been applied, so the
    /// acknowledgement always carries the value. The threaded runtime
    /// uses this (a log gap must not produce a value-less reply).
    AfterApply,
}

/// A recorded client reply (who was answered, for what, from where).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyRecord {
    /// The client that was answered.
    pub client: NodeId,
    /// The request id that committed.
    pub req_id: u64,
    /// The slot it committed in (the applied watermark for a relaxed
    /// read served locally).
    pub instance: Instance,
    /// The node that produced the reply.
    pub from: NodeId,
}

/// One entry of an engine's catch-up side queue (see the
/// [module docs](self#maintenance)). Both kinds end the same way: the
/// serving engine's [`ReplicaEngine::serve_snapshot`]`(have)` is
/// installed at the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatchUp {
    /// `Ask(donor, have)`: this replica is behind; ask `donor` for a
    /// snapshot past `have`, the first instance it has not applied.
    Ask(NodeId, Instance),
    /// `Serve(peer, have)`: `peer` reached below this replica's floor
    /// with a message about instance `have`; send it this replica's
    /// snapshot.
    Serve(NodeId, Instance),
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

/// One protocol node plus all of its deployment plumbing; see the
/// [module docs](self) for the Event/Effect contract.
#[derive(Debug)]
pub struct ReplicaEngine<P: Protocol, S: StateMachine> {
    node: P,
    applier: Applier<S>,
    /// Absolute deadline per armed timer.
    timers: BTreeMap<Timer, Nanos>,
    /// Local commit log (instance → decided command); only populated
    /// while `record_history` is on.
    commits: BTreeMap<Instance, Command>,
    /// Every reply emitted by this node, in emission order; only
    /// populated while `record_history` is on.
    replies: Vec<ReplyRecord>,
    /// Replies waiting for the state machine to catch up (AfterApply).
    deferred: Vec<(NodeId, u64, Instance)>,
    /// Relaxed reads waiting for their key to become readable, as
    /// `(client, req_id, key)`; at most one per client.
    parked_reads: Vec<(NodeId, u64, u64)>,
    blocked: bool,
    reply_mode: ReplyMode,
    /// Whether to retain the commit log and reply records. Test harnesses
    /// assert on them; long-running deployments (the simulator, the
    /// threaded runtime) turn recording off so memory stays bounded.
    record_history: bool,
    /// Command-batching knobs; `None` = every request is its own
    /// agreement.
    batch: Option<BatchConfig>,
    /// The adaptive depth controller; `Some` iff `batch` is
    /// [`BatchConfig::Adaptive`].
    ctl: Option<BatchController>,
    /// Requests waiting for the current batch to flush.
    batch_buf: Vec<Command>,
    /// Identities of the requests in `batch_buf`, for O(1) retry dedup
    /// (cleared, not dropped, at flush — zero-alloc in steady state).
    batch_keys: HashSet<(NodeId, u64)>,
    /// Batching counters (see [`EngineStats`]); plain integer bumps on
    /// the hot path.
    stats: EngineStats,
    /// Sequence number of the next batch this engine advocates.
    batch_seq: u64,
    /// Batches advocated but not yet committed-and-fanned-out, so a
    /// re-decided batch cannot fan its replies out twice.
    inflight_batches: BTreeSet<u64>,
    /// Background maintenance; `None` until
    /// [`Self::enable_maintenance`] switches it on.
    maint: Option<Maintenance>,
    /// Catch-up waiting for the harness ([`Self::take_catch_up`]).
    catch_up: VecDeque<CatchUp>,
    /// When each stale peer was last served a snapshot.
    served: BTreeMap<NodeId, Nanos>,
    /// The consensus group this engine belongs to in a sharded
    /// deployment, if any; diagnostics only (safety-violation panics name
    /// the shard so multi-group harness failures localize).
    shard: Option<crate::shard::ShardId>,
    /// Reusable action buffer handed to protocol handlers.
    outbox: Outbox<P::Msg>,
    /// Scratch vector [`Self::absorb`] swaps the outbox's actions into,
    /// so draining a handler's actions allocates nothing in steady state.
    action_scratch: Vec<Action<P::Msg>>,
}

impl<P: Protocol, S: StateMachine> ReplicaEngine<P, S> {
    /// Wraps `node` and a fresh `state` replica, replying
    /// [immediately](ReplyMode::Immediate).
    pub fn new(node: P, state: S) -> Self {
        Self::with_reply_mode(node, state, ReplyMode::Immediate)
    }

    /// Wraps `node` with an explicit [`ReplyMode`].
    pub fn with_reply_mode(node: P, state: S, reply_mode: ReplyMode) -> Self {
        ReplicaEngine {
            node,
            applier: Applier::new(state),
            timers: BTreeMap::new(),
            commits: BTreeMap::new(),
            replies: Vec::new(),
            deferred: Vec::new(),
            parked_reads: Vec::new(),
            blocked: false,
            reply_mode,
            record_history: true,
            batch: None,
            ctl: None,
            batch_buf: Vec::new(),
            batch_keys: HashSet::new(),
            stats: EngineStats::default(),
            batch_seq: 0,
            inflight_batches: BTreeSet::new(),
            maint: None,
            catch_up: VecDeque::new(),
            served: BTreeMap::new(),
            shard: None,
            outbox: Outbox::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Labels this engine with the shard (consensus group) it serves in a
    /// sharded deployment (see [`crate::shard::ShardedEngine`]). Purely
    /// diagnostic: consistency panics name the shard.
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

    /// Raises the batch sequence number to at least `floor`.
    ///
    /// Batch identities are `(batch_source, seq)` and the protocols
    /// deduplicate decided identities forever — so a deployment that
    /// **rebuilds** an engine in place (the paper's silently rebooted
    /// node) must move the replacement into a fresh sequence epoch, or
    /// its recycled batch ids would be dropped as already-decided
    /// duplicates by surviving peers and the batched clients would never
    /// be answered. `TestNet::reset_node` shifts each incarnation by
    /// [`Self::BATCH_EPOCH`]; long-running deployments without in-place
    /// rebuilds never need this.
    pub fn set_batch_seq_floor(&mut self, floor: u64) {
        self.batch_seq = self.batch_seq.max(floor);
    }

    /// Sequence-number span reserved per engine incarnation (2^32
    /// batches) for [`Self::set_batch_seq_floor`].
    pub const BATCH_EPOCH: u64 = 1 << 32;

    /// Enables or disables commit-log and reply-record retention
    /// (default on). Turn it off for long-running deployments: duplicate
    /// decisions are still checked by the [`Applier`] either way, but the
    /// per-command history is not retained, so memory stays bounded by
    /// live state rather than by run length.
    pub fn with_history(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// Feeds one event to the node at time `now`, appending the resulting
    /// effects to `effects`.
    ///
    /// Blocked engines still process events handed to them — blocking
    /// gates *delivery* (the harness holds messages back, checked via
    /// [`Self::is_blocked`]) and *timer firing*, not explicit calls.
    pub fn handle(
        &mut self,
        event: EngineEvent<P::Msg>,
        now: Nanos,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
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
                    self.timers.insert(MAINTENANCE, now + MAINT_PERIOD);
                }
            }
            EngineEvent::Message { from, msg } => match self.node.instance_of(&msg) {
                Some(inst) if inst < self.applier.log_base() => self.serve_stale(from, inst, now),
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
                    self.emit_reply(client, req_id, self.applied_next(), Some(value), effects);
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
            EngineEvent::TimerDue { timer } => {
                self.fire_one(timer, now, effects);
            }
            EngineEvent::Tick => {
                self.fire_due(now, effects);
            }
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
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
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

    /// Fires every armed timer whose deadline is at or before `now`, in
    /// [`Timer`] order; returns how many fired. A blocked engine fires
    /// nothing (the slow core is not getting cycles).
    ///
    /// The due set is computed before any handler runs, so a handler
    /// re-arming its own timer (the periodic-tick pattern) cannot make it
    /// fire twice in one call — but each timer's armed state is
    /// re-checked just before it fires, so a handler cancelling or
    /// re-arming a *sibling* due timer takes effect within the same pass
    /// (identical to delivering each deadline via
    /// [`EngineEvent::TimerDue`]).
    pub fn fire_due(
        &mut self,
        now: Nanos,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) -> usize {
        if self.blocked {
            return 0;
        }
        let due: Vec<Timer> = self
            .timers
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(&t, _)| t)
            .collect();
        let mut fired = 0;
        for t in due {
            // Skips one an earlier handler cancelled or pushed out.
            fired += usize::from(self.fire_one(t, now, effects));
        }
        fired
    }

    fn fire_one(
        &mut self,
        timer: Timer,
        now: Nanos,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) -> bool {
        if self.blocked {
            return false;
        }
        match self.timers.get(&timer) {
            Some(&at) if at <= now => {}
            _ => return false, // cancelled, re-armed later, or never armed
        }
        self.timers.remove(&timer);
        match timer {
            BATCH_FLUSH => self.flush_batch(FlushTrigger::Deadline, now, effects),
            MAINTENANCE => self.maintain(now, effects),
            _ => {
                self.node.on_timer(timer, now, &mut self.outbox);
                self.absorb(now, effects);
            }
        }
        true
    }

    // ----------------------------------------------------------------
    // Maintenance (see the module docs).
    // ----------------------------------------------------------------

    /// Switches background maintenance on for this group: gap watching
    /// and the boot probe always, leader-driven agreed truncation when
    /// `truncate_every` is set. `members` is the group's membership;
    /// everyone but this node is a snapshot donor. Call before
    /// [`EngineEvent::Start`], which arms the [`MAINTENANCE`] timer.
    pub fn enable_maintenance(&mut self, members: &[NodeId], truncate_every: Option<u64>) {
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

    /// Queues a catch-up request to the next donor in rotation (none in
    /// a single-member group).
    fn request_snapshot(&mut self) {
        let have = self.applied_next();
        let m = self.maint.as_mut().expect("maintenance enabled");
        if !m.peers.is_empty() {
            let donor = m.peers[m.donor_rr % m.peers.len()];
            self.catch_up.push_back(CatchUp::Ask(donor, have));
            m.donor_rr += 1;
        }
    }

    /// `peer`'s message reached below the floor at `inst` and was
    /// dropped: queue this replica's snapshot for it, unless it was
    /// served within the last [`GAP_PATIENCE`].
    fn serve_stale(&mut self, peer: NodeId, inst: Instance, now: Nanos) {
        let due = |&at: &Nanos| now.saturating_sub(at) >= GAP_PATIENCE;
        if self.served.get(&peer).is_none_or(due) {
            self.served.insert(peer, now);
            self.catch_up.push_back(CatchUp::Serve(peer, inst));
        }
    }

    /// One [`MAINTENANCE`] firing: re-arm, watch the apply gap, and — as
    /// leader — propose the next agreed truncation.
    fn maintain(&mut self, now: Nanos, effects: &mut Vec<EngineEffect<P::Msg, S::Output>>) {
        self.timers.insert(MAINTENANCE, now + MAINT_PERIOD);
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

    /// Takes the oldest queued catch-up, if any: the harness carries a
    /// [`CatchUp::Ask`] to its donor and a [`CatchUp::Serve`] to its
    /// peer, each answered through [`Self::serve_snapshot`].
    pub fn take_catch_up(&mut self) -> Option<CatchUp> {
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
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
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
            self.timers.insert(BATCH_FLUSH, now + cfg.max_delay());
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
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) {
        self.timers.remove(&BATCH_FLUSH);
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
        let cmds = std::mem::take(&mut self.batch_buf);
        if cmds.len() == 1 {
            // A singleton batch is indistinguishable from an unbatched
            // command: no synthetic identity, no fan-out bookkeeping.
            let c = cmds.into_iter().next().expect("len checked");
            self.node
                .on_client_request(c.client, c.req_id, c.op, now, &mut self.outbox);
        } else {
            self.batch_seq += 1;
            let batch = Command::batch(self.node.node_id(), self.batch_seq, cmds);
            self.inflight_batches.insert(self.batch_seq);
            self.node.on_client_request(
                batch.client,
                batch.req_id,
                batch.op,
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
    fn absorb(&mut self, now: Nanos, effects: &mut Vec<EngineEffect<P::Msg, S::Output>>) {
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
                    if self.record_history {
                        let me = self.node.node_id();
                        let prior = self.commits.insert(instance, cmd.clone());
                        if let Some(prior) = prior {
                            let group = self
                                .shard
                                .map_or(String::new(), |s| format!(" (shard {s})"));
                            assert_eq!(
                                prior, cmd,
                                "{me}{group} re-learned instance {instance} with a different command"
                            );
                        }
                    }
                    // The applier independently rejects a re-decided
                    // instance with a different command, so safety
                    // checking does not depend on the history log.
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
                Action::SetTimer { timer, after } => {
                    self.timers.insert(timer, now + after);
                }
                Action::CancelTimer { timer } => {
                    self.timers.remove(&timer);
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
    fn answer_parked_reads(&mut self, effects: &mut Vec<EngineEffect<P::Msg, S::Output>>) {
        let mut parked = std::mem::take(&mut self.parked_reads);
        parked.retain(|&(client, req_id, key)| {
            let Some(value) = self.local_read(key) else {
                return true;
            };
            self.emit_reply(client, req_id, self.applied_next(), Some(value), effects);
            false
        });
        self.parked_reads = parked;
    }

    fn reply(
        &mut self,
        client: NodeId,
        req_id: u64,
        instance: Instance,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) {
        if client.is_batch_source() || client == MAINT_CLIENT {
            // The protocol acknowledging a batch to its synthetic
            // advocate (possibly another engine's): per-client replies
            // are fanned out at commit time by the advocating engine, so
            // this must never reach a real wire or the records. Nobody
            // waits for a maintenance-proposed truncation either.
            return;
        }
        let value = self.applier.output_of(client, req_id).cloned();
        if value.is_none() && self.reply_mode == ReplyMode::AfterApply {
            self.deferred.push((client, req_id, instance));
            return;
        }
        self.emit_reply(client, req_id, instance, value, effects);
    }

    /// Emits one client reply, recording it while history is on.
    fn emit_reply(
        &mut self,
        client: NodeId,
        req_id: u64,
        instance: Instance,
        value: Option<S::Output>,
        effects: &mut Vec<EngineEffect<P::Msg, S::Output>>,
    ) {
        if self.record_history {
            self.replies.push(ReplyRecord {
                client,
                req_id,
                instance,
                from: self.node.node_id(),
            });
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
    fn flush_deferred(&mut self, effects: &mut Vec<EngineEffect<P::Msg, S::Output>>) {
        if self.deferred.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.deferred);
        for (client, req_id, instance) in pending {
            self.reply(client, req_id, instance, effects);
        }
    }

    // ----------------------------------------------------------------
    // Timer table.
    // ----------------------------------------------------------------

    /// The earliest armed deadline, if any (for harness wake-up planning).
    ///
    /// Includes a pending batch-flush deadline: the accumulator arms the
    /// reserved [`BATCH_FLUSH`] timer in this same table, so a harness
    /// that sleeps until `next_deadline` can never stall a partially
    /// filled batch.
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.timers.values().copied().min()
    }

    /// The absolute deadline `timer` is armed for, if armed.
    pub fn timer_deadline(&self, timer: Timer) -> Option<Nanos> {
        self.timers.get(&timer).copied()
    }

    // ----------------------------------------------------------------
    // Fault injection.
    // ----------------------------------------------------------------

    /// Marks this replica as a blocked/slow core (or unblocks it).
    /// Blocked engines fire no timers; harnesses must also hold back
    /// message delivery while [`Self::is_blocked`] returns `true`.
    pub fn set_blocked(&mut self, blocked: bool) {
        self.blocked = blocked;
    }

    /// Whether this replica is currently blocked.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    // ----------------------------------------------------------------
    // Snapshots & catch-up (see `Applier::snapshot`).
    // ----------------------------------------------------------------

    /// The serving side of catch-up ([`CatchUp`]): a snapshot for a peer
    /// that asked with `have` or reached below the floor at `have` — but
    /// only one strictly past it, so stale requests and boot probes
    /// against an empty group go unanswered instead of bouncing state the
    /// requester already has.
    pub fn serve_snapshot(&self, have: Instance) -> Option<crate::rsm::ApplierSnapshot<S>> {
        (self.applied_next() > have).then(|| self.applier.snapshot())
    }

    /// Installs a peer's snapshot, fast-forwarding the applier *and* the
    /// protocol past its watermark in one step. Returns `false` (and
    /// changes nothing) if the snapshot is at or below what this replica
    /// already applied.
    pub fn install_snapshot(&mut self, snap: crate::rsm::ApplierSnapshot<S>) -> bool {
        let watermark = snap.watermark;
        if !self.applier.install_snapshot(snap) {
            return false;
        }
        self.floor_rose();
        if let Some(m) = &mut self.maint {
            m.gap_since = None; // whatever gap remains starts a fresh window
        }
        // Drop replies parked for instances the snapshot covers: their
        // clients re-send, and the retry is answered from the installed
        // session table (at-most-once) instead of re-applying.
        self.deferred.retain(|&(_, _, inst)| inst >= watermark);
        true
    }

    /// The applier's log base — the one truncation floor — just rose:
    /// the protocol and the engine's commit history drop everything
    /// below it. The only caller of [`Protocol::truncate`], so each call
    /// passes a strictly larger floor.
    fn floor_rose(&mut self) {
        let floor = self.applier.log_base();
        self.node.truncate(floor);
        self.commits = self.commits.split_off(&floor);
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

    /// The local commit log (instance → decided command). Empty when
    /// history recording is off ([`Self::with_history`]).
    pub fn commits(&self) -> &BTreeMap<Instance, Command> {
        &self.commits
    }

    /// Every reply this node has emitted, in emission order. Empty when
    /// history recording is off ([`Self::with_history`]).
    pub fn replies(&self) -> &[ReplyRecord] {
        &self.replies
    }

    /// Replies currently waiting for the state machine to catch up
    /// (only non-empty under [`ReplyMode::AfterApply`]).
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
        timer_fires: Vec<(Timer, Nanos)>,
        readable: bool,
    }

    impl Scripted {
        fn new() -> Self {
            Scripted {
                me: NodeId(0),
                script: Vec::new(),
                timer_fires: Vec::new(),
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

        fn on_timer(&mut self, timer: Timer, now: Nanos, out: &mut Outbox<u8>) {
            self.timer_fires.push((timer, now));
            for a in self.script.drain(..) {
                out.push(a);
            }
        }

        fn on_client_request(
            &mut self,
            _client: NodeId,
            _req_id: u64,
            _op: Op,
            _now: Nanos,
            out: &mut Outbox<u8>,
        ) {
            for a in self.script.drain(..) {
                out.push(a);
            }
        }

        fn is_leader(&self) -> bool {
            true
        }

        fn leader_hint(&self) -> Option<NodeId> {
            Some(self.me)
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

    #[test]
    fn rearm_replaces_the_deadline() {
        let mut e = engine();
        drive(
            &mut e,
            vec![Action::SetTimer {
                timer: Timer::Tick,
                after: 100,
            }],
            0,
        );
        assert_eq!(e.timer_deadline(Timer::Tick), Some(100));
        // Re-arm at a later deadline: the old one must not fire.
        drive(
            &mut e,
            vec![Action::SetTimer {
                timer: Timer::Tick,
                after: 500,
            }],
            50,
        );
        assert_eq!(e.timer_deadline(Timer::Tick), Some(550));
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(100, &mut fx), 0, "superseded deadline fired");
        assert_eq!(e.fire_due(550, &mut fx), 1);
        assert_eq!(e.node().timer_fires, vec![(Timer::Tick, 550)]);
    }

    #[test]
    fn cancel_after_set_wins_and_set_after_cancel_wins() {
        let mut e = engine();
        // Same handler: arm then cancel → not armed.
        drive(
            &mut e,
            vec![
                Action::SetTimer {
                    timer: Timer::Tick,
                    after: 10,
                },
                Action::CancelTimer { timer: Timer::Tick },
            ],
            0,
        );
        assert_eq!(e.timer_deadline(Timer::Tick), None);
        // Same handler: cancel then arm → armed.
        drive(
            &mut e,
            vec![
                Action::CancelTimer { timer: Timer::Tick },
                Action::SetTimer {
                    timer: Timer::Tick,
                    after: 10,
                },
            ],
            0,
        );
        assert_eq!(e.timer_deadline(Timer::Tick), Some(10));
    }

    #[test]
    fn fired_timer_is_disarmed_and_rearm_in_handler_is_fresh() {
        let mut e = engine();
        drive(
            &mut e,
            vec![Action::SetTimer {
                timer: Timer::Tick,
                after: 100,
            }],
            0,
        );
        // The handler re-arms the same timer; it must not re-fire in the
        // same fire_due pass.
        e.node_mut().script = vec![Action::SetTimer {
            timer: Timer::Tick,
            after: 100,
        }];
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(1_000, &mut fx), 1);
        assert_eq!(e.timer_deadline(Timer::Tick), Some(1_100));
        // One-shot semantics: without a re-arm nothing is left.
        assert_eq!(e.fire_due(1_100, &mut fx), 1);
        assert_eq!(e.fire_due(10_000, &mut fx), 0);
    }

    #[test]
    fn timers_fire_in_timer_order() {
        let mut e = engine();
        drive(
            &mut e,
            vec![
                Action::SetTimer {
                    timer: Timer::Custom(2),
                    after: 5,
                },
                Action::SetTimer {
                    timer: Timer::Tick,
                    after: 10,
                },
                Action::SetTimer {
                    timer: Timer::Custom(1),
                    after: 7,
                },
            ],
            0,
        );
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(100, &mut fx), 3);
        let order: Vec<Timer> = e.node().timer_fires.iter().map(|&(t, _)| t).collect();
        assert_eq!(order, vec![Timer::Tick, Timer::Custom(1), Timer::Custom(2)]);
    }

    #[test]
    fn handler_cancelling_a_sibling_due_timer_takes_effect_in_the_same_pass() {
        let mut e = engine();
        // Tick and Custom(0) both due at 100; Tick fires first (Timer
        // order) and its handler cancels Custom(0) and re-arms Custom(1)
        // far in the future.
        drive(
            &mut e,
            vec![
                Action::SetTimer {
                    timer: Timer::Tick,
                    after: 100,
                },
                Action::SetTimer {
                    timer: Timer::Custom(0),
                    after: 100,
                },
                Action::SetTimer {
                    timer: Timer::Custom(1),
                    after: 100,
                },
            ],
            0,
        );
        e.node_mut().script = vec![
            Action::CancelTimer {
                timer: Timer::Custom(0),
            },
            Action::SetTimer {
                timer: Timer::Custom(1),
                after: 10_000,
            },
        ];
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(100, &mut fx), 1, "only Tick may fire");
        assert_eq!(e.node().timer_fires, vec![(Timer::Tick, 100)]);
        assert_eq!(e.timer_deadline(Timer::Custom(0)), None);
        assert_eq!(e.timer_deadline(Timer::Custom(1)), Some(10_100));
    }

    #[test]
    fn timer_due_ignores_stale_and_unarmed_deadlines() {
        let mut e = engine();
        drive(
            &mut e,
            vec![Action::SetTimer {
                timer: Timer::Tick,
                after: 100,
            }],
            0,
        );
        let mut fx = Vec::new();
        // Not yet due.
        e.handle(EngineEvent::TimerDue { timer: Timer::Tick }, 99, &mut fx);
        assert!(e.node().timer_fires.is_empty());
        // Due.
        e.handle(EngineEvent::TimerDue { timer: Timer::Tick }, 100, &mut fx);
        assert_eq!(e.node().timer_fires.len(), 1);
        // Already fired: a second due notification is stale.
        e.handle(EngineEvent::TimerDue { timer: Timer::Tick }, 200, &mut fx);
        assert_eq!(e.node().timer_fires.len(), 1);
    }

    #[test]
    fn blocked_engine_fires_no_timers() {
        let mut e = engine();
        drive(
            &mut e,
            vec![Action::SetTimer {
                timer: Timer::Tick,
                after: 10,
            }],
            0,
        );
        e.set_blocked(true);
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(1_000, &mut fx), 0);
        e.set_blocked(false);
        assert_eq!(e.fire_due(1_000, &mut fx), 1);
    }

    fn put(client: u16, req: u64, key: u64, value: u64) -> Command {
        Command::new(NodeId(client), req, Op::Put { key, value })
    }

    #[test]
    fn duplicate_client_request_applies_once() {
        let mut e = engine();
        // The same (client, req) decided in two instances: the client
        // retried and two advocates won slots. Applied exactly once.
        drive(
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
        assert_eq!(e.commits().len(), 3);
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
    #[should_panic(expected = "re-learned instance 0 with a different command")]
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
        drive(
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
        // its decided-id table): same instance, same value, twice in the
        // record — identical content, no double application.
        let fx = drive(
            &mut e,
            vec![Action::Reply {
                client: NodeId(9),
                req_id: 1,
                instance: 0,
            }],
            0,
        );
        assert_eq!(e.replies().len(), 2);
        assert_eq!(e.replies()[0], e.replies()[1]);
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
        let mut e =
            ReplicaEngine::with_reply_mode(Scripted::new(), KvStore::new(), ReplyMode::AfterApply);
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
    fn immediate_mode_replies_without_the_value() {
        let mut e = engine();
        let fx = drive(
            &mut e,
            vec![Action::Reply {
                client: NodeId(9),
                req_id: 1,
                instance: 4,
            }],
            0,
        );
        match &fx[0] {
            EngineEffect::ReplyTo { value, .. } => assert_eq!(*value, None),
            other => panic!("expected ReplyTo, got {other:?}"),
        }
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
        drive(&mut e, vec![commit], 0);
        e.node_mut().readable = true;
        // An ordinary reply, stamped with the applied watermark.
        assert_eq!(read_relaxed(&mut e, 7, 1, 2), read_reply(7, 1, 1, Some(22)));
        assert_eq!(e.state().reads(), 0, "a local read is not an applied Get");
        assert_eq!(e.replies().len(), 1, "recorded like any reply");
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
    fn history_off_keeps_no_records_but_still_applies_and_replies() {
        let mut e = ReplicaEngine::new(Scripted::new(), KvStore::new()).with_history(false);
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
        // Effects and state-machine application are unaffected...
        assert!(fx
            .iter()
            .any(|e| matches!(e, EngineEffect::Committed { .. })));
        assert!(fx.iter().any(|e| matches!(e, EngineEffect::ReplyTo { .. })));
        assert_eq!(e.state().get(3), Some(30));
        // ...but no per-command history is retained.
        assert!(e.commits().is_empty());
        assert!(e.replies().is_empty());
        // The applier still rejects a divergent re-decide on its own.
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

        fn on_timer(&mut self, _timer: Timer, _now: Nanos, _out: &mut Outbox<u8>) {}

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

        fn leader_hint(&self) -> Option<NodeId> {
            Some(self.me)
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
        assert_eq!(e.timer_deadline(BATCH_FLUSH), Some(500));
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
        request(&mut e, 9, 1, Op::Put { key: 7, value: 70 }, 0);
        let mut fx = Vec::new();
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
        assert_eq!(e.replies().len(), 1);
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
        request(&mut e, 9, 1, Op::Noop, 0);
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
        assert_eq!(e.replies().len(), 2);
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
        for (c, r, op) in ops.iter().cloned() {
            request(&mut plain, c, r, op.clone(), 0);
            request(&mut batch, c, r, op, 0);
        }
        let mut fx = Vec::new();
        batch.fire_due(1_000, &mut fx); // flush the odd tail
        assert_eq!(plain.state().digest(), batch.state().digest());
        let ids = |e: &D| -> Vec<(NodeId, u64)> {
            e.replies().iter().map(|r| (r.client, r.req_id)).collect()
        };
        assert_eq!(ids(&plain), ids(&batch));
        // Batching needed fewer agreements for the same work.
        assert_eq!(plain.node().requests.len(), 5);
        assert_eq!(batch.node().requests.len(), 3);
    }

    #[test]
    fn blocked_engine_holds_the_batch_until_unblocked() {
        let mut e = batched(BatchConfig::new(100, 500));
        request(&mut e, 9, 1, Op::Noop, 0);
        e.set_blocked(true);
        let mut fx = Vec::new();
        assert_eq!(e.fire_due(10_000, &mut fx), 0, "slow core gets no cycles");
        assert_eq!(e.pending_batch(), 1);
        e.set_blocked(false);
        assert_eq!(e.fire_due(10_000, &mut fx), 1);
        assert_eq!(reply_ids(&fx), vec![(NodeId(9), 1)]);
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
        for i in 0..200u64 {
            request(&mut e, (i % 100) as u16, i / 100 + 1, Op::Noop, 0);
            let d = e.stats().depth;
            assert!((1..=8).contains(&d), "depth {d} escaped [1, 8]");
        }
        assert_eq!(e.stats().depth, 8, "sustained demand must reach the cap");
        assert!(e.stats().grows >= 7);
        // Flush the tail so nothing is stranded.
        let mut fx = Vec::new();
        e.fire_due(1_000, &mut fx);
        assert_eq!(e.replies().len(), 200);
    }

    #[test]
    fn adaptive_converges_to_the_offered_burst_size() {
        // Constant offered load: bursts of 5 per flush window, rounds
        // spaced wider than the window but inside the idle threshold.
        let cfg = adaptive_cfg(16, 1_000);
        let mut e = adaptive(16, 1_000);
        assert!(5 * 1_000 < cfg.idle_after, "spacing must not look idle");
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
        let later = 1_000 + cfg.idle_after;
        let fx = request(&mut e, 77, 1, Op::Noop, later);
        assert_eq!(reply_ids(&fx), vec![(NodeId(77), 1)]);
        assert_eq!(e.stats().depth, 1);
        assert_eq!(e.stats().idle_decays, 1);
    }

    #[test]
    fn adaptive_backlog_knee_stops_growth() {
        // Scripted never commits, so every multi-command batch stays in
        // flight: with a knee of 1 the controller must stop growing (and
        // halve) as soon as one batch is outstanding, keeping the depth
        // pinned low no matter how hot the demand looks.
        let mut cfg = adaptive_cfg(32, 1_000);
        cfg.backlog_knee = 1;
        let mut e = ReplicaEngine::new(Scripted::new(), KvStore::new())
            .with_batching(BatchConfig::adaptive(cfg));
        let mut fx = Vec::new();
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
            let d = e.stats().depth;
            assert!(d <= 2, "backlog past the knee must cap growth, got {d}");
        }
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
        for (c, r, op) in ops.iter().cloned() {
            request(&mut plain, c, r, op.clone(), 0);
            request(&mut adapt, c, r, op, 0);
        }
        let mut fx = Vec::new();
        adapt.fire_due(1_000, &mut fx); // flush any tail
        assert_eq!(plain.state().digest(), adapt.state().digest());
        let ids = |e: &D| -> Vec<(NodeId, u64)> {
            e.replies().iter().map(|r| (r.client, r.req_id)).collect()
        };
        assert_eq!(ids(&plain), ids(&adapt));
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
        let mut e = engine();
        assert_eq!(e.next_deadline(), None);
        drive(
            &mut e,
            vec![
                Action::SetTimer {
                    timer: Timer::Tick,
                    after: 300,
                },
                Action::SetTimer {
                    timer: Timer::Custom(0),
                    after: 100,
                },
            ],
            0,
        );
        assert_eq!(e.next_deadline(), Some(100));
        let mut fx = Vec::new();
        e.fire_due(100, &mut fx);
        assert_eq!(e.next_deadline(), Some(300));
    }
}
