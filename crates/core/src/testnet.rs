//! A minimal, fully deterministic single-threaded harness for driving
//! [`Protocol`] state machines in tests and documentation examples.
//!
//! Unlike the `manycore-sim` crate (which models CPU cost and propagation
//! delay), `TestNet` gives *schedule-level* control: per-link FIFO queues,
//! explicit message delivery, manual time, and the ability to block a node
//! to model the paper's slow cores. Safety properties must hold under every
//! schedule this harness can produce; the property tests exploit that.
//!
//! Each node is a [`ShardedEngine`] (one shard unless the
//! [`builder`](TestNet::builder) asked for more), so `TestNet` itself is only a
//! scheduler over per-link FIFOs of protocol messages: it decides *when*
//! an [`EngineEffect`] crosses a link, while the engines own all timer,
//! commit, apply and reply semantics — the same engines the simulator and
//! the threaded runtime deploy. Sharded nets multiplex every shard
//! group's messages over the same per-pair links, each message tagged
//! with its [`ShardId`].

use std::collections::{BTreeMap, VecDeque};

use crate::engine::{
    AdaptiveBatch, BatchConfig, CatchUp, EngineConfig, EngineEffect, EngineEvent, EngineStats,
    ReplicaEngine, ReplyMode,
};
use crate::kv::KvStore;
use crate::protocol::Protocol;
use crate::shard::{ShardId, ShardedEffects, ShardedEngine};
use crate::txn::{Fragment, TxnCoordinator, TxnOutcome, TxnStatus, TxnStep};
use crate::types::{Command, Instance, Nanos, NodeId, Op, TxnId};

/// A recorded client reply at the harness level: who was answered, for
/// what, from where — and the state-machine output the reply carried
/// (`None` when the output was not yet applied at emission under
/// [`crate::engine::ReplyMode::Immediate`]; for a transaction prepare
/// the attached output **is** the shard's vote, which is how the
/// [`TxnCoordinator`] driver reads votes off this harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyRecord {
    /// The client that was answered.
    pub client: NodeId,
    /// The request id that committed.
    pub req_id: u64,
    /// The slot it committed in.
    pub instance: Instance,
    /// The node that produced the reply.
    pub from: NodeId,
    /// The flattened state-machine output attached to the reply.
    pub value: Option<u64>,
}

/// The tagged effect stream produced by a `TestNet` node's engines.
type Effects<P> = ShardedEffects<<P as Protocol>::Msg, Option<u64>>;

/// One node's engines. Maintenance runs only when the config carries
/// `truncate_every`, so default nets keep an untouched timer table.
fn deploy<P: Protocol>(
    config: EngineConfig,
    members: &[NodeId],
    node: impl FnMut() -> P,
) -> ShardedEngine<P, KvStore> {
    let mut e = ShardedEngine::deploy(config, ReplyMode::Immediate, node);
    if config.truncate_every.is_some() {
        e.enable_maintenance(members, config.truncate_every);
    }
    e
}

/// One directed link's FIFO: shard-tagged protocol messages.
type LinkQueue<P> = VecDeque<(ShardId, <P as Protocol>::Msg)>;

/// Configures and builds a [`TestNet`] (see [`TestNet::builder`]): node
/// count plus the harness-shared [`EngineConfig`].
#[derive(Debug)]
#[must_use = "a builder does nothing until build() is called"]
pub struct TestNetBuilder<P> {
    nodes: u16,
    config: EngineConfig,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P: Protocol> TestNetBuilder<P> {
    /// Replaces the whole deployment config at once — the entry point
    /// for shapes shared with the other harnesses.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Number of independent consensus groups per node with key-hash
    /// routing (default 1). Client requests route to their owning group;
    /// per-pair links multiplex all groups.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn shards(mut self, s: u16) -> Self {
        self.config = self.config.shards(s);
        self
    }

    /// Enables engine-level command batching on every node (each shard
    /// group keeps its own accumulator). Batches flush on size
    /// immediately; deadline flushes need [`TestNet::advance`] past
    /// `cfg.max_delay` (the flush deadline is an ordinary engine timer).
    pub fn batching(mut self, cfg: BatchConfig) -> Self {
        self.config = self.config.batching(cfg);
        self
    }

    /// Enables **adaptive** command batching: the engine grows and
    /// shrinks its flush depth within `[1, cfg.max_commands]` from
    /// observed load (see [`BatchConfig::Adaptive`]). Observe the
    /// learned depth via [`TestNet::engine_stats`].
    pub fn adaptive_batching(mut self, cfg: AdaptiveBatch) -> Self {
        self.config = self.config.adaptive_batching(cfg);
        self
    }

    /// Builds the net: `make(members, me)` is invoked once per
    /// `(shard, node)` and every node's `on_start` runs.
    pub fn build(self, make: impl FnMut(&[NodeId], NodeId) -> P) -> TestNet<P> {
        TestNet::build_with(self.nodes, self.config, make)
    }
}

/// Deterministic in-process network of protocol nodes.
///
/// # Examples
///
/// Driving three 2PC replicas to commit one command:
///
/// ```
/// use onepaxos::testnet::TestNet;
/// use onepaxos::twopc::TwoPcNode;
/// use onepaxos::{ClusterConfig, NodeId, Op};
///
/// let mut net = TestNet::new(3, |members, me| {
///     TwoPcNode::new(ClusterConfig::new(members.to_vec(), me))
/// });
/// net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
/// net.run_to_quiescence();
/// assert_eq!(net.replies().len(), 1);
/// ```
pub struct TestNet<P: Protocol> {
    engines: Vec<ShardedEngine<P, KvStore>>,
    /// The deployment shape (shard groups, batching, truncation),
    /// remembered so a [`Self::reset_node`] rebuild keeps it.
    config: EngineConfig,
    /// Per-link FIFO queues, mirroring the paper's per-pair message
    /// queues. One FIFO per directed pair carries **all** shard groups'
    /// messages, each tagged with its group — the multiplexing a real
    /// per-core link would do.
    links: BTreeMap<(NodeId, NodeId), LinkQueue<P>>,
    now: Nanos,
    /// Harness-level commit oracle (node, shard → instance → command).
    /// Held outside the engines so it survives [`Self::reset_node`]: a
    /// silently rebooted node loses its state, but the *oracle* must
    /// still catch the rebooted node re-deciding an old instance
    /// differently (§5, Appendix A).
    commits: BTreeMap<(NodeId, ShardId), BTreeMap<Instance, Command>>,
    replies: Vec<ReplyRecord>,
    delivered: u64,
    /// Every catch-up request carried so far, as `(requester, donor)`.
    snapshot_requests: Vec<(NodeId, NodeId)>,
    /// Every snapshot served to a stale peer so far, as `(server, peer)`.
    snapshot_serves: Vec<(NodeId, NodeId)>,
    /// Rebuilds per node, so each engine incarnation advocates batches
    /// in a fresh sequence epoch (recycled batch ids would be dropped as
    /// already-decided duplicates by surviving peers).
    resets: BTreeMap<NodeId, u64>,
    /// Request ids already allocated to [`Self::txn_status_agreed`]
    /// probes (issued under [`Self::PROBE_CLIENT`]).
    probe_reqs: u64,
    /// Reusable effect buffer.
    scratch: Effects<P>,
}

impl<P: Protocol> std::fmt::Debug for TestNet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let blocked: Vec<NodeId> = (0..self.engines.len() as u16)
            .map(NodeId)
            .filter(|&id| self.is_blocked(id))
            .collect();
        f.debug_struct("TestNet")
            .field("nodes", &self.engines.len())
            .field("now", &self.now)
            .field("delivered", &self.delivered)
            .field("blocked", &blocked)
            .field("replies", &self.replies.len())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> TestNet<P> {
    /// The synthetic client identity under which the harness issues its
    /// own [`Self::txn_status_agreed`] probes — far above any test's
    /// real client ids, below the reserved batch-source namespace.
    pub const PROBE_CLIENT: NodeId = NodeId(0x7F00);

    /// Builds `n` nodes with ids `0..n` using `make(members, me)` and runs
    /// each node's `on_start` — the default deployment (one consensus
    /// group, batching off). Non-default shapes go through
    /// [`Self::builder`].
    pub fn new(n: u16, make: impl FnMut(&[NodeId], NodeId) -> P) -> Self {
        Self::builder(n).build(make)
    }

    /// Starts a builder for an `n`-node net. Every deployment knob —
    /// shard groups, batching, truncation — arrives through the same
    /// [`EngineConfig`] the simulator's `SimBuilder` and the runtime's
    /// `ClusterBuilder` accept, so a deployment shape moves between
    /// harnesses unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use onepaxos::testnet::TestNet;
    /// use onepaxos::twopc::TwoPcNode;
    /// use onepaxos::{BatchConfig, ClusterConfig, NodeId, Op};
    ///
    /// let mut net = TestNet::builder(3)
    ///     .shards(2)
    ///     .batching(BatchConfig::new(4, 20_000))
    ///     .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
    /// net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 7 });
    /// net.run_to_quiescence();
    /// net.advance(25_000); // flush the waiting batch
    /// net.run_to_quiescence();
    /// assert_eq!(net.kv_get(NodeId(0), 1), Some(7));
    /// ```
    pub fn builder(n: u16) -> TestNetBuilder<P> {
        TestNetBuilder {
            nodes: n,
            config: EngineConfig::new(),
            _marker: std::marker::PhantomData,
        }
    }

    fn build_with(
        n: u16,
        config: EngineConfig,
        mut make: impl FnMut(&[NodeId], NodeId) -> P,
    ) -> Self {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut net = TestNet {
            // Replies are immediate; commits and replies are recorded by
            // the harness itself, so the records survive node resets.
            engines: members
                .iter()
                .map(|&me| deploy(config, &members, || make(&members, me)))
                .collect(),
            config,
            links: BTreeMap::new(),
            now: 0,
            commits: BTreeMap::new(),
            replies: Vec::new(),
            delivered: 0,
            snapshot_requests: Vec::new(),
            snapshot_serves: Vec::new(),
            resets: BTreeMap::new(),
            probe_reqs: 0,
            scratch: Vec::new(),
        };
        for &id in &members {
            net.start_node(id);
        }
        net
    }

    /// Bootstraps node `id`'s engines and routes the fallout (boot
    /// probes included).
    fn start_node(&mut self, id: NodeId) {
        let now = self.now;
        let mut effects = std::mem::take(&mut self.scratch);
        self.engines[id.index()].start(now, &mut effects);
        self.absorb(id, &mut effects);
        self.scratch = effects;
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of consensus groups per node (1 unless built
    /// [`sharded`](Self::sharded)).
    pub fn shards(&self) -> u16 {
        self.config.shards
    }

    /// Immutable access to a node's shard-0 protocol instance (the only
    /// one on unsharded nets). Sharded nets use [`Self::shard_node`].
    pub fn node(&self, id: NodeId) -> &P {
        self.shard_node(id, ShardId(0))
    }

    /// Mutable access to a node's shard-0 protocol instance (for
    /// white-box assertions only).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.engines[id.index()].shard_mut(ShardId(0)).node_mut()
    }

    /// Immutable access to the protocol instance of one shard group at a
    /// node.
    pub fn shard_node(&self, id: NodeId, shard: ShardId) -> &P {
        self.engines[id.index()].shard(shard).node()
    }

    /// The engine wrapping node `id`'s shard 0 (timer table, applier).
    /// Engine-level commit/reply history is disabled here — the harness
    /// records both itself so they survive [`Self::reset_node`]; use
    /// [`Self::commits`]/[`Self::replies`] instead.
    pub fn engine(&self, id: NodeId) -> &ReplicaEngine<P, KvStore> {
        self.engines[id.index()].shard(ShardId(0))
    }

    /// The sharded engine hosting all of node `id`'s groups.
    pub fn sharded_engine(&self, id: NodeId) -> &ShardedEngine<P, KvStore> {
        &self.engines[id.index()]
    }

    /// Batching counters of node `id`, folded across its shard groups
    /// (counters add, `depth` reports the deepest controller). Per-group
    /// counters are reachable through
    /// [`sharded_engine`](Self::sharded_engine)`.stats(shard)`.
    pub fn engine_stats(&self, id: NodeId) -> EngineStats {
        self.engines[id.index()].merged_stats()
    }

    /// The key/value replica applied at node `id`'s shard 0 (the only
    /// shard on unsharded nets). Sharded nets read across groups with
    /// [`Self::kv_get`].
    pub fn state(&self, id: NodeId) -> &KvStore {
        self.engines[id.index()].shard(ShardId(0)).state()
    }

    /// Reads `key` from its owning shard's replica at node `id`, ungated
    /// (a test oracle; clients go through [`Self::read_relaxed`]).
    pub fn kv_get(&self, id: NodeId, key: u64) -> Option<u64> {
        self.engines[id.index()].kv_get(key)
    }

    /// Replaces a node's state machine with a fresh one, losing all state:
    /// models the paper's silently rebooted acceptor (§5, Appendix A).
    /// In-flight messages to and from the node are preserved, as is the
    /// node's blocked status (a rebooted slow core is still slow). On a
    /// sharded net, *every* shard group's member at that node reboots
    /// (the whole core went away), each into a fresh batch epoch.
    pub fn reset_node(&mut self, id: NodeId, mut fresh: impl FnMut() -> P) {
        let was_blocked = self.engines[id.index()].is_blocked();
        let members: Vec<NodeId> = (0..self.engines.len() as u16).map(NodeId).collect();
        self.engines[id.index()] = deploy(self.config, &members, &mut fresh);
        // A rebuilt engine must not reuse its predecessor's batch
        // identities (surviving peers deduplicate them forever).
        let epoch = self.resets.entry(id).or_insert(0);
        *epoch += 1;
        let floor = *epoch * ReplicaEngine::<P, KvStore>::BATCH_EPOCH;
        self.engines[id.index()].set_batch_seq_floor(floor);
        self.engines[id.index()].set_blocked(was_blocked);
        self.start_node(id);
    }

    /// Reboots `id` like [`Self::reset_node`], then immediately installs
    /// into every shard group a state snapshot taken from the live peer
    /// `donor` — the snapshot-install catch-up path. The fresh engines
    /// resume applying from the donor's applied watermark instead of
    /// replaying (possibly truncated, hence unreplayable) history from
    /// instance 0, and their protocol nodes fast-forward their truncation
    /// floors to the same watermark. A donor shard that has applied
    /// nothing yet contributes nothing (its watermark-0 snapshot is
    /// rejected by the installer), which leaves that group cold — exactly
    /// the plain reset behaviour.
    pub fn reset_node_warm(&mut self, id: NodeId, donor: NodeId, fresh: impl FnMut() -> P) {
        self.reset_node(id, fresh);
        for s in (0..self.config.shards).map(ShardId) {
            if let Some(snap) = self.engines[donor.index()].serve_snapshot(s, 0) {
                self.engines[id.index()].install_shard_snapshot(s, snap);
            }
        }
    }

    /// Proposes an **agreed truncation** through shard `shard`'s own log
    /// at `target`: an [`Op::Truncate`] at the serving replica's applied
    /// watermark, submitted as an ordinary client command under
    /// [`Self::PROBE_CLIENT`]. Once decided and applied, every replica of
    /// the group drops its applied log, retired outputs and learner state
    /// below the watermark. Returns the watermark proposed; the caller
    /// drives delivery ([`Self::run_to_quiescence`] /
    /// [`Self::advance_and_settle`]) like any other request.
    pub fn propose_truncate(&mut self, target: NodeId, shard: ShardId) -> Instance {
        self.probe_reqs += 1;
        let engine = &mut self.engines[target.index()];
        let watermark = engine.stats(shard).applied;
        // Keyless, so handed to its shard directly instead of routed.
        let event = EngineEvent::ClientRequest {
            client: Self::PROBE_CLIENT,
            req_id: self.probe_reqs,
            op: Op::Truncate { watermark },
        };
        let mut effects = std::mem::take(&mut self.scratch);
        engine.handle(shard, event, self.now, &mut effects);
        self.absorb(target, &mut effects);
        self.scratch = effects;
        watermark
    }

    /// Blocks a node: it stops processing messages and timers (a slow
    /// core). Messages addressed to it queue up.
    pub fn block(&mut self, id: NodeId) {
        self.engines[id.index()].set_blocked(true);
    }

    /// Unblocks a node; queued input becomes deliverable again.
    pub fn unblock(&mut self, id: NodeId) {
        self.engines[id.index()].set_blocked(false);
    }

    /// Whether `id` is currently blocked.
    pub fn is_blocked(&self, id: NodeId) -> bool {
        self.engines[id.index()].is_blocked()
    }

    /// Submits a client request to `target`, routing it to the owning
    /// shard group; returns the shard it went to (always shard 0 on an
    /// unsharded net).
    pub fn client_request(
        &mut self,
        target: NodeId,
        client: NodeId,
        req_id: u64,
        op: Op,
    ) -> ShardId {
        let now = self.now;
        let mut effects = std::mem::take(&mut self.scratch);
        let shard = self.engines[target.index()].submit(client, req_id, op, now, &mut effects);
        self.absorb(target, &mut effects);
        self.scratch = effects;
        shard
    }

    /// Sends a relaxed read (§7.5) of `key` to `target`, routed to the
    /// owning shard group, whose engine serves, parks or orders it; the
    /// answer lands in [`Self::replies`]. Returns the shard it went to.
    pub fn read_relaxed(
        &mut self,
        target: NodeId,
        client: NodeId,
        req_id: u64,
        key: u64,
    ) -> ShardId {
        let now = self.now;
        let mut effects = std::mem::take(&mut self.scratch);
        let shard =
            self.engines[target.index()].read_relaxed(client, req_id, key, now, &mut effects);
        self.absorb(target, &mut effects);
        self.scratch = effects;
        shard
    }

    /// The gate [`Self::read_relaxed`] serves through, as an oracle:
    /// `Some(value)` if node `id` can read `key` locally right now,
    /// `None` if a relaxed read would wait (2PC lock window) or go
    /// through consensus. On a sharded net the key routes to its owning
    /// group first.
    pub fn local_read(&self, id: NodeId, key: u64) -> Option<Option<u64>> {
        self.engines[id.index()].local_read(key)
    }

    // ----------------------------------------------------------------
    // Cross-shard transactions (see `crate::txn`): the TestNet is the
    // coordinator's transport — fragments are submitted as ordinary
    // client requests of the coordinator's identity, and votes are read
    // back off the recorded reply values.
    // ----------------------------------------------------------------

    /// Submits each fragment to `target`, letting the engines route it
    /// to its owning shard group.
    pub fn submit_fragments(&mut self, target: NodeId, client: NodeId, frags: Vec<Fragment>) {
        for f in frags {
            let routed = self.client_request(target, client, f.req_id, f.op);
            debug_assert_eq!(routed, f.shard, "fragment routed off its shard");
        }
    }

    /// Runs one complete transaction through `coord` against `target`,
    /// driving every phase to quiescence: prepares out, votes in,
    /// outcome out, acknowledgements in. Time advances a little between
    /// rounds so batch-flush deadlines and protocol ticks fire.
    ///
    /// # Panics
    ///
    /// Panics if the transaction does not finish within the driver's
    /// round budget (a stuck shard group).
    pub fn run_txn(
        &mut self,
        target: NodeId,
        coord: &mut TxnCoordinator,
        writes: &[(u64, u64)],
    ) -> TxnOutcome {
        let frags = coord.begin(writes);
        self.drive_txn(target, coord, frags)
    }

    /// Drives an already-started transaction (or a recovery started with
    /// [`TxnCoordinator::begin_recovery`]) to its outcome; see
    /// [`Self::run_txn`].
    ///
    /// # Panics
    ///
    /// Panics if the transaction does not finish within the round
    /// budget.
    pub fn drive_txn(
        &mut self,
        target: NodeId,
        coord: &mut TxnCoordinator,
        mut frags: Vec<Fragment>,
    ) -> TxnOutcome {
        let client = coord.client();
        let mut seen = self.replies.len();
        // A caller may hand us the fan-out fragments of a transaction
        // it already saw decided (early ack): with no prepare phase to
        // drive, the decided outcome is the drain's.
        let mut decided = if coord.in_flight() {
            None
        } else {
            coord.drain_outcome()
        };
        for round in 0..Self::TXN_DRIVER_ROUNDS {
            self.submit_fragments(target, client, std::mem::take(&mut frags));
            self.settle_round(round);
            let mut step = TxnStep::Pending;
            while seen < self.replies.len() {
                let r = self.replies[seen];
                seen += 1;
                if r.client != client {
                    continue;
                }
                match coord.on_reply(r.req_id, r.value) {
                    TxnStep::Pending => {}
                    next => step = next,
                }
            }
            match step {
                TxnStep::Done(outcome) => return outcome,
                // Early ack: the outcome is already decided; keep
                // driving the fan-out until the acknowledgements drain
                // so the next call starts from a quiet network.
                TxnStep::Decided { outcome, submit } => {
                    decided = Some(outcome);
                    frags = submit;
                }
                TxnStep::Submit(next) => frags = next,
                // No phase transition: re-ask for whatever is still
                // outstanding — a valueless reply raced its apply (the
                // protocols re-answer decided ids with the value), or a
                // lock-wait re-probe was queued for deferred submission
                // (the deterministic driver submits it right away; the
                // one-window delay only matters under load).
                TxnStep::Pending => {
                    coord.take_deferred();
                    if let Some(outcome) = decided {
                        if !coord.draining() {
                            return outcome;
                        }
                    }
                    frags = coord.outstanding_fragments();
                }
            }
        }
        panic!("transaction did not finish within the driver budget");
    }

    /// Round budget shared by the transaction drivers ([`Self::drive_txn`]
    /// and [`Self::txn_status_agreed`]) before declaring a shard group
    /// stuck.
    const TXN_DRIVER_ROUNDS: usize = 64;

    /// One driver round's settling policy, shared by [`Self::drive_txn`]
    /// and [`Self::txn_status_agreed`]: drain all deliverable messages,
    /// and on retry rounds also advance time so deadline-driven machinery
    /// (batch flushes, protocol ticks, retries) makes progress.
    fn settle_round(&mut self, round: usize) {
        self.run_to_quiescence();
        if round > 0 {
            self.advance_and_settle(200_000, 1);
        }
    }

    /// `node`'s **locally-applied** view of transaction `txn` at the
    /// shard owning `routing_key` — a per-replica test oracle. A
    /// lagging (e.g. blocked) node under-reports, so this must not feed
    /// [`crate::txn::recover_outcome`] unless the net is known settled;
    /// recovery reads statuses with [`Self::txn_status_agreed`], which
    /// cannot lag.
    pub fn txn_status(&self, node: NodeId, routing_key: u64, txn: TxnId) -> TxnStatus {
        self.engines[node.index()].txn_status(routing_key, txn)
    }

    /// The status of transaction `txn` at the shard owning
    /// `routing_key`, read **through the shard's log**: an
    /// [`Op::TxnStatus`] probe submitted to `target` as an ordinary
    /// agreed command, so the answer reflects the shard's full decided
    /// prefix no matter which replica serves it — the form of status
    /// read coordinator recovery requires (see
    /// [`crate::txn::recover_outcome`]'s freshness contract; the
    /// relaxed [`Self::txn_status`] is a per-replica oracle that can
    /// lag).
    ///
    /// # Panics
    ///
    /// Panics if the probe does not decide within the driver's round
    /// budget (a stuck shard group), or if a reply carries an output no
    /// probe produces.
    pub fn txn_status_agreed(&mut self, target: NodeId, routing_key: u64, txn: TxnId) -> TxnStatus {
        self.probe_reqs += 1;
        let req_id = self.probe_reqs;
        let op = Op::TxnStatus {
            txn,
            key: routing_key,
        };
        let mut seen = self.replies.len();
        for round in 0..Self::TXN_DRIVER_ROUNDS {
            // Re-submitting the same (client, req_id) is safe: the
            // appliers dedup and the protocols re-answer decided ids,
            // this time with the applied output attached.
            self.client_request(target, Self::PROBE_CLIENT, req_id, op.clone());
            self.settle_round(round);
            while seen < self.replies.len() {
                let r = self.replies[seen];
                seen += 1;
                if r.client == Self::PROBE_CLIENT && r.req_id == req_id {
                    if let Some(v) = r.value {
                        return TxnStatus::from_output(v).expect("probe output is a status");
                    }
                }
            }
        }
        panic!("status probe did not decide within the driver budget");
    }

    /// Transactional locks currently held across every shard replica of
    /// `node` (zero once every transaction has its outcome).
    pub fn txn_locks(&self, node: NodeId) -> usize {
        self.engines[node.index()].txn_locks()
    }

    /// Prepares parked in lock-wait queues across every shard replica
    /// of `node` (zero once every transaction has its outcome).
    pub fn txn_parked(&self, node: NodeId) -> usize {
        self.engines[node.index()].txn_parked()
    }

    /// Links `(from, to)` that currently hold at least one deliverable
    /// message (destination not blocked), in deterministic order.
    pub fn deliverable_links(&self) -> Vec<(NodeId, NodeId)> {
        self.links
            .iter()
            .filter(|((_, to), q)| !q.is_empty() && !self.is_blocked(*to))
            .map(|(&l, _)| l)
            .collect()
    }

    /// Delivers the head-of-line message on `(from, to)` to its shard
    /// group. Returns `false` if there was none or the destination is
    /// blocked.
    pub fn deliver_one(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.is_blocked(to) {
            return false;
        }
        let Some(q) = self.links.get_mut(&(from, to)) else {
            return false;
        };
        let Some((shard, msg)) = q.pop_front() else {
            return false;
        };
        self.delivered += 1;
        let now = self.now;
        let mut effects = std::mem::take(&mut self.scratch);
        self.engines[to.index()].handle(
            shard,
            EngineEvent::Message { from, msg },
            now,
            &mut effects,
        );
        self.absorb(to, &mut effects);
        self.scratch = effects;
        true
    }

    /// Drops the head-of-line message on `(from, to)` without delivering
    /// it. The paper assumes reliable links, so protocol *safety* tests may
    /// use this only to emulate a message that is still in flight forever
    /// behind a blocked core.
    pub fn drop_one(&mut self, from: NodeId, to: NodeId) -> bool {
        self.links
            .get_mut(&(from, to))
            .and_then(|q| q.pop_front())
            .is_some()
    }

    /// Delivers messages in deterministic (link-ordered, FIFO) rounds until
    /// no deliverable message remains. Panics if `limit` deliveries are
    /// exceeded (a livelock guard for tests).
    ///
    /// # Panics
    ///
    /// Panics after `100_000` deliveries.
    pub fn run_to_quiescence(&mut self) {
        self.run_to_quiescence_limit(100_000);
    }

    /// Same as [`run_to_quiescence`](Self::run_to_quiescence) with an
    /// explicit delivery budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is exhausted.
    pub fn run_to_quiescence_limit(&mut self, limit: u64) {
        let mut budget = limit;
        loop {
            let links = self.deliverable_links();
            if links.is_empty() {
                return;
            }
            for (from, to) in links {
                while self.deliver_one(from, to) {
                    budget = budget.checked_sub(1).unwrap_or_else(|| {
                        panic!("run_to_quiescence exceeded {limit} deliveries (livelock?)")
                    });
                }
            }
        }
    }

    /// Advances virtual time by `delta`, firing every due timer of every
    /// unblocked node (in node order, shards within a node in shard
    /// order), then returns. Does not deliver messages (snapshot
    /// catch-up, when maintenance is on, is handed across directly).
    pub fn advance(&mut self, delta: Nanos) {
        self.now += delta;
        let now = self.now;
        for i in 0..self.engines.len() {
            let mut effects = std::mem::take(&mut self.scratch);
            self.engines[i].fire_due(now, &mut effects);
            self.absorb(NodeId(i as u16), &mut effects);
            self.scratch = effects;
        }
    }

    /// The catch-up transport, bypassing the link FIFOs: hands each ask
    /// `me`'s engines queued straight to its donor and the donor's
    /// snapshot straight back, and each serve's snapshot straight to its
    /// peer. A blocked donor (a slow core) answers nothing — the request
    /// is lost and the policy must retry.
    fn carry_catch_up(&mut self, me: NodeId) {
        while let Some((shard, catch_up)) = self.engines[me.index()].take_catch_up() {
            let (from, to, have) = match catch_up {
                CatchUp::Ask(donor, have) => {
                    self.snapshot_requests.push((me, donor));
                    (donor, me, have)
                }
                CatchUp::Serve(peer, have) => {
                    self.snapshot_serves.push((me, peer));
                    (me, peer, have)
                }
            };
            if self.is_blocked(from) {
                continue;
            }
            if let Some(snap) = self.engines[from.index()].serve_snapshot(shard, have) {
                self.engines[to.index()].install_shard_snapshot(shard, snap);
            }
        }
    }

    /// Convenience: `advance` then `run_to_quiescence`, repeated `rounds`
    /// times — lets timer-driven recovery logic make progress.
    pub fn advance_and_settle(&mut self, delta: Nanos, rounds: usize) {
        for _ in 0..rounds {
            self.advance(delta);
            self.run_to_quiescence();
        }
    }

    /// Commits recorded at `node`'s shard 0 (instance → command) — the
    /// whole record on unsharded nets. Survives [`Self::reset_node`]:
    /// the record belongs to the harness oracle, not to the (rebootable)
    /// node. Sharded nets inspect each group with
    /// [`Self::shard_commits`].
    pub fn commits(&self, node: NodeId) -> &BTreeMap<Instance, Command> {
        self.shard_commits(node, ShardId(0))
    }

    /// Commits recorded at one shard group's member on `node`.
    pub fn shard_commits(&self, node: NodeId, shard: ShardId) -> &BTreeMap<Instance, Command> {
        static EMPTY: BTreeMap<Instance, Command> = BTreeMap::new();
        self.commits.get(&(node, shard)).unwrap_or(&EMPTY)
    }

    /// All recorded client replies, in emission order.
    pub fn replies(&self) -> &[ReplyRecord] {
        &self.replies
    }

    /// Every catch-up request the engines' maintenance emitted, as
    /// `(requester, donor)` in emission order (empty unless the config
    /// set `truncate_every`).
    pub fn snapshot_requests(&self) -> &[(NodeId, NodeId)] {
        &self.snapshot_requests
    }

    /// Every snapshot an engine served to a peer that reached below its
    /// truncation floor, as `(server, peer)` in emission order.
    pub fn snapshot_serves(&self) -> &[(NodeId, NodeId)] {
        &self.snapshot_serves
    }

    /// Asserts the Appendix B *consistency* property across all nodes,
    /// per shard group: no two nodes have learned different commands for
    /// the same instance of the same group. (Instances of *different*
    /// groups are unrelated logs.)
    ///
    /// # Panics
    ///
    /// Panics on violation, naming the shard and instance.
    pub fn assert_consistent(&self) {
        let mut chosen: BTreeMap<(ShardId, Instance), (NodeId, &Command)> = BTreeMap::new();
        for (&(node, shard), commits) in &self.commits {
            for (&inst, cmd) in commits {
                match chosen.get(&(shard, inst)) {
                    None => {
                        chosen.insert((shard, inst), (node, cmd));
                    }
                    Some(&(other, prior)) => assert_eq!(
                        prior, cmd,
                        "shard {shard} instance {inst}: {other} learned {prior:?} \
                         but {node} learned {cmd:?}"
                    ),
                }
            }
        }
    }

    /// Routes one node's tagged effects: sends into per-link FIFOs
    /// (multiplexing all shard groups, tagged), replies and commits into
    /// the harness-level records (which outlive node resets, unlike the
    /// engines they came from). Then carries the catch-up the node's
    /// engines queued in the same step.
    fn absorb(&mut self, me: NodeId, effects: &mut Effects<P>) {
        for (shard, effect) in effects.drain(..) {
            match effect {
                EngineEffect::SendTo { to, msg } => {
                    self.links
                        .entry((me, to))
                        .or_default()
                        .push_back((shard, msg));
                }
                EngineEffect::ReplyTo {
                    client,
                    req_id,
                    instance,
                    value,
                } => self.replies.push(ReplyRecord {
                    client,
                    req_id,
                    instance,
                    from: me,
                    value: value.flatten(),
                }),
                EngineEffect::Committed { instance, cmd } => {
                    let prior = self
                        .commits
                        .entry((me, shard))
                        .or_default()
                        .insert(instance, cmd.clone());
                    if let Some(prior) = prior {
                        assert_eq!(
                            prior, cmd,
                            "{me} (shard {shard}) re-learned instance {instance} \
                             with a different command"
                        );
                    }
                }
            }
        }
        self.carry_catch_up(me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::{Outbox, Timer};

    /// A trivial echo protocol for exercising the harness itself.
    struct Echo {
        me: NodeId,
        peers: Vec<NodeId>,
        seen: usize,
    }

    impl Protocol for Echo {
        type Msg = u64;

        fn node_id(&self) -> NodeId {
            self.me
        }

        fn on_start(&mut self, _now: Nanos, out: &mut Outbox<u64>) {
            out.set_timer(Timer::Tick, 1_000);
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, _now: Nanos, out: &mut Outbox<u64>) {
            self.seen += 1;
            if msg > 0 {
                for &p in &self.peers {
                    if p != self.me {
                        out.send(p, msg - 1);
                    }
                }
            }
        }

        fn on_timer(&mut self, _t: Timer, _now: Nanos, _out: &mut Outbox<u64>) {
            self.seen += 100;
        }

        fn on_client_request(
            &mut self,
            _client: NodeId,
            _req: u64,
            _op: Op,
            _now: Nanos,
            out: &mut Outbox<u64>,
        ) {
            for &p in &self.peers {
                if p != self.me {
                    out.send(p, 1);
                }
            }
        }

        fn is_leader(&self) -> bool {
            false
        }

        fn leader_hint(&self) -> Option<NodeId> {
            None
        }
    }

    fn echo_net(n: u16) -> TestNet<Echo> {
        TestNet::new(n, |members, me| Echo {
            me,
            peers: members.to_vec(),
            seen: 0,
        })
    }

    #[test]
    fn messages_flow_and_quiesce() {
        let mut net = echo_net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        // n0 sent 1 to n1 and n2; each echoed 0 to the two others.
        assert_eq!(net.delivered(), 2 + 4);
        assert_eq!(net.node(NodeId(1)).seen, 2);
    }

    #[test]
    fn blocked_node_queues_input() {
        let mut net = echo_net(3);
        net.block(NodeId(1));
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.node(NodeId(1)).seen, 0);
        net.unblock(NodeId(1));
        net.run_to_quiescence();
        assert!(net.node(NodeId(1)).seen > 0);
    }

    #[test]
    fn timers_fire_on_advance() {
        let mut net = echo_net(2);
        net.advance(999);
        assert_eq!(net.node(NodeId(0)).seen, 0);
        net.advance(1);
        assert_eq!(net.node(NodeId(0)).seen, 100);
        // One-shot: does not refire.
        net.advance(10_000);
        assert_eq!(net.node(NodeId(0)).seen, 100);
    }

    #[test]
    fn blocked_node_timers_do_not_fire() {
        let mut net = echo_net(2);
        net.block(NodeId(0));
        net.advance(10_000);
        assert_eq!(net.node(NodeId(0)).seen, 0);
        net.unblock(NodeId(0));
        net.advance(0);
        assert_eq!(net.node(NodeId(0)).seen, 100);
    }

    #[test]
    fn drop_one_discards_head() {
        let mut net = echo_net(2);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        assert!(net.drop_one(NodeId(0), NodeId(1)));
        net.run_to_quiescence();
        assert_eq!(net.node(NodeId(1)).seen, 0);
    }

    #[test]
    fn state_is_applied_per_node() {
        use crate::twopc::TwoPcNode;
        use crate::ClusterConfig;
        let mut net = TestNet::new(3, |m, me| {
            TwoPcNode::new(ClusterConfig::new(m.to_vec(), me))
        });
        net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 4, value: 44 });
        net.run_to_quiescence();
        for n in 0..3u16 {
            assert_eq!(net.state(NodeId(n)).get(4), Some(44));
        }
    }

    #[test]
    fn sharded_net_partitions_keys_across_independent_groups() {
        use crate::twopc::TwoPcNode;
        use crate::ClusterConfig;
        let mut net = TestNet::builder(3)
            .shards(4)
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        for key in 0..16u64 {
            let shard = net.client_request(
                NodeId(0),
                NodeId(9),
                key + 1,
                Op::Put {
                    key,
                    value: key * 10,
                },
            );
            assert_eq!(shard, net.sharded_engine(NodeId(0)).router().route_key(key));
        }
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 16);
        net.assert_consistent();
        // Every node's owning-shard replica holds every key…
        for n in 0..3u16 {
            for key in 0..16u64 {
                assert_eq!(net.kv_get(NodeId(n), key), Some(key * 10), "node {n}");
            }
        }
        // …and the 16 keys really spread over more than one group, each
        // group numbering its own instances from 0.
        let populated: Vec<ShardId> = (0..4u16)
            .map(ShardId)
            .filter(|&s| !net.shard_commits(NodeId(0), s).is_empty())
            .collect();
        assert!(populated.len() > 1, "all keys landed on one shard");
        for &s in &populated {
            assert_eq!(
                *net.shard_commits(NodeId(0), s).keys().next().unwrap(),
                0,
                "group {s} must own an independent instance log"
            );
        }
    }

    #[test]
    fn sharded_equals_unsharded_per_key_state() {
        use crate::twopc::TwoPcNode;
        use crate::ClusterConfig;
        let make = |m: &[NodeId], me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me));
        let mut plain = TestNet::new(3, make);
        let mut sharded = TestNet::builder(3).shards(3).build(make);
        let ops = [(1u64, 10u64), (2, 20), (1, 11), (7, 70), (2, 21)];
        for (i, &(key, value)) in ops.iter().enumerate() {
            let op = Op::Put { key, value };
            plain.client_request(NodeId(0), NodeId(9), i as u64 + 1, op.clone());
            plain.run_to_quiescence();
            sharded.client_request(NodeId(0), NodeId(9), i as u64 + 1, op);
            sharded.run_to_quiescence();
        }
        assert_eq!(plain.replies().len(), sharded.replies().len());
        for key in [1u64, 2, 7, 99] {
            assert_eq!(
                plain.state(NodeId(1)).get(key),
                sharded.kv_get(NodeId(1), key),
                "key {key}"
            );
        }
    }

    #[test]
    fn adaptive_batched_net_commits_everything_and_learns_a_depth() {
        use crate::twopc::TwoPcNode;
        use crate::ClusterConfig;
        let mut net = TestNet::builder(3)
            .adaptive_batching(AdaptiveBatch::new(8, 1_000))
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        // A back-to-back burst at one instant: the target node's
        // controller must climb off depth 1 while the backlog knee keeps
        // it honest (nothing is delivered until quiescence).
        for c in 0..20u16 {
            net.client_request(
                NodeId(0),
                NodeId(9 + c),
                1,
                Op::Put {
                    key: u64::from(c),
                    value: 1,
                },
            );
        }
        net.advance(1_000); // flush any tail batch
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 20);
        net.assert_consistent();
        let stats = net.engine_stats(NodeId(0));
        assert!(stats.depth > 1, "demand must grow the depth: {stats:?}");
        assert!(stats.flushes > 0 && stats.enqueued == 20);
        // Non-target nodes never buffered anything.
        assert_eq!(net.engine_stats(NodeId(1)).enqueued, 0);
        for c in 0..20u64 {
            assert_eq!(net.kv_get(NodeId(2), c), Some(1));
        }
    }

    #[test]
    fn txn_driver_commits_across_shards_and_short_circuits_within_one() {
        use crate::shard::ShardRouter;
        use crate::twopc::TwoPcNode;
        use crate::txn::{TxnCoordinator, TxnOutcome};
        use crate::ClusterConfig;
        let mut net = TestNet::builder(3)
            .shards(4)
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        let router = ShardRouter::new(4);
        let mut coord = TxnCoordinator::new(NodeId(9), router);
        // Keys spanning two distinct shards.
        let k0 = 0u64;
        let k1 = (1u64..)
            .find(|&k| router.route_key(k) != router.route_key(k0))
            .unwrap();
        assert_eq!(
            net.run_txn(NodeId(0), &mut coord, &[(k0, 10), (k1, 11)]),
            TxnOutcome::Committed
        );
        // Atomic: both writes visible on every node, no locks left.
        for n in 0..3u16 {
            assert_eq!(net.kv_get(NodeId(n), k0), Some(10), "node {n}");
            assert_eq!(net.kv_get(NodeId(n), k1), Some(11), "node {n}");
            assert_eq!(net.txn_locks(NodeId(n)), 0, "node {n}");
        }
        net.assert_consistent();
        // Single-shard write set: the MultiPut short-circuit.
        let twin = (1u64..)
            .find(|&k| k != k0 && router.route_key(k) == router.route_key(k0))
            .unwrap();
        assert_eq!(
            net.run_txn(NodeId(0), &mut coord, &[(k0, 20), (twin, 21)]),
            TxnOutcome::Committed
        );
        assert_eq!(net.kv_get(NodeId(2), k0), Some(20));
        assert_eq!(net.kv_get(NodeId(2), twin), Some(21));
        net.assert_consistent();
    }

    #[test]
    fn txn_driver_composes_with_batching() {
        use crate::shard::ShardRouter;
        use crate::twopc::TwoPcNode;
        use crate::txn::{TxnCoordinator, TxnOutcome};
        use crate::ClusterConfig;
        // Fragments ride the per-shard batch accumulators like any
        // client command; the driver's time advances flush the tails.
        let mut net = TestNet::builder(3)
            .shards(2)
            .batching(BatchConfig::new(4, 1_000))
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        let router = ShardRouter::new(2);
        let mut coord = TxnCoordinator::new(NodeId(9), router);
        let k0 = 0u64;
        let k1 = (1u64..)
            .find(|&k| router.route_key(k) != router.route_key(k0))
            .unwrap();
        assert_eq!(
            net.run_txn(NodeId(0), &mut coord, &[(k0, 1), (k1, 2)]),
            TxnOutcome::Committed
        );
        assert_eq!(net.kv_get(NodeId(1), k0), Some(1));
        assert_eq!(net.kv_get(NodeId(1), k1), Some(2));
        net.assert_consistent();
    }

    #[test]
    fn sharded_batches_stay_within_their_group() {
        use crate::twopc::TwoPcNode;
        use crate::ClusterConfig;
        let mut net = TestNet::builder(3)
            .shards(2)
            .batching(BatchConfig::new(4, 1_000))
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        for key in 0..12u64 {
            net.client_request(
                NodeId(0),
                NodeId(9 + key as u16),
                1,
                Op::Put { key, value: 1 },
            );
        }
        net.advance(1_000); // flush partial batches
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 12);
        // Every decided batch carries only keys its group owns.
        for node in 0..3u16 {
            for s in 0..2u16 {
                let shard = ShardId(s);
                let router = net.sharded_engine(NodeId(node)).router();
                for cmd in net.shard_commits(NodeId(node), shard).values() {
                    for inner in cmd.as_batch().into_iter().flatten() {
                        let key = inner.op.key().expect("puts have keys");
                        assert_eq!(router.route_key(key), shard, "batch crossed shards");
                    }
                }
            }
        }
        net.assert_consistent();
    }
}
