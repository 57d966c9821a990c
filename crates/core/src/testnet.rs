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
//! scheduler over per-link FIFOs of peer messages: it decides *when*
//! an [`EngineEffect`] crosses a link, while the engines own all timer,
//! commit, apply and reply semantics — the same engines the simulator and
//! the threaded runtime deploy. Sharded nets multiplex every shard
//! group's messages over the same per-pair links, each message tagged
//! with its [`ShardId`].
//!
//! Clients are the runtime's own [`ClientSession`]: [`TestNet::session`]
//! makes one and [`TestNet::call`] carries its requests in, its replies
//! back and its deadlines forward in virtual time. Engines answer a
//! client only after its command applies, as in every harness.
//!
//! Catch-up messages ([`CatchUp`]) share those links, so [`TestNet::block`]
//! holds them and [`TestNet::drop_one`] can lose them like any message.
//! They are carried eagerly: after every step, each one at the head of a
//! link to an unblocked node is delivered at once. An ask and its
//! snapshot thus complete inside the step that sent the ask unless the
//! test holds them, and a boot probe never stands in front of a
//! protocol message a test delivers by hand.
//!
//! Per-message bookkeeping is O(1): links are one FIFO per directed pair
//! in a flat table indexed `from·n + to`, every commit goes to the one
//! agreement oracle ([`Agreement`]), and each node's commits are recorded
//! in one [`InstanceLog`] per (node, shard).

use std::collections::VecDeque;
use std::time::Duration;

use crate::client::{Answer, ClientEffect, ClientSession, Request, RetryPolicy};
use crate::engine::{
    AdaptiveBatch, BatchConfig, CatchUp, EngineConfig, EngineEffect, EngineEvent, EngineStats,
    ReplicaEngine, MAINT_CLIENT,
};
use crate::instance_log::InstanceLog;
use crate::kv::KvStore;
use crate::oracle::Agreement;
use crate::protocol::Protocol;
use crate::shard::{ShardId, ShardedEffects, ShardedEngine};
use crate::txn::{Fragment, TxnOutcome, TxnStatus};
use crate::types::{Command, Instance, Nanos, NodeId, Op, TxnId};

/// A recorded client reply at the harness level: who was answered, for
/// what, from where — and the state-machine output the reply carried
/// (for a transaction prepare the output **is** the shard's vote, which
/// is how a [`ClientSession`] reads votes off this harness).
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
    /// The flattened state-machine output attached to the reply. A reply
    /// leaves only after its command applied, so this is `None` only
    /// when the output holds no value (a `Get` of an absent key, a `Put`
    /// with no prior value) or the client had already superseded the
    /// request.
    pub value: Option<u64>,
}

/// The tagged effect stream produced by a `TestNet` node's engines.
type Effects<P> = ShardedEffects<<P as Protocol>::Msg, Option<u64>>;

/// How long a [`TestNet::session`] waits for a reply before it re-sends:
/// one 200 µs round of virtual time.
const CLIENT_PATIENCE: Duration = Duration::from_micros(200);

/// Deadlines one [`TestNet::call`] may pass before it declares a shard
/// group stuck.
const CALL_DEADLINES: u32 = 64;

/// One directed link's FIFO: the shard-tagged events in flight to the
/// destination's engines — protocol messages and catch-up messages.
type LinkQueue<P> = VecDeque<(ShardId, EngineEvent<<P as Protocol>::Msg, KvStore>)>;

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
    /// Per node: a slow core, whose timers do not fire and whose inbound
    /// messages stay queued.
    blocked: Vec<bool>,
    /// The deployment shape (shard groups, batching, truncation),
    /// remembered so a [`Self::reset_node`] rebuild keeps it.
    config: EngineConfig,
    /// Per-link FIFO queues, mirroring the paper's per-pair message
    /// queues, indexed `from·n + to`. One FIFO per directed pair carries
    /// **all** shard groups' messages, each tagged with its group — the
    /// multiplexing a real per-core link would do.
    links: Vec<LinkQueue<P>>,
    /// Reusable list of the links one [`Self::run_to_quiescence`] pass
    /// visits.
    pass: Vec<usize>,
    /// Catch-up messages on the links.
    catch_ups: usize,
    now: Nanos,
    /// The agreement oracle every commit is fed to as it is routed. Held
    /// outside the engines so it survives [`Self::reset_node`]: a
    /// silently rebooted node loses its state, but the oracle still
    /// catches it re-deciding an old instance differently (§5,
    /// Appendix A).
    agreement: Agreement,
    /// What each node learned, one log per (node, shard), indexed
    /// `node·shards + shard`; kept across [`Self::reset_node`] too.
    commits: Vec<InstanceLog<Command>>,
    replies: Vec<ReplyRecord>,
    delivered: u64,
    /// Every snapshot ask sent so far, as `(requester, donor)`.
    snapshot_requests: Vec<(NodeId, NodeId)>,
    /// Every snapshot sent so far, as `(server, peer)`.
    snapshot_serves: Vec<(NodeId, NodeId)>,
    /// Rebuilds per node, so each engine incarnation advocates batches
    /// in a fresh sequence epoch (recycled batch ids would be dropped as
    /// already-decided duplicates by surviving peers).
    resets: Vec<u64>,
    /// Request ids already allocated to [`Self::propose_truncate`]
    /// (issued under [`Self::PROBE_CLIENT`]).
    probe_reqs: u64,
    /// [`Self::txn_status_agreed`] probes sent so far; each is its own
    /// client, numbered up from [`Self::PROBE_CLIENT`].
    status_probes: u16,
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
    /// The synthetic client identity under which the harness proposes
    /// truncations ([`Self::propose_truncate`]); each
    /// [`Self::txn_status_agreed`] probe is a client numbered up from it.
    /// Far above any test's real client ids, below the engine's reserved
    /// identities.
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
                .map(|&me| ShardedEngine::deploy(config, &members, 0, || make(&members, me)))
                .collect(),
            blocked: vec![false; members.len()],
            config,
            links: (0..members.len() * members.len())
                .map(|_| VecDeque::new())
                .collect(),
            pass: Vec::new(),
            catch_ups: 0,
            now: 0,
            agreement: Agreement::new(config.shards),
            commits: (0..members.len() * usize::from(config.shards))
                .map(|_| InstanceLog::new())
                .collect(),
            replies: Vec::new(),
            delivered: 0,
            snapshot_requests: Vec::new(),
            snapshot_serves: Vec::new(),
            resets: vec![0; members.len()],
            probe_reqs: 0,
            status_probes: 0,
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
        self.step(id, |e, now, fx| e.start(now, fx));
    }

    /// Runs `f` on node `id`'s engines at the current time and routes
    /// what they emit.
    fn step<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut ShardedEngine<P, KvStore>, Nanos, &mut Effects<P>) -> R,
    ) -> R {
        let mut effects = std::mem::take(&mut self.scratch);
        let r = f(&mut self.engines[id.index()], self.now, &mut effects);
        self.absorb(id, &mut effects);
        self.scratch = effects;
        r
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Protocol messages delivered so far. Catch-up messages are not
    /// counted here; [`Self::snapshot_requests`] and
    /// [`Self::snapshot_serves`] record those.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of consensus groups per node (1 unless built with
    /// [`TestNetBuilder::shards`]).
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

    /// The engine wrapping node `id`'s shard 0 (deadlines, applier).
    /// Engines keep no commit or reply history; the harness records both
    /// itself, so they survive [`Self::reset_node`] ([`Self::commits`],
    /// [`Self::replies`]).
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
    ///
    /// The node rejoins warm, as a restarted runtime replica does: each
    /// shard group's boot probe asks a peer for a snapshot, and unless
    /// the test holds that catch-up (blocks the donor, drops the ask)
    /// the snapshot is installed inside this call. The fresh engines
    /// then apply from the donor's watermark instead of replaying
    /// (possibly truncated) history from instance 0. A donor group that
    /// has applied nothing sends nothing, which leaves that group cold
    /// until its gap watch asks again.
    pub fn reset_node(&mut self, id: NodeId, mut fresh: impl FnMut() -> P) {
        let members: Vec<NodeId> = (0..self.engines.len() as u16).map(NodeId).collect();
        let incarnation = &mut self.resets[id.index()];
        *incarnation += 1;
        self.engines[id.index()] =
            ShardedEngine::deploy(self.config, &members, *incarnation, &mut fresh);
        self.start_node(id);
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
        let watermark = self.engines[target.index()].stats(shard).applied;
        // Keyless, so handed to its shard directly instead of routed.
        let event = EngineEvent::ClientRequest {
            client: Self::PROBE_CLIENT,
            req_id: self.probe_reqs,
            op: Op::Truncate { watermark },
        };
        self.step(target, |e, now, fx| e.handle(shard, event, now, fx));
        watermark
    }

    /// Blocks a node: it stops processing messages and timers (a slow
    /// core). Messages addressed to it queue up.
    pub fn block(&mut self, id: NodeId) {
        self.blocked[id.index()] = true;
    }

    /// Unblocks a node; queued input becomes deliverable again.
    pub fn unblock(&mut self, id: NodeId) {
        self.blocked[id.index()] = false;
    }

    /// Whether `id` is currently blocked.
    pub fn is_blocked(&self, id: NodeId) -> bool {
        self.blocked[id.index()]
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
        self.step(target, |e, now, fx| e.submit(client, req_id, op, now, fx))
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
        self.step(target, |e, now, fx| {
            e.read_relaxed(client, req_id, key, now, fx)
        })
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

    /// A client session for `id` that prefers replica `first`, then the
    /// other nodes in id order. It re-sends what is outstanding every
    /// 200 µs of virtual time and never gives up on its own; a
    /// [`Self::call`] bounds the wait.
    pub fn session(&self, id: NodeId, first: NodeId) -> ClientSession {
        let others = (0..self.engines.len() as u16)
            .map(NodeId)
            .filter(|&n| n != first);
        let replicas = std::iter::once(first).chain(others).collect();
        let router = self.engines[first.index()].router();
        let policy = RetryPolicy::fixed(CLIENT_PATIENCE, u32::MAX);
        ClientSession::new(id, replicas, router, policy, u64::from(id.0))
    }

    /// Runs one call of session `s` to its answer. `start` begins the
    /// call at the current time (e.g. `|s, now, out| s.submit(op, now,
    /// out)`); each request it sends goes in through
    /// [`Self::client_request`] or [`Self::read_relaxed`], the net runs
    /// to quiescence, and `s`'s replies are fed back to it. While the
    /// call waits, virtual time advances to the session's next deadline.
    /// Returns once the call completed and no outcome leg is still
    /// draining, so the next call starts on a quiet network.
    ///
    /// # Panics
    ///
    /// Panics if the call passes 64 deadlines unfinished (a stuck shard
    /// group).
    pub fn call(
        &mut self,
        s: &mut ClientSession,
        start: impl FnOnce(&mut ClientSession, Nanos, &mut Vec<ClientEffect>),
    ) -> Answer {
        let mut out = Vec::new();
        start(s, self.now, &mut out);
        let (me, mut seen, mut answer, mut deadlines) = (s.id(), self.replies.len(), None, 0);
        loop {
            for effect in out.drain(..) {
                match effect {
                    ClientEffect::Send {
                        to,
                        req_id,
                        request,
                    } => match request {
                        Request::Op(op) => _ = self.client_request(to, me, req_id, op),
                        Request::Read { key } => _ = self.read_relaxed(to, me, req_id, key),
                    },
                    ClientEffect::Complete { result } => answer = result.ok(),
                }
            }
            self.run_to_quiescence();
            for r in self.replies[seen..].iter().filter(|r| r.client == me) {
                s.on_reply(r.req_id, r.value, self.now, &mut out);
            }
            seen = self.replies.len();
            if !out.is_empty() {
                continue;
            }
            if let Some(answer) = answer.filter(|_| !s.draining()) {
                return answer;
            }
            deadlines += 1;
            assert!(
                deadlines <= CALL_DEADLINES,
                "call did not finish within {CALL_DEADLINES} deadlines"
            );
            let due = s.next_deadline().expect("a waiting call has a deadline");
            self.advance(due.saturating_sub(self.now));
            s.on_deadline(self.now, &mut out);
        }
    }

    /// Writes `writes` atomically through session `s` (see
    /// [`ClientSession::txn_put`]) and returns the transaction's outcome.
    pub fn txn_put(&mut self, s: &mut ClientSession, writes: &[(u64, u64)]) -> TxnOutcome {
        self.call(s, |s, now, out| s.txn_put(writes, now, out))
            .txn()
    }

    /// Drives `outcome` for the dead coordinator's transaction `txn`
    /// through session `s` (see [`ClientSession::recover`]) and returns
    /// it once every touched shard acknowledged.
    pub fn recover(
        &mut self,
        s: &mut ClientSession,
        txn: TxnId,
        writes: &[(u64, u64)],
        outcome: TxnOutcome,
    ) -> TxnOutcome {
        self.call(s, |s, now, out| s.recover(txn, writes, outcome, now, out))
            .txn()
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
    /// Each probe is a fresh session of its own client id (see
    /// [`Self::PROBE_CLIENT`]) preferring `target`, run by
    /// [`Self::call`].
    ///
    /// # Panics
    ///
    /// Panics if the probe does not decide within the call's deadline
    /// budget (a stuck shard group), or if it answers with an output no
    /// probe produces.
    pub fn txn_status_agreed(&mut self, target: NodeId, routing_key: u64, txn: TxnId) -> TxnStatus {
        self.status_probes += 1;
        let id = NodeId(Self::PROBE_CLIENT.0 + self.status_probes);
        assert!(id < MAINT_CLIENT, "out of status-probe client ids");
        let mut s = self.session(id, target);
        let op = Op::TxnStatus {
            txn,
            key: routing_key,
        };
        let answer = self.call(&mut s, |s, now, out| s.submit(op, now, out));
        answer
            .value()
            .and_then(TxnStatus::from_output)
            .expect("probe output is a status")
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

    /// The index of link `(from, to)` in `links`.
    fn link(&self, from: NodeId, to: NodeId) -> usize {
        let n = self.engines.len();
        assert!(from.index() < n && to.index() < n, "no link {from} → {to}");
        from.index() * n + to.index()
    }

    /// The `(from, to)` pair of link `i`.
    fn link_ends(&self, i: usize) -> (NodeId, NodeId) {
        let n = self.engines.len();
        (NodeId((i / n) as u16), NodeId((i % n) as u16))
    }

    /// Whether link `i` holds a message its (unblocked) destination can
    /// take.
    fn is_deliverable(&self, i: usize) -> bool {
        !self.links[i].is_empty() && !self.blocked[i % self.engines.len()]
    }

    /// Links `(from, to)` that currently hold at least one deliverable
    /// message (destination not blocked), in `(from, to)` order.
    pub fn deliverable_links(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.links.len())
            .filter(|&i| self.is_deliverable(i))
            .map(|i| self.link_ends(i))
            .collect()
    }

    /// Takes the head-of-line message off link `i`, keeping the
    /// catch-up count.
    fn pop(&mut self, i: usize) -> Option<(ShardId, EngineEvent<P::Msg, KvStore>)> {
        let head = self.links[i].pop_front()?;
        if let (_, EngineEvent::CatchUp { .. }) = head {
            self.catch_ups -= 1;
        }
        Some(head)
    }

    /// Delivers the head-of-line message on `(from, to)` to its shard
    /// group. Returns `false` if there was none or the destination is
    /// blocked.
    pub fn deliver_one(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.is_blocked(to) {
            return false;
        }
        let Some((shard, event)) = self.pop(self.link(from, to)) else {
            return false;
        };
        if let EngineEvent::Message { .. } = event {
            self.delivered += 1;
        }
        self.step(to, |e, now, fx| e.handle(shard, event, now, fx));
        true
    }

    /// Drops the head-of-line message on `(from, to)` without delivering
    /// it. The paper assumes reliable links, so protocol *safety* tests may
    /// use this only to emulate a message that is still in flight forever
    /// behind a blocked core.
    pub fn drop_one(&mut self, from: NodeId, to: NodeId) -> bool {
        self.pop(self.link(from, to)).is_some()
    }

    /// Delivers messages in deterministic (link-ordered, FIFO) rounds until
    /// no deliverable message remains: each round drains, in `(from, to)`
    /// order, the links that were deliverable when it began. Panics if
    /// `limit` deliveries are exceeded (a livelock guard for tests).
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
        let mut pass = std::mem::take(&mut self.pass);
        loop {
            pass.clear();
            pass.extend((0..self.links.len()).filter(|&i| self.is_deliverable(i)));
            if pass.is_empty() {
                self.pass = pass;
                return;
            }
            for &i in &pass {
                let (from, to) = self.link_ends(i);
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
    /// order), then returns. Delivers no protocol message; catch-up
    /// messages are carried eagerly, as after any step (see the
    /// [module docs](self)).
    pub fn advance(&mut self, delta: Nanos) {
        self.now += delta;
        for i in 0..self.engines.len() as u16 {
            if !self.is_blocked(NodeId(i)) {
                // The slow core is not getting cycles.
                self.step(NodeId(i), |e, now, fx| e.fire_due(now, fx));
            }
        }
    }

    /// Delivers every catch-up message at the head of a link to an
    /// unblocked node, and the catch-up those deliveries send in turn.
    fn deliver_catch_up(&mut self) {
        while self.catch_ups > 0 {
            let head_is_catch_up = |i: usize| {
                self.is_deliverable(i)
                    && matches!(
                        self.links[i].front(),
                        Some((_, EngineEvent::CatchUp { .. }))
                    )
            };
            let Some(i) = (0..self.links.len()).find(|&i| head_is_catch_up(i)) else {
                return;
            };
            let (from, to) = self.link_ends(i);
            self.deliver_one(from, to);
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
    /// the record belongs to the harness, not to the (rebootable) node.
    /// Sharded nets inspect each group with [`Self::shard_commits`].
    pub fn commits(&self, node: NodeId) -> &InstanceLog<Command> {
        self.shard_commits(node, ShardId(0))
    }

    /// Commits recorded at one shard group's member on `node`.
    pub fn shard_commits(&self, node: NodeId, shard: ShardId) -> &InstanceLog<Command> {
        &self.commits[self.commit_log(node, shard)]
    }

    /// The index of `(node, shard)`'s log in `commits`.
    fn commit_log(&self, node: NodeId, shard: ShardId) -> usize {
        let shards = usize::from(self.config.shards);
        assert!(
            node.index() < self.engines.len() && shard.index() < shards,
            "no commit log for {node} shard {}",
            shard.index()
        );
        node.index() * shards + shard.index()
    }

    /// All recorded client replies, in emission order.
    pub fn replies(&self) -> &[ReplyRecord] {
        &self.replies
    }

    /// Every snapshot ask the engines' maintenance sent, as
    /// `(requester, donor)` in send order, boot probes included.
    pub fn snapshot_requests(&self) -> &[(NodeId, NodeId)] {
        &self.snapshot_requests
    }

    /// Every snapshot an engine sent, as `(server, peer)` in send order:
    /// answers to asks as well as unasked serves of peers that reached
    /// below the server's truncation floor.
    pub fn snapshot_serves(&self) -> &[(NodeId, NodeId)] {
        &self.snapshot_serves
    }

    /// Asserts that the replicas' applied states agree, per shard group:
    /// any two nodes at the same applied watermark hold the same
    /// key/value state ([`KvStore::digest`]). The agreement oracle
    /// already panicked at the first learn that disagreed (Appendix B
    /// *consistency*); this catches state that reached a replica without
    /// a learn — a snapshot install — and differs from its peers'.
    ///
    /// # Panics
    ///
    /// Panics on violation, naming both nodes, the shard and the
    /// watermark.
    pub fn assert_consistent(&self) {
        for shard in (0..self.config.shards).map(ShardId) {
            let mut seen: Vec<(Instance, u64, NodeId)> = Vec::new();
            for (i, engine) in self.engines.iter().enumerate() {
                let node = NodeId(i as u16);
                let applied = engine.stats(shard).applied;
                let digest = engine.shard(shard).state().digest();
                match seen.iter().find(|&&(at, ..)| at == applied) {
                    Some(&(_, first, peer)) => assert!(
                        first == digest,
                        "{peer} and {node} shard {shard} at applied watermark {applied}: \
                         state digests {first:#x} and {digest:#x} differ"
                    ),
                    None => seen.push((applied, digest, node)),
                }
            }
        }
    }

    /// Routes one node's tagged effects: sends into per-link FIFOs
    /// (multiplexing all shard groups, tagged), commits into the
    /// agreement oracle, and replies and commits into the harness-level
    /// records (which outlive node resets, unlike the engines they came
    /// from). Then puts the catch-up messages the node's engines sent in
    /// the same step on their links, and carries what can go at once.
    fn absorb(&mut self, me: NodeId, effects: &mut Effects<P>) {
        for (shard, effect) in effects.drain(..) {
            match effect {
                EngineEffect::SendTo { to, msg } => {
                    let i = self.link(me, to);
                    let event = EngineEvent::Message { from: me, msg };
                    self.links[i].push_back((shard, event));
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
                    self.agreement.learn(shard, me, instance, &cmd);
                    let log = self.commit_log(me, shard);
                    self.commits[log].insert(instance, cmd);
                }
            }
        }
        while let Some((shard, to, msg)) = self.engines[me.index()].take_catch_up() {
            match msg {
                CatchUp::Ask { .. } => self.snapshot_requests.push((me, to)),
                CatchUp::Snapshot(_) => self.snapshot_serves.push((me, to)),
            }
            let i = self.link(me, to);
            self.links[i].push_back((shard, EngineEvent::CatchUp { from: me, msg }));
            self.catch_ups += 1;
        }
        self.deliver_catch_up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Outbox;

    /// A trivial echo protocol for exercising the harness itself.
    struct Echo {
        me: NodeId,
        peers: Vec<NodeId>,
        seen: usize,
        /// Senders of the messages received, in delivery order.
        heard: Vec<NodeId>,
    }

    impl Protocol for Echo {
        type Msg = u64;

        fn node_id(&self) -> NodeId {
            self.me
        }

        fn on_start(&mut self, _now: Nanos, out: &mut Outbox<u64>) {
            out.set_tick(1_000);
        }

        fn on_message(&mut self, from: NodeId, msg: u64, _now: Nanos, out: &mut Outbox<u64>) {
            self.seen += 1;
            self.heard.push(from);
            if msg > 0 {
                for &p in &self.peers {
                    if p != self.me {
                        out.send(p, msg - 1);
                    }
                }
            }
        }

        fn on_tick(&mut self, _now: Nanos, _out: &mut Outbox<u64>) {
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
    }

    fn echo_net(n: u16) -> TestNet<Echo> {
        TestNet::new(n, |members, me| Echo {
            me,
            peers: members.to_vec(),
            seen: 0,
            heard: Vec::new(),
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
    fn a_pass_visits_only_the_links_deliverable_when_it_began() {
        let mut net = echo_net(3);
        // n2's and n0's fan-outs fill (0,1), (0,2), (2,0) and (2,1).
        net.client_request(NodeId(2), NodeId(9), 1, Op::Noop);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        assert_eq!(net.deliverable_links().len(), 4);
        net.run_to_quiescence();
        // Draining (0,1) fills (1,0), which sorts before (2,0) but was
        // empty when the pass began: n0 hears n1 only in the next pass.
        let heard = &net.node(NodeId(0)).heard;
        assert_eq!(heard, &[NodeId(2), NodeId(2), NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "no commit log")]
    fn a_shard_past_the_config_has_no_commit_log() {
        // One shard: (n0, shard 1) would index n1's log.
        let net = echo_net(2);
        net.shard_commits(NodeId(0), ShardId(1));
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
                net.shard_commits(NodeId(0), s).keys().next().unwrap(),
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
        use crate::txn::TxnOutcome;
        use crate::ClusterConfig;
        let mut net = TestNet::builder(3)
            .shards(4)
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        let router = ShardRouter::new(4);
        let mut s = net.session(NodeId(9), NodeId(0));
        // Keys spanning two distinct shards.
        let k0 = 0u64;
        let k1 = (1u64..)
            .find(|&k| router.route_key(k) != router.route_key(k0))
            .unwrap();
        assert_eq!(
            net.txn_put(&mut s, &[(k0, 10), (k1, 11)]),
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
            net.txn_put(&mut s, &[(k0, 20), (twin, 21)]),
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
        use crate::txn::TxnOutcome;
        use crate::ClusterConfig;
        // Fragments ride the per-shard batch accumulators like any
        // client command; the call's deadlines advance time and flush
        // the tails.
        let mut net = TestNet::builder(3)
            .shards(2)
            .batching(BatchConfig::new(4, 1_000))
            .build(|m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
        let router = ShardRouter::new(2);
        let mut s = net.session(NodeId(9), NodeId(0));
        let k0 = 0u64;
        let k1 = (1u64..)
            .find(|&k| router.route_key(k) != router.route_key(k0))
            .unwrap();
        assert_eq!(
            net.txn_put(&mut s, &[(k0, 1), (k1, 2)]),
            TxnOutcome::Committed
        );
        assert_eq!(net.kv_get(NodeId(1), k0), Some(1));
        assert_eq!(net.kv_get(NodeId(1), k1), Some(2));
        net.assert_consistent();
    }

    #[test]
    fn a_session_call_answers_with_the_applied_value() {
        use crate::twopc::TwoPcNode;
        use crate::ClusterConfig;
        let mut net = TestNet::new(3, |m, me| {
            TwoPcNode::new(ClusterConfig::new(m.to_vec(), me))
        });
        let mut s = net.session(NodeId(9), NodeId(1));
        let put = Op::Put { key: 4, value: 44 };
        let first = net.call(&mut s, |s, now, out| s.submit(put, now, out));
        assert_eq!(first, Answer::Value(None), "no prior value");
        let get = Op::Get { key: 4 };
        let ordered = net.call(&mut s, |s, now, out| s.submit(get, now, out));
        assert_eq!(ordered, Answer::Value(Some(44)));
        let relaxed = net.call(&mut s, |s, now, out| s.read_relaxed(NodeId(2), 4, now, out));
        assert_eq!(relaxed, Answer::Value(Some(44)));
        // Each call ran under the session's next id; the coordinator
        // answers commands, the asked replica the relaxed read.
        let sent: Vec<_> = net.replies().iter().map(|r| (r.req_id, r.from)).collect();
        assert_eq!(sent, [(1, NodeId(0)), (2, NodeId(0)), (3, NodeId(2))]);
    }

    #[test]
    fn a_session_moves_past_a_blocked_replica() {
        use crate::onepaxos::OnePaxosNode;
        use crate::ClusterConfig;
        let mut net = TestNet::new(3, |m, me| {
            OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
        });
        net.run_to_quiescence(); // n0 leads, n1 accepts, n2 idles
        net.block(NodeId(2));
        let mut s = net.session(NodeId(9), NodeId(2));
        let put = Op::Put { key: 4, value: 44 };
        net.call(&mut s, |s, now, out| s.submit(put, now, out));
        assert_eq!(s.target(ShardId(0)), NodeId(0), "one deadline moved it");
        assert_eq!(net.now(), 200_000, "after one 200 µs patience");
        assert_eq!(net.kv_get(NodeId(0), 4), Some(44));
    }

    #[test]
    fn a_reset_node_rejoins_warm_and_answers_its_own_client() {
        use crate::onepaxos::OnePaxosNode;
        use crate::ClusterConfig;
        let make = |m: &[NodeId], me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me));
        let (n0, n2) = (NodeId(0), NodeId(2));
        let mut net = TestNet::new(3, make);
        net.run_to_quiescence();
        net.client_request(n0, NodeId(9), 1, Op::Put { key: 1, value: 10 });
        net.run_to_quiescence();
        let members = [NodeId(0), NodeId(1), NodeId(2)];
        net.reset_node(n2, || make(&members, n2));
        net.client_request(n0, NodeId(9), 2, Op::Put { key: 2, value: 20 });
        net.run_to_quiescence();
        net.client_request(n2, NodeId(10), 1, Op::Put { key: 3, value: 30 });
        net.run_to_quiescence();
        for (key, value) in [(1, 10), (2, 20), (3, 30)] {
            assert_eq!(net.kv_get(n2, key), Some(value), "key {key} at n2");
        }
        assert_eq!(net.engine_stats(n2).applied, 3);
        let answered = |r: &&ReplyRecord| r.client == NodeId(10) && r.from == n2;
        assert_eq!(net.replies().iter().filter(answered).count(), 1);
        net.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "n0 and n2 shard s0 at applied watermark 1")]
    fn a_tampered_snapshot_install_fails_the_consistency_check() {
        use crate::onepaxos::OnePaxosNode;
        use crate::ClusterConfig;
        let make = |m: &[NodeId], me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me));
        let mut net = TestNet::new(3, make);
        net.run_to_quiescence();
        let op = Op::Put { key: 7, value: 1 };
        net.client_request(NodeId(0), NodeId(9), 1, op);
        net.run_to_quiescence();
        net.assert_consistent();
        let (donor, stale) = (NodeId(0), NodeId(2));
        let mut snap = net.engines[donor.index()]
            .shard(ShardId(0))
            .applier()
            .snapshot();
        assert_eq!((snap.watermark, &snap.state.map[..]), (1, &[(7, 1)][..]));
        snap.state.map[0].1 = 2;
        let members = [NodeId(0), NodeId(1), NodeId(2)];
        // Hold the boot probe, so the donor's real snapshot never comes.
        net.block(donor);
        net.reset_node(stale, || make(&members, stale));
        assert!(net.drop_one(stale, donor));
        net.unblock(donor);
        let event = EngineEvent::CatchUp {
            from: donor,
            msg: CatchUp::Snapshot(Box::new(snap)),
        };
        net.step(stale, |e, now, fx| e.handle(ShardId(0), event, now, fx));
        net.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "call did not finish within 64 deadlines")]
    fn a_call_nobody_answers_panics_after_its_deadline_budget() {
        let mut net = echo_net(2);
        let mut s = net.session(NodeId(9), NodeId(0));
        net.call(&mut s, |s, now, out| s.submit(Op::Noop, now, out));
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

    /// The `engine_burst` shape for 200 rounds (3 nodes, 4 shards,
    /// batches of 16, 64 puts a round to node 0): messages delivered,
    /// node 0's `(flushes, size, deadline)` flush counts, and a hash of
    /// the `(client, req_id, instance, from)` reply sequence.
    fn burst_schedule<P: Protocol>(
        make: impl FnMut(&[NodeId], NodeId) -> P,
    ) -> (u64, (u64, u64, u64), u64) {
        use crate::shard::mix64;
        let mut net = TestNet::builder(3)
            .shards(4)
            .batching(BatchConfig::new(16, 20_000))
            .build(make);
        net.run_to_quiescence();
        for round in 0..200u64 {
            for c in 0..64u64 {
                let key = c * 16 + (round * 7 + c) % 16;
                let op = Op::Put { key, value: round };
                net.client_request(NodeId(0), NodeId(100 + c as u16), round + 1, op);
            }
            net.run_to_quiescence();
            net.advance(20_000);
            net.run_to_quiescence();
        }
        // A reply leaves once its command applies, so Mencius's last
        // round waits for the idle owners' skips to fill its gaps.
        for _ in 0..8 {
            if net.replies().len() == 200 * 64 {
                break;
            }
            net.advance_and_settle(20_000, 1);
        }
        assert_eq!(net.replies().len(), 200 * 64);
        let hash = net.replies().iter().fold(0u64, |h, r| {
            [
                u64::from(r.client.0),
                r.req_id,
                r.instance,
                u64::from(r.from.0),
            ]
            .into_iter()
            .fold(h, |h, x| mix64(h ^ x))
        });
        let stats = net.engine_stats(NodeId(0));
        let flushes = (stats.flushes, stats.size_flushes, stats.deadline_flushes);
        (net.delivered(), flushes, hash)
    }

    /// Pins the delivery schedule: the counts and the reply hash must not
    /// move when the harness's bookkeeping changes. 1Paxos is the
    /// benchmark's protocol; Mencius sends between every pair of nodes,
    /// so its pin also fixes the order links are visited in.
    #[test]
    fn burst_schedule_is_pinned() {
        use crate::mencius::MenciusNode;
        use crate::onepaxos::OnePaxosNode;
        use crate::ClusterConfig;
        let one = burst_schedule(|m, me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me)));
        assert_eq!(one, (3614, (1202, 489, 713), 0xecc1_c958_2fb9_b17f));
        let mencius = burst_schedule(|m, me| MenciusNode::new(ClusterConfig::new(m.to_vec(), me)));
        assert_eq!(mencius, (28784, (1202, 489, 713), 0x2dee_93de_5cb3_fcd7));
    }
}
