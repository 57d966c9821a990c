//! Key-hash-routed multi-group consensus: S independent replica engines
//! behind one router.
//!
//! The paper's thesis is that agreement inside a machine is bounded by
//! per-message CPU cost on the hot cores, not by propagation (§3). PR 1
//! made [`ReplicaEngine`] the one protocol-agnostic unit of execution and
//! PR 2 made each agreement carry a batch; this module adds the remaining
//! structural multiplier: run **S independent consensus groups** over the
//! same set of nodes and route every command to a group by the hash of its
//! key. Throughput then scales with the number of cores hosting shard
//! leaders while the protocol code stays untouched — the same
//! partition-by-instance idea Mencius applies to *leaders*, applied here
//! to the *key space*.
//!
//! # Model
//!
//! A [`ShardedEngine`] owns one [`ReplicaEngine`] per shard. Each shard is
//! a complete, independent consensus group: its own instance log, its own
//! timers, its own batch accumulator, its own applied state-machine
//! replica. Nothing is shared between shards, which is exactly why they
//! scale — and why cross-shard operations (transactions) need a protocol
//! of their own (see the `twopc` module for the natural candidate).
//!
//! Routing is **deterministic and key-stable**: the same key always maps
//! to the same shard ([`ShardRouter::route_key`]), so every node of the
//! cluster, every client, and every incarnation of either agrees on which
//! group owns which key without coordination. Keyless commands
//! ([`Op::Noop`]) route by client id, spreading closed-loop load evenly.
//!
//! # Batching composes with sharding
//!
//! Batches must never span shards (a batch travels through one group's
//! log), so the accumulator lives *per shard*: requests are routed first
//! and coalesce inside their shard's engine. [`Op::Batch`] commands
//! therefore never need routing themselves — they are built downstream of
//! it.
//!
//! # Harness contract
//!
//! Harnesses drive shards exactly like single engines, with a [`ShardId`]
//! tag on both directions: [`ShardedEngine::handle`] takes the shard a
//! message or timer belongs to, and every emitted effect is tagged with
//! the shard that produced it, so one transport link can multiplex all S
//! groups. [`ShardedEngine::next_deadline`] merges the per-shard timer
//! tables for sleep-until-deadline schedulers. Background maintenance
//! (see [`crate::engine`]) is per group too, and
//! [`ShardedEngine::deploy`] switches it on in every group, so every
//! harness runs the same catch-up.
//! Catch-up messages travel like protocol messages, shard-tagged both
//! ways: [`ShardedEngine::take_catch_up`] yields each one a group sends,
//! and the receiving node hands it to the same group's
//! [`ShardedEngine::handle`] as an [`EngineEvent::CatchUp`].
//!
//! # Example
//!
//! ```
//! use onepaxos::engine::{EngineEffect, ReplicaEngine};
//! use onepaxos::kv::KvStore;
//! use onepaxos::shard::{ShardId, ShardedEngine};
//! use onepaxos::twopc::TwoPcNode;
//! use onepaxos::{ClusterConfig, NodeId, Op};
//!
//! // Four single-node 2PC groups: each decides immediately.
//! let mut sharded = ShardedEngine::new(4, |shard| {
//!     let cfg = ClusterConfig::new(vec![NodeId(0)], NodeId(0));
//!     ReplicaEngine::new(TwoPcNode::new(cfg), KvStore::new()).with_shard(shard)
//! });
//! let mut effects = Vec::new();
//! sharded.start(0, &mut effects);
//! let owner = sharded.submit(NodeId(9), 1, Op::Put { key: 7, value: 70 }, 0, &mut effects);
//! assert_eq!(owner, sharded.router().route_key(7));
//! assert!(effects
//!     .iter()
//!     .any(|(s, e)| *s == owner && matches!(e, EngineEffect::Committed { .. })));
//! assert_eq!(sharded.kv_get(7), Some(70));
//! ```

use std::fmt;

use crate::engine::{
    BatchConfig, CatchUp, EffectSink, EngineConfig, EngineEffect, EngineEvent, EngineStats,
    ReplicaEngine,
};
use crate::protocol::Protocol;
use crate::rsm::StateMachine;
use crate::types::{Nanos, NodeId, Op};

/// Identifier of one consensus group (shard) inside a sharded deployment.
///
/// Shards are numbered `0..S`; the id tags engine events and effects so a
/// single transport link can multiplex all groups.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The shard id as a zero-based index (for vector indexing).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Deterministic, key-stable assignment of commands to shards.
///
/// Every node, client and harness builds its own router from the shard
/// count alone; no coordination, no routing tables. The hash is a
/// fixed-point finalizer (SplitMix64's), so nearby keys spread evenly and
/// the mapping never changes between runs or processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u16,
}

/// SplitMix64 finalizer: full-avalanche mixing so sequential keys do not
/// clump on one shard.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One SplitMix64 step (Steele, Lea & Flood): advances `state` by the
/// golden-ratio increment and returns it through `mix64`. The one
/// deterministic generator behind the client's retry jitter, the
/// simulator's `SimRng`, the runtime's reconnect jitter and its seeded
/// fault schedules.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

impl ShardRouter {
    /// Creates a router over `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u16) -> Self {
        assert!(shards >= 1, "a deployment has at least one shard");
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The shard owning `key`. Deterministic and key-stable: the same key
    /// maps to the same shard on every node, forever.
    pub fn route_key(&self, key: u64) -> ShardId {
        ShardId((mix64(key) % u64::from(self.shards)) as u16)
    }

    /// The shard a command from `client` performing `op` routes to: keyed
    /// operations go by key hash, keyless ones ([`Op::Noop`]) by client
    /// hash so closed-loop load spreads evenly.
    ///
    /// # Panics
    ///
    /// Panics on [`Op::Batch`]: batches are assembled per shard,
    /// *downstream* of routing, so one reaching the router could only
    /// mean a client submitted a pre-built batch — routing it by client
    /// hash would land its constituents in a shard that does not own
    /// their keys and silently break the disjoint-partition invariant
    /// every read path depends on. Failing loudly (in release builds
    /// too) is the only safe answer.
    pub fn route(&self, client: NodeId, op: &Op) -> ShardId {
        assert!(
            !matches!(op, Op::Batch(_)),
            "batches are built per shard and must not be routed"
        );
        // A multi-key fragment (transaction prepare or single-shard
        // multi-put) routes by its first key; the coordinator must have
        // partitioned the write set so the rest agree.
        if let Op::MultiPut { writes } | Op::TxnPrepare { writes, .. } = op {
            debug_assert!(
                writes
                    .iter()
                    .all(|&(k, _)| self.route_key(k) == self.route_key(writes[0].0)),
                "write-set fragment crosses shards — mis-partitioned coordinator"
            );
        }
        match op.key() {
            Some(key) => self.route_key(key),
            None => ShardId((mix64(u64::from(client.0)) % u64::from(self.shards)) as u16),
        }
    }
}

/// The tagged effect stream of a sharded engine: which shard produced
/// each [`EngineEffect`].
pub type ShardedEffects<M, O> = Vec<(ShardId, EngineEffect<M, O>)>;

/// The sink one shard's engine writes through: each effect lands in the
/// caller's stream already tagged with `shard`.
struct Tagged<'a, M, O> {
    shard: ShardId,
    effects: &'a mut ShardedEffects<M, O>,
}

impl<M, O> EffectSink<M, O> for Tagged<'_, M, O> {
    fn push(&mut self, effect: EngineEffect<M, O>) {
        self.effects.push((self.shard, effect));
    }
}

/// S independent [`ReplicaEngine`]s behind one key-hash router; see the
/// [module docs](self) for the model.
#[derive(Debug)]
pub struct ShardedEngine<P: Protocol, S: StateMachine> {
    router: ShardRouter,
    shards: Vec<ReplicaEngine<P, S>>,
}

impl<P: Protocol, S: StateMachine> ShardedEngine<P, S> {
    /// Builds `shards` engines with `make(shard)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u16, mut make: impl FnMut(ShardId) -> ReplicaEngine<P, S>) -> Self {
        ShardedEngine {
            router: ShardRouter::new(shards),
            shards: (0..shards).map(|s| make(ShardId(s))).collect(),
        }
    }

    /// The router shared by every node of this deployment.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.router.shards()
    }

    /// The engine of one shard.
    pub fn shard(&self, s: ShardId) -> &ReplicaEngine<P, S> {
        &self.shards[s.index()]
    }

    /// Mutable access to one shard's engine (harness drivers, white-box
    /// assertions).
    pub fn shard_mut(&mut self, s: ShardId) -> &mut ReplicaEngine<P, S> {
        &mut self.shards[s.index()]
    }

    /// Iterates the shards in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &ReplicaEngine<P, S>)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, e)| (ShardId(i as u16), e))
    }

    /// Feeds `event` to shard `s` at time `now`, appending the resulting
    /// effects tagged with `s`.
    pub fn handle(
        &mut self,
        s: ShardId,
        event: EngineEvent<P::Msg, S>,
        now: Nanos,
        effects: &mut ShardedEffects<P::Msg, S::Output>,
    ) {
        let mut sink = Tagged { shard: s, effects };
        self.shards[s.index()].handle_into(event, now, &mut sink);
    }

    /// Routes a client request to its owning shard, feeds it there, and
    /// returns the shard it went to. This is the entry point that keeps
    /// callers shard-oblivious; the shard's own batch accumulator
    /// coalesces it from here ([`Op::Batch`] constituents are routed
    /// *before* batching by construction).
    pub fn submit(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        effects: &mut ShardedEffects<P::Msg, S::Output>,
    ) -> ShardId {
        let s = self.router.route(client, &op);
        self.handle(
            s,
            EngineEvent::ClientRequest { client, req_id, op },
            now,
            effects,
        );
        s
    }

    /// Bootstraps every shard (runs each protocol's `on_start`).
    pub fn start(&mut self, now: Nanos, effects: &mut ShardedEffects<P::Msg, S::Output>) {
        for s in 0..self.shards() {
            self.handle(ShardId(s), EngineEvent::Start, now, effects);
        }
    }

    /// Fires every due timer of every shard (in shard order); returns how
    /// many fired across all shards.
    pub fn fire_due(
        &mut self,
        now: Nanos,
        effects: &mut ShardedEffects<P::Msg, S::Output>,
    ) -> usize {
        let mut fired = 0;
        for (i, engine) in self.shards.iter_mut().enumerate() {
            let mut sink = Tagged {
                shard: ShardId(i as u16),
                effects: &mut *effects,
            };
            fired += engine.fire_due_into(now, &mut sink);
        }
        fired
    }

    /// The earliest armed deadline **across all shards** — what a
    /// sleep-until-deadline harness must wake for. Per-shard deadlines
    /// are available through [`Self::shard`] when shards live on
    /// different cores.
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.shards.iter().filter_map(|e| e.next_deadline()).min()
    }

    /// Enables or disables command batching on every shard. Each shard
    /// keeps its own accumulator, so batches never span shards.
    ///
    /// # Panics
    ///
    /// Panics if any shard currently has requests buffered.
    pub fn set_batching(&mut self, cfg: Option<BatchConfig>) {
        for e in &mut self.shards {
            e.set_batching(cfg);
        }
    }

    /// Batching counters of one shard group's engine (each shard runs
    /// its own accumulator — and, under [`BatchConfig::Adaptive`], its
    /// own depth controller, since per-shard load diverges under key
    /// skew).
    pub fn stats(&self, s: ShardId) -> EngineStats {
        self.shards[s.index()].stats()
    }

    /// Batching counters folded across every shard: counts add, `depth`
    /// reports the deepest controller (see [`EngineStats::absorb`]).
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for e in &self.shards {
            total.absorb(&e.stats());
        }
        total
    }

    /// Takes the next catch-up message any shard group is sending (see
    /// [`ReplicaEngine::take_catch_up`]), as `(shard, to, message)` —
    /// for the harness to send after [`Self::start`], [`Self::fire_due`]
    /// and each handled event.
    pub fn take_catch_up(&mut self) -> Option<(ShardId, NodeId, CatchUp<S>)> {
        self.shards.iter_mut().enumerate().find_map(|(i, e)| {
            let (to, msg) = e.take_catch_up()?;
            Some((ShardId(i as u16), to, msg))
        })
    }

    /// Routes a relaxed read (§7.5) of `key` to its owning shard, feeds
    /// it there as [`EngineEvent::ReadRelaxed`] — served, parked or
    /// ordered by that shard's engine — and returns the shard it went
    /// to. Reading only from the one group that orders the key's writes
    /// is what keeps cross-shard reads correct.
    pub fn read_relaxed(
        &mut self,
        client: NodeId,
        req_id: u64,
        key: u64,
        now: Nanos,
        effects: &mut ShardedEffects<P::Msg, S::Output>,
    ) -> ShardId {
        let s = self.router.route_key(key);
        let event = EngineEvent::ReadRelaxed {
            client,
            req_id,
            key,
        };
        self.handle(s, event, now, effects);
        s
    }

    /// Whether `key` is readable from its owning shard's local replica
    /// right now, and its value if so (see
    /// [`ReplicaEngine::local_read`]; a test oracle).
    pub fn local_read(&self, key: u64) -> Option<S::Output> {
        self.shards[self.router.route_key(key).index()].local_read(key)
    }
}

impl<P: Protocol> ShardedEngine<P, crate::kv::KvStore> {
    /// One node's engines in the deployment shape `config` describes —
    /// what every harness runs: a KV replica per shard group around
    /// `node()`, batching as configured, and background maintenance on
    /// in every group (see [`crate::engine`]): the gap watch and the
    /// boot probe always, agreed truncation when `config.truncate_every`
    /// is set. `members` is the group's membership; every member but
    /// this node is a snapshot donor.
    ///
    /// `incarnation` counts the slot's engines: 0 at boot, one more per
    /// restart. Each incarnation advocates batches in its own id range,
    /// so a restarted replica never reuses a batch id its predecessor got
    /// decided (surviving peers would drop it as a duplicate).
    pub fn deploy(
        config: EngineConfig,
        members: &[NodeId],
        incarnation: u64,
        mut node: impl FnMut() -> P,
    ) -> Self {
        let mut e = ShardedEngine::new(config.shards, |shard| {
            let mut e = ReplicaEngine::new(node(), crate::kv::KvStore::new()).with_shard(shard);
            e.enter_batch_epoch(incarnation);
            e.enable_maintenance(members, config.truncate_every);
            e
        });
        e.set_batching(config.batching);
        e
    }

    /// Reads `key` from its owning shard's applied replica, ungated (for
    /// harness oracles and tests; clients go through
    /// [`Self::read_relaxed`]).
    pub fn kv_get(&self, key: u64) -> Option<u64> {
        self.shards[self.router.route_key(key).index()]
            .state()
            .get(key)
    }

    /// This node's **locally-applied** view of transaction `txn` at the
    /// shard owning `routing_key` (any key of that shard's fragment) —
    /// a per-replica test oracle. A replica lagging its group's decided
    /// log under-reports, so coordinator recovery must not read status
    /// here: it goes through the agreed probe
    /// [`Op::TxnStatus`] instead (see
    /// [`crate::txn::recover_outcome`]'s freshness contract).
    pub fn txn_status(&self, routing_key: u64, txn: crate::types::TxnId) -> crate::txn::TxnStatus {
        self.shards[self.router.route_key(routing_key).index()]
            .state()
            .txn_status(txn)
    }

    /// Transactional locks currently held across every shard replica on
    /// this node (test oracle: zero once every transaction has its
    /// outcome).
    pub fn txn_locks(&self) -> usize {
        self.shards.iter().map(|e| e.state().txn_locks()).sum()
    }

    /// Prepares parked in lock-wait queues across every shard replica
    /// on this node (test oracle: zero once every transaction has its
    /// outcome — a leftover entry is a zombie waiter).
    pub fn txn_parked(&self) -> usize {
        self.shards.iter().map(|e| e.state().txn_parked()).sum()
    }

    /// A digest of the replica's full key/value contents across shards.
    /// Equals the plain [`KvStore::digest`](crate::kv::KvStore::digest)
    /// for a one-shard deployment; multi-shard digests fold the per-shard
    /// digests in shard order (key sets are disjoint by routing, so equal
    /// folds mean equal contents for deployments with equal shard
    /// counts).
    pub fn kv_digest(&self) -> u64 {
        if self.shards.len() == 1 {
            return self.shards[0].state().digest();
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in &self.shards {
            h = mix64(h ^ e.state().digest());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BatchConfig;
    use crate::kv::KvStore;
    use crate::outbox::Outbox;
    use crate::types::{Command, Instance};

    /// A protocol that instantly decides whatever it advocates (same
    /// shape as the engine's batching tests): one agreement per
    /// `on_client_request`, so agreement counts are observable.
    struct Deciding {
        me: NodeId,
        next: Instance,
        requests: Vec<(NodeId, u64)>,
    }

    impl Deciding {
        fn new() -> Self {
            Deciding {
                me: NodeId(0),
                next: 0,
                requests: Vec::new(),
            }
        }
    }

    impl Protocol for Deciding {
        type Msg = u8;

        fn node_id(&self) -> NodeId {
            self.me
        }

        fn on_start(&mut self, _now: Nanos, _out: &mut Outbox<u8>) {}

        fn on_message(&mut self, _from: NodeId, _msg: u8, _now: Nanos, _out: &mut Outbox<u8>) {}

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
            out.commit(inst, cmd);
            out.reply(client, req_id, inst);
        }

        fn is_leader(&self) -> bool {
            true
        }
    }

    type Sharded = ShardedEngine<Deciding, KvStore>;
    type Fx = ShardedEffects<u8, Option<u64>>;

    fn sharded(shards: u16) -> Sharded {
        ShardedEngine::new(shards, |s| {
            ReplicaEngine::new(Deciding::new(), KvStore::new()).with_shard(s)
        })
    }

    #[test]
    fn each_incarnation_advocates_batches_above_its_epoch() {
        for k in [0, 1, 3] {
            let cfg = EngineConfig::new().batching(BatchConfig::new(2, 1_000));
            let mut e = Sharded::deploy(cfg, &[NodeId(0)], k, Deciding::new);
            let mut fx = Fx::new();
            for c in [1, 2] {
                e.submit(NodeId(c), 1, Op::Put { key: 7, value: 1 }, 0, &mut fx);
            }
            let s = e.router().route_key(7);
            let first = e.shard(s).node().requests[0];
            assert_eq!(first.0, NodeId(0).batch_source());
            assert!(
                first.1 > k << 32,
                "incarnation {k} advocated batch {}",
                first.1
            );
        }
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        for shards in 1..=8u16 {
            let r = ShardRouter::new(shards);
            for key in 0..200u64 {
                let s = r.route_key(key);
                assert!(s.0 < shards);
                assert_eq!(s, r.route_key(key), "key {key} must be stable");
                assert_eq!(s, ShardRouter::new(shards).route_key(key));
            }
        }
    }

    #[test]
    fn router_spreads_sequential_keys() {
        let r = ShardRouter::new(4);
        let mut hits = [0usize; 4];
        for key in 0..4_000u64 {
            hits[r.route_key(key).index()] += 1;
        }
        for (s, &h) in hits.iter().enumerate() {
            assert!(
                h > 500 && h < 1_500,
                "shard {s} got {h}/4000 sequential keys"
            );
        }
    }

    #[test]
    fn keyed_ops_route_by_key_and_noops_by_client() {
        let r = ShardRouter::new(5);
        let key = 42;
        let by_key = r.route_key(key);
        for client in 0..20u16 {
            let c = NodeId(client);
            assert_eq!(r.route(c, &Op::Put { key, value: 1 }), by_key);
            assert_eq!(r.route(c, &Op::Get { key }), by_key);
            assert_eq!(r.route(c, &Op::Noop), r.route(c, &Op::Noop));
        }
        // Noops from enough distinct clients reach more than one shard.
        let shards: std::collections::BTreeSet<ShardId> =
            (0..32u16).map(|c| r.route(NodeId(c), &Op::Noop)).collect();
        assert!(shards.len() > 1);
    }

    #[test]
    #[should_panic(expected = "must not be routed")]
    fn routing_a_batch_panics_in_release_semantics_too() {
        // A hard assert, not a debug_assert: a client-submitted batch
        // routed by client hash would plant foreign keys in a shard that
        // does not own them — every later read would miss them silently.
        let r = ShardRouter::new(2);
        let batch = Command::batch(NodeId(0), 1, vec![Command::noop(NodeId(9), 1)]);
        let _ = r.route(NodeId(9), &batch.op);
    }

    #[test]
    fn one_shard_routes_everything_to_shard_zero() {
        let r = ShardRouter::new(1);
        for key in 0..100 {
            assert_eq!(r.route_key(key), ShardId(0));
        }
    }

    #[test]
    fn submit_routes_and_tags_effects_with_the_owning_shard() {
        let mut e = sharded(4);
        let mut fx: Fx = Vec::new();
        e.start(0, &mut fx);
        fx.clear();
        let owner = e.submit(NodeId(9), 1, Op::Put { key: 7, value: 70 }, 0, &mut fx);
        assert_eq!(owner, e.router().route_key(7));
        assert!(!fx.is_empty());
        assert!(fx.iter().all(|(s, _)| *s == owner), "effects mis-tagged");
        // Only the owning shard saw an agreement; its replica holds the key.
        for (s, eng) in e.iter() {
            let expect = usize::from(s == owner);
            assert_eq!(eng.node().requests.len(), expect, "shard {s}");
        }
        assert_eq!(e.kv_get(7), Some(70));
        assert_eq!(e.shard(owner).state().get(7), Some(70));
    }

    #[test]
    fn batch_accumulators_are_per_shard() {
        let mut e = ShardedEngine::new(2, |s| {
            ReplicaEngine::new(Deciding::new(), KvStore::new())
                .with_shard(s)
                .with_batching(BatchConfig::new(3, 1_000))
        });
        let mut fx: Fx = Vec::new();
        e.start(0, &mut fx);
        // Find keys owned by each shard.
        let r = e.router();
        let k0 = (0..).find(|&k| r.route_key(k) == ShardId(0)).unwrap();
        let k1 = (0..).find(|&k| r.route_key(k) == ShardId(1)).unwrap();
        e.submit(NodeId(9), 1, Op::Put { key: k0, value: 1 }, 0, &mut fx);
        e.submit(NodeId(10), 1, Op::Put { key: k1, value: 2 }, 0, &mut fx);
        e.submit(NodeId(11), 1, Op::Put { key: k0, value: 3 }, 0, &mut fx);
        // Neither shard reached its 3-command flush: the accumulators did
        // not share requests across shards.
        assert_eq!(e.shard(ShardId(0)).pending_batch(), 2);
        assert_eq!(e.shard(ShardId(1)).pending_batch(), 1);
        assert_eq!(e.next_deadline(), Some(1_000), "flush deadlines armed");
        // Deadline flush drains both shards; each commits in its own log.
        fx.clear();
        assert_eq!(e.fire_due(1_000, &mut fx), 2);
        assert_eq!(e.kv_get(k0), Some(3));
        assert_eq!(e.kv_get(k1), Some(2));
        // Both instance logs start at 0: independent groups.
        assert_eq!(e.shard(ShardId(0)).applier().applied_up_to(), Some(0));
        assert_eq!(e.shard(ShardId(1)).applier().applied_up_to(), Some(0));
    }

    #[test]
    fn adaptive_controllers_are_per_shard_under_key_skew() {
        use crate::engine::AdaptiveBatch;
        // One hot shard hammered with back-to-back traffic, one cold
        // shard trickled: each learns its own depth.
        let mut e = ShardedEngine::new(2, |s| {
            ReplicaEngine::new(Deciding::new(), KvStore::new())
                .with_shard(s)
                .with_batching(BatchConfig::adaptive(AdaptiveBatch::new(16, 1_000)))
        });
        let r = e.router();
        let hot = (0..).find(|&k| r.route_key(k) == ShardId(0)).unwrap();
        let cold = (0..).find(|&k| r.route_key(k) == ShardId(1)).unwrap();
        let mut fx: Fx = Vec::new();
        for i in 0..120u64 {
            e.submit(
                NodeId((i % 100) as u16),
                i / 100 + 1,
                Op::Put { key: hot, value: i },
                0,
                &mut fx,
            );
        }
        // The cold shard sees one request every ten flush windows.
        for round in 0..4u64 {
            e.submit(
                NodeId(120),
                round + 1,
                Op::Put {
                    key: cold,
                    value: round,
                },
                round * 10_000,
                &mut fx,
            );
        }
        let hot_depth = e.stats(ShardId(0)).depth;
        let cold_depth = e.stats(ShardId(1)).depth;
        assert!(hot_depth > 4, "hot shard should grow, got {hot_depth}");
        assert_eq!(cold_depth, 1, "cold shard must stay latency-optimal");
        // Merged stats fold counters and surface the deepest controller.
        let merged = e.merged_stats();
        assert_eq!(merged.depth, hot_depth);
        assert_eq!(
            merged.enqueued,
            e.stats(ShardId(0)).enqueued + e.stats(ShardId(1)).enqueued
        );
    }

    #[test]
    fn next_deadline_merges_across_shards() {
        let mut e = ShardedEngine::new(3, |s| {
            ReplicaEngine::new(Deciding::new(), KvStore::new())
                .with_shard(s)
                .with_batching(BatchConfig::new(8, 100 * (u64::from(s.0) + 1)))
        });
        let mut fx: Fx = Vec::new();
        let r = e.router();
        // One pending request per shard, armed at different deadlines.
        for shard in 0..3u16 {
            let k = (0..).find(|&k| r.route_key(k) == ShardId(shard)).unwrap();
            e.submit(
                NodeId(9),
                u64::from(shard) + 1,
                Op::Put { key: k, value: 1 },
                0,
                &mut fx,
            );
        }
        assert_eq!(e.next_deadline(), Some(100), "earliest shard wins");
        assert_eq!(e.shard(ShardId(2)).next_deadline(), Some(300));
    }

    /// Blocking models a slow *core*: every shard group hosted on it
    /// starves together, so a waiting batch is held in each of them.
    #[test]
    fn blocking_gates_every_shard() {
        let mut net = crate::testnet::TestNet::builder(1)
            .shards(2)
            .batching(BatchConfig::new(8, 100))
            .build(|_, _| Deciding::new());
        for key in 0..8 {
            net.client_request(NodeId(0), NodeId(9), key + 1, Op::Put { key, value: 1 });
        }
        let e = net.sharded_engine(NodeId(0));
        let waiting = |s| e.shard(ShardId(s)).pending_batch();
        assert!(waiting(0) > 0 && waiting(1) > 0, "both shards hold a batch");
        net.block(NodeId(0));
        net.advance(10_000);
        assert!(net.replies().is_empty(), "blocked core fires nothing");
        net.unblock(NodeId(0));
        net.advance(0);
        assert_eq!(net.replies().len(), 8);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // Seed 0 of the reference implementation (Vigna, splitmix64.c).
        let mut state = 0;
        let stream: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            stream,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn kv_digest_matches_plain_digest_for_one_shard() {
        let mut e = sharded(1);
        let mut fx: Fx = Vec::new();
        e.submit(NodeId(9), 1, Op::Put { key: 1, value: 10 }, 0, &mut fx);
        assert_eq!(e.kv_digest(), e.shard(ShardId(0)).state().digest());
    }

    #[test]
    fn local_read_routes_to_the_owning_shard() {
        // Deciding never supports local reads: the gate stays shut and a
        // relaxed read is ordered through the owning shard's log.
        let mut e = sharded(4);
        let mut fx: Fx = Vec::new();
        e.submit(NodeId(9), 1, Op::Put { key: 3, value: 30 }, 0, &mut fx);
        assert_eq!(e.local_read(3), None);
        fx.clear();
        let owner = e.read_relaxed(NodeId(10), 1, 3, 0, &mut fx);
        assert_eq!(owner, e.router().route_key(3));
        assert!(fx.iter().all(|(s, _)| *s == owner), "effects mis-tagged");
        assert!(fx.iter().any(|(_, f)| matches!(
            f,
            EngineEffect::ReplyTo {
                client: NodeId(10),
                value: Some(Some(30)),
                ..
            }
        )));
        assert_eq!(
            e.shard(owner).node().requests,
            vec![(NodeId(9), 1), (NodeId(10), 1)]
        );
        // The ungated oracle read still routes correctly.
        assert_eq!(e.kv_get(3), Some(30));
        assert_eq!(e.kv_get(4), None);
    }
}
