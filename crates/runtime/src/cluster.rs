//! Threaded deployment: one OS thread per replica, a pluggable
//! [`Transport`] between every pair of processes, optional core pinning
//! — the runtime equivalent of the paper's testbed (§6, §7.1), where
//! replicas were assigned to cores with `taskset`.
//!
//! A replica thread owns a [`ShardedEngine`] (one consensus group unless
//! [`ClusterBuilder::shards`] raises it) and does nothing but IO: poll
//! its transport, feed events to the engines, push what they emit —
//! [`EngineEffect`]s and queued catch-up requests — back onto the wire
//! (transports buffer instead of blocking, so a busy link never wedges
//! the loop). Timers, commits, replies, the state machines and every
//! background decision (when to truncate, when a gap means "fetch a
//! snapshot", from whom) live in the engines — the same engines the
//! simulator and `TestNet` deploy.
//!
//! The transport is chosen at spawn time and nothing else changes:
//! [`ClusterBuilder::spawn`] wires the processes over qc-channel shared
//! memory ([`MemTransport`], §6.1's pairwise SPSC queues),
//! [`ClusterBuilder::spawn_tcp`] over loopback TCP sockets
//! ([`TcpTransport`], every message an `onepaxos::wire` frame). Both,
//! and [`Cluster::restart_replica`], start replica threads through the
//! same private launcher and differ only in the transport factory they
//! hand it.
//!
//! Sharding keeps **one OS thread per core**: each replica thread hosts
//! every shard group's member for its slot, and each group gets its own
//! transport *topic* — a dedicated SPSC queue per direction per pair in
//! shared memory, a tag inside the frame on TCP — so per-shard FIFO
//! order matches the other harnesses. Clients route their requests by
//! key hash ([`ShardRouter`]) with a per-shard target replica, so
//! callers of [`ClientHandle::put`]/[`ClientHandle::get`] stay
//! shard-oblivious.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use onepaxos::engine::{BatchConfig, CatchUp, EngineConfig, EngineEffect, ReplyMode};
use onepaxos::kv::KvStore;
use onepaxos::rsm::ApplierSnapshot;
use onepaxos::shard::{ShardId, ShardRouter, ShardedEffects, ShardedEngine};
use onepaxos::txn::{Fragment, TxnCoordinator, TxnStep};
use onepaxos::wire::{decode_exact, encode_to_vec, Codec};
use onepaxos::{EngineEvent, Instance, Nanos, NodeId, Op, Protocol, TxnOutcome};
use qc_channel::{spsc, Receiver, Sender};

use crate::affinity;
use crate::fault::{FaultPlan, FaultTransport};
use crate::transport::{
    self, splitmix64, MemTransport, Peer, TcpTransport, Transport, TransportStats,
};
use crate::wire::Wire;

/// Queue slots per direction between each pair of processes; the paper's
/// default of seven (§6.1). Overflow is buffered at the sender, so small
/// queues cannot deadlock the node loops.
pub const QUEUE_SLOTS: usize = qc_channel::DEFAULT_SLOTS;

/// The transport topic carrying client↔replica traffic (client links
/// need no per-shard split: requests are routed by the replica engines,
/// replies carry no shard identity).
const CLIENT_TOPIC: u16 = 0;

/// The receive sides of one shared-memory process: one queue per peer
/// per topic.
type PeerReceivers<M> = Vec<(Peer, Receiver<Wire<M>>)>;

/// The tagged effect stream of one runtime replica's engines.
type Effects<P> = ShardedEffects<<P as Protocol>::Msg, Option<u64>>;

/// Shared per-replica counters.
#[derive(Debug, Default)]
pub struct NodeMetrics {
    /// Messages received from peers and clients.
    pub received: AtomicU64,
    /// Messages sent to peers and clients.
    pub sent: AtomicU64,
    /// Commands committed (applied or queued for application), summed
    /// over shard groups.
    pub committed: AtomicU64,
    /// The applied watermark — the first instance not yet applied —
    /// summed over shard groups. Unlike `committed` it covers what a
    /// snapshot install fast-forwarded past.
    pub applied: AtomicU64,
    /// Batches flushed to the protocols, summed over shard groups (the
    /// replica loop republishes its engines'
    /// [`EngineStats`](onepaxos::engine::EngineStats) snapshot
    /// whenever it makes progress; zero with batching off).
    pub batch_flushes: AtomicU64,
    /// Commands those flushes carried, summed over shard groups.
    pub batched_commands: AtomicU64,
    /// Current flush depth: the deepest shard group's learned depth
    /// under adaptive batching, the static `max_commands` under a fixed
    /// config, 1 with batching off.
    pub batch_depth: AtomicU64,
    /// Connections this replica's transport re-established after a
    /// failure — redials it performed plus replacement accepts it
    /// installed (zero on queue transports, which cannot lose links).
    pub reconnects: AtomicU64,
    /// Connections this replica's transport tore down (EOF, IO error,
    /// corrupt frame, injected kill).
    pub conn_kills: AtomicU64,
    /// The subset of `conn_kills` caused by an undecodable frame.
    pub corrupt_frames: AtomicU64,
    /// State snapshots this replica served to catching-up peers.
    pub snapshots_served: AtomicU64,
    /// State snapshots this replica installed — each one a catch-up
    /// fast-forward past log entries agreed truncation made
    /// unreplayable.
    pub snapshots_installed: AtomicU64,
    /// Agreed truncations this replica applied, counted by its engines
    /// as log-base advances (snapshot installs count too: installing
    /// implies truncating below the watermark).
    pub truncations: AtomicU64,
    /// Decided commands parked above an apply gap, summed over shard
    /// groups — the signal that this replica is missing a decided
    /// prefix and may need a snapshot transfer to make progress.
    pub gap_backlog: AtomicU64,
    /// Applied-log entries retained, summed over shard groups. Flat
    /// under periodic truncation — the memory-soak gate watches this.
    pub applied_log_len: AtomicU64,
    /// Session-table entries, summed over shard groups: one per client,
    /// holding that client's latest output (bounded by the client
    /// count, not by request volume).
    pub outputs_len: AtomicU64,
    /// Finished-transaction records retained, summed over shard groups
    /// (bounded by the per-coordinator GC window).
    pub finished_len: AtomicU64,
    /// Turns of the replica's event loop, republished with the engine
    /// counters whenever a turn makes progress. `loop_turns / received`
    /// is the empty-turn ratio: how many times the loop went round per
    /// message it found.
    pub loop_turns: AtomicU64,
    /// Turns that ended with the replica off the run queue — asleep, or
    /// blocked on its sockets — rather than yielding
    /// ([`Transport::idle_wait`] returned `true`).
    pub idle_waits: AtomicU64,
}

/// Builder for a threaded cluster.
pub struct ClusterBuilder<P, F> {
    replicas: usize,
    clients: usize,
    config: EngineConfig,
    factory: F,
    pin_cores: bool,
    faults: Option<FaultPlan>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> std::fmt::Debug for ClusterBuilder<P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("replicas", &self.replicas)
            .field("clients", &self.clients)
            .field("shards", &self.config.shards)
            .field("pin_cores", &self.pin_cores)
            .finish_non_exhaustive()
    }
}

impl<P, F> ClusterBuilder<P, F>
where
    P: Protocol + Send + 'static,
    F: FnMut(&[NodeId], NodeId) -> P,
{
    /// Starts a builder for `replicas` replica processes whose protocol
    /// instances come from `factory(members, me)`.
    pub fn new(replicas: usize, factory: F) -> Self {
        ClusterBuilder {
            replicas,
            clients: 1,
            config: EngineConfig::new(),
            factory,
            pin_cores: false,
            faults: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of client handles to create (each may be used from its own
    /// thread). Default 1.
    pub fn clients(mut self, c: usize) -> Self {
        self.clients = c;
        self
    }

    /// Number of independent consensus groups with key-hash routing
    /// (default 1). `factory` is invoked once per `(shard, replica)`;
    /// each group gets its own transport topic between every replica
    /// pair while the thread count stays one per replica slot.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    pub fn shards(mut self, s: u16) -> Self {
        self.config = self.config.shards(s);
        self
    }

    /// Replaces the deployment shape with a shared [`EngineConfig`] —
    /// shard count, batching and truncation, the same value accepted by
    /// `TestNet::builder` and the simulator's `SimBuilder`, so one
    /// config describes a deployment across all three harnesses.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Pin replica threads to distinct cores (the paper's `taskset`),
    /// when the machine has enough cores. Best-effort. Default off.
    pub fn pin_cores(mut self, pin: bool) -> Self {
        self.pin_cores = pin;
        self
    }

    /// Wraps every replica's transport in a [`FaultTransport`] driven
    /// by `plan`, with a per-node decorrelated seed
    /// ([`FaultPlan::for_node`]) — seeded drops, FIFO-preserving
    /// delays, partition windows, and (over TCP) connection kills that
    /// exercise the reconnect lifecycle. Every injected fault stays
    /// inside the [`Transport`] delivery contract, so a cluster that
    /// misbehaves under faults has a real bug. Default: no faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables engine-level command batching on every replica: requests
    /// coalesce into one agreement per batch (amortising the per-message
    /// cost, §3), with per-client replies fanned back out on commit.
    /// Each shard group batches independently — and, under
    /// [`BatchConfig::Adaptive`], learns its own flush depth from its
    /// own load (watch it move via [`NodeMetrics::batch_depth`]). The
    /// flush deadline runs on the replica loop's wall clock. Default off.
    pub fn batching(mut self, cfg: BatchConfig) -> Self {
        self.config = self.config.batching(cfg);
        self
    }

    /// Enables **periodic agreed truncation**
    /// ([`EngineConfig::truncate_every`]): every replica applies the
    /// same truncation at the same point in the command sequence, which
    /// is what keeps a long-running replica's memory bounded (watch
    /// [`NodeMetrics::applied_log_len`] stay flat). A replica that falls
    /// behind a truncation catches up by snapshot install instead of
    /// replay (see [`NodeMetrics::snapshots_installed`]). Default off:
    /// nothing is ever dropped.
    pub fn truncate_every(mut self, every: u64) -> Self {
        self.config = self.config.truncate_every(every);
        self
    }

    /// Spawns the replica threads over qc-channel shared memory and
    /// returns the cluster handle plus one [`ClientHandle`] per
    /// requested client.
    pub fn spawn(mut self) -> (Cluster, Vec<ClientHandle<P::Msg>>) {
        let launcher = Launcher::new(&self);
        let (r, c, shards) = (self.replicas, self.clients, self.config.shards);
        // Endpoints: r replicas, c clients, plus one control endpoint
        // (the cluster handle itself) that exists only to fan out
        // shutdown — which is what lets `Cluster` stay non-generic.
        let total = r + c + 1;

        // Full mesh of SPSC queues: senders[i][(j, t)] sends i → j on
        // shard-group topic t. Replica pairs get one topic per group;
        // client and control links use the single CLIENT_TOPIC.
        let mut senders: Vec<BTreeMap<Peer, Sender<Wire<P::Msg>>>> =
            (0..total).map(|_| BTreeMap::new()).collect();
        let mut receivers: Vec<PeerReceivers<P::Msg>> = (0..total).map(|_| Vec::new()).collect();
        #[allow(clippy::needless_range_loop)]
        for i in 0..total {
            for j in 0..total {
                if i == j {
                    continue;
                }
                // Client↔client (and control) links are never used.
                if i >= r && j >= r {
                    continue;
                }
                let topics = if i < r && j < r { shards } else { 1 };
                for t in 0..topics {
                    let (tx, rx) = spsc::channel(QUEUE_SLOTS);
                    senders[i].insert((NodeId(j as u16), t), tx);
                    receivers[j].push(((NodeId(i as u16), t), rx));
                }
            }
        }
        let mut endpoints = senders
            .into_iter()
            .zip(receivers)
            .map(|(txs, rxs)| MemTransport::new(txs, rxs));

        // The factory runs here, on the caller's thread, so it need not
        // be `Send`; only the finished queue endpoints cross over.
        let threads = (0..r)
            .map(|i| {
                let io = endpoints.next().expect("replica slot");
                launcher.launch(i, &mut self.factory, move || io)
            })
            .collect();
        let clients = (r..r + c)
            .map(|j| {
                let io = endpoints.next().expect("client slot");
                ClientHandle::with_transport(NodeId(j as u16), launcher.members.clone(), io, shards)
            })
            .collect();
        let control = endpoints.next().expect("control slot");
        (launcher.into_cluster(threads, control, None), clients)
    }

    /// Spawns the replica threads over loopback TCP sockets — the same
    /// engines, the same loop, but every message now crosses a real
    /// socket as a length-prefixed `onepaxos::wire` frame. Requires the
    /// protocol's message type to implement [`Codec`].
    ///
    /// Connection layout: each replica binds one listener; replica `i`
    /// dials every lower-numbered replica (so each pair shares exactly
    /// one connection), clients and the control endpoint dial every
    /// replica. Shard-group topics are multiplexed over the pair's
    /// single connection, tagged inside each frame.
    ///
    /// # Errors
    ///
    /// Returns any socket-setup error (bind/connect/accept); once setup
    /// succeeds, runtime socket failures degrade to dropped peers, which
    /// the protocols absorb through their timeout paths.
    #[allow(clippy::type_complexity)]
    pub fn spawn_tcp(
        mut self,
    ) -> std::io::Result<(Cluster, Vec<ClientHandle<P::Msg, TcpTransport<P::Msg>>>)>
    where
        P::Msg: Codec,
        F: Send + 'static,
    {
        let launcher = Launcher::new(&self);
        let (r, c, shards) = (self.replicas, self.clients, self.config.shards);
        let (listeners, addrs) = transport::bind_replicas(r)?;
        let replica_addrs: Vec<(NodeId, std::net::SocketAddr)> =
            launcher.members.iter().copied().zip(addrs).collect();

        // Boot: a pre-bound listener plus a deterministic blocking
        // handshake — replica `i` dials every lower slot and accepts
        // every higher replica, every client, and control.
        let threads = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let me = launcher.members[i];
                let lower = replica_addrs[..i].to_vec();
                let expect_accepts = (r - 1 - i) + c + 1;
                launcher.launch(i, &mut self.factory, move || {
                    transport::replica_transport::<P::Msg>(me, listener, &lower, expect_accepts)
                        .expect("tcp replica setup")
                })
            })
            .collect();

        let mut clients = Vec::with_capacity(c);
        for j in r..r + c {
            let me = NodeId(j as u16);
            let io = transport::client_transport::<P::Msg>(me, &replica_addrs)?;
            clients.push(ClientHandle::with_transport(
                me,
                launcher.members.clone(),
                io,
                shards,
            ));
        }
        let control =
            transport::client_transport::<P::Msg>(NodeId((r + c) as u16), &replica_addrs)?;

        // Restart (`Cluster::restart_replica`): fresh engines from the
        // factory — which moves in here, so restarts can mint them long
        // after this builder is gone — on the slot's old address,
        // rejoining lazily through the reconnect lifecycle.
        let mut factory = self.factory;
        let respawn: Respawn = Box::new(move |launcher, i| {
            let (me, my_addr) = replica_addrs[i];
            let lower = replica_addrs[..i].to_vec();
            launcher.launch(i, &mut factory, move || {
                transport::rejoin_replica_transport::<P::Msg>(me, my_addr, &lower)
                    .expect("tcp replica setup")
            })
        });
        Ok((
            launcher.into_cluster(threads, control, Some(respawn)),
            clients,
        ))
    }
}

/// Re-spawns replica slot `i` through the cluster's [`Launcher`].
type Respawn = Box<dyn FnMut(&Launcher, usize) -> JoinHandle<()> + Send>;

/// Everything the incarnations of a cluster's replica slots share, and
/// the one place a replica thread is started: `spawn` (SPSC mesh),
/// `spawn_tcp` boot (listener handshake) and `restart_replica` (rebind,
/// lazy rejoin) differ only in the transport factory they hand to
/// [`Launcher::launch`].
struct Launcher {
    members: Vec<NodeId>,
    config: EngineConfig,
    metrics: Vec<Arc<NodeMetrics>>,
    /// Cores to pin replica threads to; empty without
    /// [`ClusterBuilder::pin_cores`].
    core_ids: Vec<affinity::CoreId>,
    faults: Option<FaultPlan>,
}

impl Launcher {
    fn new<P, F>(b: &ClusterBuilder<P, F>) -> Self {
        transport::tighten_timer_slack();
        Launcher {
            members: (0..b.replicas as u16).map(NodeId).collect(),
            config: b.config,
            metrics: (0..b.replicas).map(|_| Arc::default()).collect(),
            core_ids: if b.pin_cores {
                affinity::get_core_ids().unwrap_or_default()
            } else {
                Vec::new()
            },
            faults: b.faults.clone(),
        }
    }

    /// Starts replica slot `i`'s thread: engines around one protocol
    /// instance per shard group from `factory` (built here, on the
    /// caller's thread), the transport from `make_io` (called on the new
    /// thread, where a TCP handshake may block), wrapped in the fault
    /// plan if there is one.
    fn launch<P, T>(
        &self,
        i: usize,
        factory: &mut impl FnMut(&[NodeId], NodeId) -> P,
        make_io: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<()>
    where
        P: Protocol + Send + 'static,
        T: Transport<P::Msg> + 'static,
    {
        let (me, members) = (self.members[i], &self.members);
        let mut engine =
            ShardedEngine::deploy(self.config, ReplyMode::AfterApply, || factory(members, me));
        // Here maintenance is on even without truncation: the gap watch
        // and the boot probe are what let a restarted slot rejoin.
        engine.enable_maintenance(members, self.config.truncate_every);
        let core = self.core_ids.get(i % self.core_ids.len().max(1)).copied();
        let faults = self.faults.as_ref().map(|plan| plan.for_node(me));
        let metrics = Arc::clone(&self.metrics[i]);
        std::thread::Builder::new()
            .name(format!("replica-{me}"))
            .spawn(move || {
                if let Some(core) = core {
                    let _ = affinity::set_for_current(core);
                }
                let io = make_io();
                match faults {
                    Some(plan) => replica_loop(engine, FaultTransport::new(io, plan), &metrics),
                    None => replica_loop(engine, io, &metrics),
                }
            })
            .expect("spawn replica thread")
    }

    /// Assembles the cluster handle around the started `threads`.
    /// `control`'s transport is type-erased into the closure
    /// [`Cluster::shutdown`] drives: one round fans [`Wire::Shutdown`]
    /// out to every replica and briefly drains the send buffers. The
    /// round is re-run until every replica thread is observably gone,
    /// because over TCP a shutdown frame is droppable like any other —
    /// the canonical case being a control link that went stale-dead
    /// across a replica restart, where the first send is lost with the
    /// reaped connection and the *retry* rides the redial to the live
    /// replica.
    fn into_cluster<M, T>(
        self,
        threads: Vec<JoinHandle<()>>,
        mut control: T,
        respawn: Option<Respawn>,
    ) -> Cluster
    where
        M: Send + 'static,
        T: Transport<M> + 'static,
    {
        let members = self.members.clone();
        let fan_shutdown = Box::new(move || {
            for &m in &members {
                control.send(m, CLIENT_TOPIC, Wire::Shutdown);
            }
            // Bounded drain: push redials along and flush what can flush —
            // a permanently-gone peer keeps its backoff entry pending, so
            // "still busy" must not hold a round open forever.
            let deadline = Instant::now() + Duration::from_millis(100);
            while control.flush() && Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
        Cluster {
            threads: threads.into_iter().map(Some).collect(),
            launcher: self,
            fan_shutdown,
            respawn,
        }
    }
}

/// A running cluster of replica threads.
pub struct Cluster {
    threads: Vec<Option<JoinHandle<()>>>,
    /// Owns the per-replica metrics blocks and starts replacement
    /// incarnations.
    launcher: Launcher,
    /// The control endpoint's shutdown fan-out, type-erased so `Cluster`
    /// needs no message-type parameter and callers simply write
    /// `cluster.shutdown()`. Each call runs one send-and-drain round.
    fan_shutdown: Box<dyn FnMut() + Send>,
    /// Re-spawns replica slot `i` after it stopped (TCP deployments
    /// only): rebinds the slot's listener address and rejoins through
    /// the reconnect lifecycle. `None` on shared-memory clusters, whose
    /// SPSC queue endpoints are consumed at spawn.
    respawn: Option<Respawn>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Per-replica counters.
    pub fn metrics(&self) -> &[Arc<NodeMetrics>] {
        &self.launcher.metrics
    }

    /// Number of replica threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether the cluster has no replicas (never true after `spawn`).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Whether replica slot `i`'s thread has exited (true after a
    /// processed [`ClientHandle::stop_replica`], and trivially true for
    /// a slot already taken by a restart in progress). A shutdown
    /// request travels the wire and may be dropped across a reconnect
    /// gap like any other frame, so callers re-send the stop until this
    /// reports true before calling [`Cluster::restart_replica`] —
    /// joining a live thread blocks forever.
    pub fn replica_finished(&self, i: usize) -> bool {
        self.threads[i].as_ref().is_none_or(|h| h.is_finished())
    }

    /// Restarts replica slot `i` with a fresh protocol instance after
    /// its thread stopped (e.g. [`ClientHandle::stop_replica`]): joins
    /// the old thread, rebinds the slot's listener address and rejoins
    /// the cluster lazily through the reconnect lifecycle — peers'
    /// backoff redials and the restarted listener's accept sweep
    /// re-knit the mesh without a coordinated handshake.
    ///
    /// The restarted replica boots on a fresh engine and an empty
    /// store, then rejoins **warm**: its engines' maintenance asks a
    /// peer for a state snapshot at boot and again whenever an apply gap
    /// persists, and the `(snapshot, watermark)` that comes back is
    /// installed — so it
    /// resumes applying from the donor's watermark instead of needing
    /// the (possibly truncated, hence unreplayable) log prefix. What it
    /// still loses is its *acceptor* state — promises and accepted
    /// values — so only restart replicas whose protocol can tolerate
    /// that, e.g. the OnePaxos backup, which holds no acknowledged
    /// state the leader cannot re-supply.
    ///
    /// # Panics
    ///
    /// Panics on shared-memory clusters ([`ClusterBuilder::spawn`]),
    /// whose queue endpoints cannot be rebuilt, or if `i` is out of
    /// range. Call only after the slot's thread has actually exited —
    /// joining a live thread blocks forever.
    pub fn restart_replica(&mut self, i: usize) {
        let respawn = self
            .respawn
            .as_mut()
            .expect("restart_replica requires a TCP cluster");
        if let Some(old) = self.threads[i].take() {
            let _ = old.join();
        }
        self.threads[i] = Some(respawn(&self.launcher, i));
    }

    /// Asks every replica to shut down (over the cluster's own control
    /// link — no client handle needed) and joins the replica threads.
    /// The shutdown fan-out is re-sent until every thread is observably
    /// gone (bounded at ten seconds): over TCP the request is a frame
    /// like any other and may be lost across a reconnect gap, so a
    /// single round is not enough once replicas have been restarted.
    pub fn shutdown(mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            (self.fan_shutdown)();
            let all_done = (0..self.threads.len()).all(|i| self.replica_finished(i));
            if all_done || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for t in self.threads.into_iter().flatten() {
            let _ = t.join();
        }
    }
}

/// Pushes one replica's tagged effects onto the wire: peer messages on
/// their shard group's topic, replies on the client topic. Replies always
/// carry their state-machine output: the engines run in
/// [`ReplyMode::AfterApply`], so an acknowledgement is only released once
/// the command is applied.
fn dispatch_effects<P: Protocol, T: Transport<P::Msg>>(
    effects: &mut Effects<P>,
    io: &mut T,
    metrics: &NodeMetrics,
) {
    for (shard, effect) in effects.drain(..) {
        match effect {
            EngineEffect::SendTo { to, msg } => {
                io.send(to, shard.0, Wire::Peer(msg));
                metrics.sent.fetch_add(1, Ordering::Relaxed);
            }
            EngineEffect::ReplyTo {
                client,
                req_id,
                instance,
                value,
            } => {
                io.send(
                    client,
                    CLIENT_TOPIC,
                    Wire::Reply {
                        req_id,
                        instance,
                        value: value.flatten(),
                    },
                );
                metrics.sent.fetch_add(1, Ordering::Relaxed);
            }
            EngineEffect::Committed { .. } => {
                metrics.committed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Republishes a replica's folded engine counters into its shared
/// metrics block, so callers outside the replica thread can watch the
/// adaptive batch depth move — and, for the bounded-memory gates, the
/// retained-state gauges (applied log, retired outputs, finished-txn
/// records, gap backlog) that must stay flat under periodic truncation.
/// `truncations_before` is what earlier incarnations of the slot had
/// counted: the metrics block outlives a restart, and its truncation
/// total must not step back when a fresh engine starts from zero.
fn publish_engine_stats<P: Protocol>(
    engine: &ShardedEngine<P, KvStore>,
    truncations_before: u64,
    metrics: &NodeMetrics,
) {
    let stats = engine.merged_stats();
    metrics.applied.store(stats.applied, Ordering::Relaxed);
    metrics
        .batch_flushes
        .store(stats.flushes, Ordering::Relaxed);
    metrics
        .batched_commands
        .store(stats.flushed_commands, Ordering::Relaxed);
    metrics
        .batch_depth
        .store(stats.depth as u64, Ordering::Relaxed);
    metrics
        .gap_backlog
        .store(stats.gap_backlog as u64, Ordering::Relaxed);
    metrics
        .applied_log_len
        .store(stats.applied_log_len as u64, Ordering::Relaxed);
    metrics
        .truncations
        .store(truncations_before + stats.truncations, Ordering::Relaxed);
    metrics
        .outputs_len
        .store(stats.outputs_len as u64, Ordering::Relaxed);
    metrics
        .finished_len
        .store(stats.finished_len as u64, Ordering::Relaxed);
}

/// Republishes a replica transport's failure counters into its shared
/// metrics block, so the chaos harness (and operators) can assert that
/// links actually died and actually healed.
fn publish_transport_stats(stats: &TransportStats, metrics: &NodeMetrics) {
    metrics
        .reconnects
        .store(stats.reconnects, Ordering::Relaxed);
    metrics
        .conn_kills
        .store(stats.conn_kills, Ordering::Relaxed);
    metrics
        .corrupt_frames
        .store(stats.corrupt_frames, Ordering::Relaxed);
}

/// Carries the catch-up the engines queued, each on its shard group's
/// topic: an ask (boot probe, persistent apply gap) goes to its donor as
/// a snapshot request, a serve goes to its stale peer as the snapshot.
fn send_catch_up<P: Protocol, T: Transport<P::Msg>>(
    engine: &mut ShardedEngine<P, KvStore>,
    io: &mut T,
    metrics: &NodeMetrics,
) {
    while let Some((ShardId(shard), catch_up)) = engine.take_catch_up() {
        match catch_up {
            CatchUp::Ask(donor, have) => {
                io.send(donor, shard, Wire::SnapshotRequest { shard, have });
                metrics.sent.fetch_add(1, Ordering::Relaxed);
            }
            CatchUp::Serve(peer, have) => send_snapshot(engine, io, metrics, peer, shard, have),
        }
    }
}

/// Sends `to` shard `shard`'s snapshot if the engine has one strictly
/// past `have` — the answer to a peer's request and to a stale peer
/// alike.
fn send_snapshot<P: Protocol, T: Transport<P::Msg>>(
    engine: &ShardedEngine<P, KvStore>,
    io: &mut T,
    metrics: &NodeMetrics,
    to: NodeId,
    shard: u16,
    have: Instance,
) {
    if let Some(snap) = engine.serve_snapshot(ShardId(shard), have) {
        let frame = Wire::Snapshot {
            shard,
            watermark: snap.watermark,
            bytes: encode_to_vec(&snap),
        };
        io.send(to, shard, frame);
        metrics.snapshots_served.fetch_add(1, Ordering::Relaxed);
        metrics.sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drives one replica slot: the engines own timers, commits, the KV
/// replicas and reply records; this loop owns only the transport IO.
fn replica_loop<P: Protocol, T: Transport<P::Msg>>(
    mut engine: ShardedEngine<P, KvStore>,
    mut io: T,
    metrics: &NodeMetrics,
) {
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as Nanos;
    let shard_count = engine.shards();
    let truncations_before = metrics.truncations.load(Ordering::Relaxed);
    let mut effects: Effects<P> = Vec::new();

    engine.start(now_ns(), &mut effects);
    dispatch_effects::<P, T>(&mut effects, &mut io, metrics);
    send_catch_up(&mut engine, &mut io, metrics);
    publish_engine_stats(&engine, truncations_before, metrics);

    // Consecutive turns that found nothing to do; the transport's idle
    // policy reads it (`Transport::idle_wait`).
    let mut empty_turns: u32 = 0;
    // Seeded from the shared block, which outlives a restart of the slot.
    let mut loop_turns = metrics.loop_turns.load(Ordering::Relaxed);
    let mut idle_waits = metrics.idle_waits.load(Ordering::Relaxed);
    let mut last_io = io.stats();
    loop {
        loop_turns += 1;
        let mut progressed = io.flush();
        // Failure counters move outside the request path (a link dying
        // or healing is not "progress"), so compare-and-republish every
        // iteration; `TransportStats` is `Copy` and the comparison is
        // three integer equality checks.
        let io_stats = io.stats();
        if io_stats != last_io {
            publish_transport_stats(&io_stats, metrics);
            last_io = io_stats;
        }
        // Fire due timers across every shard group — the protocols',
        // batch flushes, and the maintenance tick.
        if engine.fire_due(now_ns(), &mut effects) > 0 {
            dispatch_effects::<P, T>(&mut effects, &mut io, metrics);
            progressed = true;
        }
        // One readiness query over every connection, then drain a
        // bounded batch of the decoded messages without further IO.
        io.pump();
        for _ in 0..64 {
            let Some(((from, topic), wire)) = io.recv_ready() else {
                break;
            };
            metrics.received.fetch_add(1, Ordering::Relaxed);
            progressed = true;
            let now = now_ns();
            match wire {
                Wire::Peer(msg) => {
                    // Peer traffic arrives on its group's own topic.
                    engine.handle(
                        ShardId(topic),
                        EngineEvent::Message { from, msg },
                        now,
                        &mut effects,
                    );
                }
                Wire::Request { client, req_id, op } => {
                    // Key-hash routing to the owning group; its batch
                    // accumulator takes over from here.
                    engine.submit(client, req_id, op, now, &mut effects);
                }
                Wire::ReadRelaxed {
                    client,
                    req_id,
                    key,
                } => {
                    // The key's group serves, parks or orders it.
                    engine.read_relaxed(client, req_id, key, now, &mut effects);
                }
                Wire::Reply { .. } => {} // replicas ignore replies
                Wire::SnapshotRequest { shard, have } => {
                    // Serve a catching-up peer, if the engine has
                    // anything newer to offer.
                    if shard < shard_count {
                        send_snapshot(&engine, &mut io, metrics, from, shard, have);
                    }
                }
                Wire::Snapshot {
                    shard,
                    watermark,
                    bytes,
                } => {
                    // Install iff the payload decodes, matches its
                    // advertised watermark, and is newer than the local
                    // apply frontier (the installer enforces the last
                    // part). The install fast-forwards the applier,
                    // truncates the protocol node's learner state below
                    // the watermark and drops parked out-of-gap commands
                    // the snapshot already covers.
                    if shard < shard_count {
                        if let Ok(snap) = decode_exact::<ApplierSnapshot<KvStore>>(&bytes) {
                            if snap.watermark == watermark
                                && engine.install_shard_snapshot(ShardId(shard), snap)
                            {
                                metrics.snapshots_installed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Wire::Shutdown => return,
            }
            dispatch_effects::<P, T>(&mut effects, &mut io, metrics);
        }
        // Catch-up queued this turn — the maintenance tick's requests,
        // snapshots owed to peers whose messages fell below the floor.
        send_catch_up(&mut engine, &mut io, metrics);
        if progressed {
            empty_turns = 0;
            publish_engine_stats(&engine, truncations_before, metrics);
            metrics.loop_turns.store(loop_turns, Ordering::Relaxed);
            metrics.idle_waits.store(idle_waits, Ordering::Relaxed);
        } else {
            // Nothing to do — and nothing owed: unsent bytes counted as
            // progress above. The transport decides how to idle (a few
            // yields while recently busy, then off the core: the dev box
            // has far fewer cores than the paper's testbed, so a
            // spinning idle replica steals cycles from the busy ones),
            // bounded by the next engine timer so batch-flush, retrans
            // and heartbeat deadlines still fire on time.
            let until = engine.next_deadline();
            let until = until.map(|due| start + Duration::from_nanos(due));
            idle_waits += u64::from(io.idle_wait(empty_turns, until));
            empty_turns = empty_turns.saturating_add(1);
        }
    }
}

/// Error returned when a command cannot be committed in time.
///
/// Implements [`std::fmt::Display`] and [`std::error::Error`], so it
/// composes with `?` in application code:
///
/// ```
/// use onepaxos::onepaxos::{OnePaxosNode, Timing};
/// use onepaxos::{ClusterConfig, NodeId};
/// use onepaxos_runtime::ClusterBuilder;
///
/// fn demo() -> Result<(), Box<dyn std::error::Error>> {
///     let timing = Timing { tick: 2_000_000, io_timeout: 200_000_000, suspect_after: 400_000_000 };
///     let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
///         OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
///     })
///     .spawn();
///     clients[0].set_timeout(std::time::Duration::from_secs(5));
///     clients[0].put(1, 2)?; // SubmitTimeout converts into Box<dyn Error>
///     assert_eq!(clients[0].get(1)?, Some(2));
///     cluster.shutdown();
///     Ok(())
/// }
/// demo().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitTimeout {
    /// How many send-and-wait attempts the client made before giving
    /// up — the [`RetryPolicy::max_attempts`] in force at the time.
    pub attempts: u32,
}

impl std::fmt::Display for SubmitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request timed out after {} attempts without a reply",
            self.attempts
        )
    }
}

impl std::error::Error for SubmitTimeout {}

/// The client-side retry schedule: capped exponential backoff with
/// jitter, shared by every blocking [`ClientHandle`] operation
/// (`submit`/`put`/`get`/`txn_put`/`get_relaxed`).
///
/// Attempt `n` (zero-based) waits `min(base << n, cap)` plus a random
/// jitter of up to `jitter_permille`‰ of that value before re-sending —
/// to the next replica of the shard group for routed commands, to the
/// same replica for relaxed reads. After `max_attempts` unanswered
/// attempts the operation returns [`SubmitTimeout`] carrying that count.
///
/// The default policy starts at 100 ms (generous because dev machines
/// oversubscribe their cores), doubles to a cap of 800 ms, jitters by up
/// to 25%, and gives up after six attempts —
/// [`ClusterBuilder`]-constructed handles override `max_attempts` to
/// `2 × replicas`, preserving the old every-replica-twice sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First attempt's patience.
    pub base: Duration,
    /// Upper bound the doubling saturates at.
    pub cap: Duration,
    /// Jitter magnitude in permille of the capped backoff (0–1000);
    /// the actual jitter is drawn uniformly from `[0, magnitude)`.
    pub jitter_permille: u32,
    /// Attempts before giving up (at least 1 is always made).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_millis(800),
            jitter_permille: 250,
            max_attempts: 6,
        }
    }
}

impl RetryPolicy {
    /// A flat schedule: every attempt waits exactly `timeout`, no
    /// jitter — what [`ClientHandle::set_timeout`] installs, and the
    /// right shape for tests that assert timing.
    pub fn fixed(timeout: Duration, max_attempts: u32) -> Self {
        RetryPolicy {
            base: timeout,
            cap: timeout,
            jitter_permille: 0,
            max_attempts,
        }
    }

    /// The patience for zero-based `attempt`, jittered from `rng`.
    fn timeout_for(&self, attempt: u32, rng: &mut u64) -> Duration {
        let backed = self.base.saturating_mul(1u32 << attempt.min(8));
        let capped = backed.min(self.cap);
        let magnitude = f64::from(self.jitter_permille.min(1000)) / 1000.0;
        let draw = (splitmix64(rng) % 1024) as f64 / 1024.0;
        capped + capped.mul_f64(magnitude * draw)
    }
}

/// A synchronous client: submits one command at a time and waits for its
/// commit acknowledgement, re-targeting replicas on timeout — exactly the
/// closed loop the paper's load generators run (§7.1, §7.6). On a sharded
/// cluster the handle routes each operation to its owning group's
/// preferred replica by key hash; callers stay shard-oblivious.
///
/// Generic over its [`Transport`]: [`ClusterBuilder::spawn`] hands out
/// shared-memory handles (the default parameter), and
/// [`ClusterBuilder::spawn_tcp`] hands out socket-backed ones — same
/// API, same closed loop.
pub struct ClientHandle<M, T = MemTransport<M>> {
    me: NodeId,
    replicas: Vec<NodeId>,
    io: T,
    next_req: u64,
    /// Next transaction sequence number (see `TxnCoordinator`): TxnIds
    /// must stay unique for the handle's lifetime, so the counter lives
    /// here and is resynced through each `txn_put`'s coordinator — a
    /// reused id would make participant shards echo the previous
    /// transaction's recorded outcome instead of staging the new one.
    next_txn_seq: u64,
    router: ShardRouter,
    /// Preferred replica index per shard group, bumped on timeout so a
    /// slow group leader re-targets only its own group's traffic.
    targets: Vec<usize>,
    policy: RetryPolicy,
    /// SplitMix64 state for retry jitter.
    rng: u64,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M, T> std::fmt::Debug for ClientHandle<M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientHandle")
            .field("me", &self.me)
            .field("replicas", &self.replicas.len())
            .field("shards", &self.router.shards())
            .field("next_req", &self.next_req)
            .finish_non_exhaustive()
    }
}

impl<M, T> ClientHandle<M, T>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    T: Transport<M>,
{
    fn with_transport(me: NodeId, replicas: Vec<NodeId>, io: T, shards: u16) -> Self {
        let policy = RetryPolicy {
            // Every replica gets its two chances, as the fixed rotate
            // loop always gave it.
            max_attempts: (replicas.len().max(1) * 2) as u32,
            ..RetryPolicy::default()
        };
        ClientHandle {
            me,
            replicas,
            io,
            next_req: 1,
            next_txn_seq: 1,
            router: ShardRouter::new(shards),
            // Per-shard preferred replica: a slow group leader only
            // re-targets its own group's requests.
            targets: vec![0; shards as usize],
            policy,
            rng: 0xC11E_57A7 ^ ((me.0 as u64) << 21),
            _marker: std::marker::PhantomData,
        }
    }

    /// This client's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Sets a flat per-attempt patience before re-sending to the next
    /// replica: shorthand for installing
    /// [`RetryPolicy::fixed`]`(t, current max_attempts)`. The default
    /// policy instead backs off exponentially from 100 ms — see
    /// [`RetryPolicy`].
    pub fn set_timeout(&mut self, t: Duration) {
        self.policy = RetryPolicy::fixed(t, self.policy.max_attempts);
    }

    /// Installs a full retry schedule (backoff base/cap, jitter,
    /// attempt budget) shared by every blocking operation on this
    /// handle.
    pub fn set_retry_policy(&mut self, p: RetryPolicy) {
        self.policy = p;
    }

    /// The retry schedule currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Severs this client's transport link to `node` (a real socket
    /// shutdown over TCP, a no-op on queue transports) — fault
    /// injection for chaos tests: the next operation must ride the
    /// reconnect lifecycle instead of a healthy socket.
    pub fn kill_connection(&mut self, node: NodeId) {
        self.io.kill_peer_link(node);
    }

    /// Failure counters of this client's own transport (kills it
    /// suffered or injected, reconnects it performed).
    pub fn transport_stats(&self) -> TransportStats {
        self.io.stats()
    }

    /// The shard group that operations on `key` route to.
    pub fn shard_of(&self, key: u64) -> ShardId {
        self.router.route_key(key)
    }

    /// Submits `op` and blocks until it commits, retrying other replicas
    /// on the [`RetryPolicy`]'s backoff schedule. Returns the
    /// state-machine output (previous value for `Put`, current value for
    /// `Get`).
    ///
    /// # Errors
    ///
    /// Returns [`SubmitTimeout`] after [`RetryPolicy::max_attempts`]
    /// unanswered attempts.
    pub fn submit(&mut self, op: Op) -> Result<Option<u64>, SubmitTimeout> {
        let req_id = self.next_req;
        self.next_req += 1;
        let shard = self.router.route(self.me, &op).index();
        let attempts = self.policy.max_attempts.max(1);
        for attempt in 0..attempts {
            let target = self.replicas[self.targets[shard] % self.replicas.len()];
            self.io.send(
                target,
                CLIENT_TOPIC,
                Wire::Request {
                    client: self.me,
                    req_id,
                    op: op.clone(),
                },
            );
            let deadline = Instant::now() + self.policy.timeout_for(attempt, &mut self.rng);
            // The reply comes from the replica the request went to (the
            // advocate), so a socket transport can park on that
            // connection instead of polling.
            while let Some((_, wire)) = self.io.recv_from_deadline(target, deadline) {
                match wire {
                    Wire::Reply {
                        req_id: r, value, ..
                    } if r == req_id => return Ok(value),
                    _ => {} // stale reply for an older request
                }
            }
            // "Once the clients detect the slow leader, they send their
            // requests to other nodes" (§7.6) — per shard group, so one
            // slow group does not un-target the healthy ones.
            self.targets[shard] += 1;
        }
        Err(SubmitTimeout { attempts })
    }

    /// Convenience: replicated write (routed to `key`'s shard group).
    ///
    /// # Errors
    ///
    /// Propagates [`SubmitTimeout`].
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, SubmitTimeout> {
        self.submit(Op::Put { key, value })
    }

    /// Convenience: linearized read (ordered through `key`'s shard
    /// group, §7.5).
    ///
    /// # Errors
    ///
    /// Propagates [`SubmitTimeout`].
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, SubmitTimeout> {
        self.submit(Op::Get { key })
    }

    /// Sends one transaction fragment to its shard group's current
    /// preferred replica.
    fn send_fragment(&mut self, f: &Fragment) {
        let target = self.replicas[self.targets[f.shard.index()] % self.replicas.len()];
        self.io.send(
            target,
            CLIENT_TOPIC,
            Wire::Request {
                client: self.me,
                req_id: f.req_id,
                op: f.op.clone(),
            },
        );
    }

    /// Writes several keys **atomically**, across shard groups if their
    /// key hashes demand it: this handle acts as the 2PC coordinator
    /// (see `onepaxos::txn`), sending each shard's fragment over that
    /// group's route and driving PREPARE → COMMIT/ABORT, every phase a
    /// command agreed by the participant group's own log. A write set
    /// owned by one shard short-circuits to a single `Op::MultiPut`
    /// agreement.
    ///
    /// Returns [`TxnOutcome::Committed`] when every touched group voted
    /// yes and applied its fragment, [`TxnOutcome::Aborted`] when a lock
    /// conflict with a concurrent transaction refused the prepare
    /// (nothing was applied anywhere).
    ///
    /// # Errors
    ///
    /// Returns [`SubmitTimeout`] when a shard group stops answering
    /// mid-protocol. The transaction may then be left prepared (locked)
    /// on a subset of groups; resolving it is a coordinator-recovery
    /// pass (`onepaxos::txn::recover_outcome`) once this coordinator is
    /// known dead — the same rule every 2PC deployment lives by.
    pub fn txn_put(&mut self, writes: &[(u64, u64)]) -> Result<TxnOutcome, SubmitTimeout> {
        // The coordinator is rebuilt per call, so BOTH of its counters
        // are seeded from this handle and resynced back at every exit:
        // request ids are shared with plain traffic, and the
        // transaction sequence must never repeat for this client —
        // participant shards remember a finished TxnId's outcome
        // forever, so a reused id would echo the old outcome while
        // silently dropping the new writes.
        let mut coord = TxnCoordinator::with_first_req(self.me, self.router, self.next_req)
            .with_first_seq(self.next_txn_seq);
        let mut to_send = coord.begin(writes);
        // The same patience budget as `submit`, refilled at each phase
        // transition — a slow prepare must not starve the outcome phase
        // of retries once the decision is already in the logs. The
        // backoff schedule restarts with each phase too: consecutive
        // unanswered waits within a phase escalate the patience.
        let phase_budget = self.policy.max_attempts.max(1);
        let mut attempts = phase_budget;
        loop {
            for f in to_send.drain(..) {
                self.send_fragment(&f);
            }
            let waited = phase_budget - attempts;
            let deadline = Instant::now() + self.policy.timeout_for(waited, &mut self.rng);
            let mut progressed = false;
            while let Some((_, wire)) = self.io.recv_deadline(deadline) {
                let Wire::Reply {
                    req_id: r, value, ..
                } = wire
                else {
                    continue;
                };
                match coord.on_reply(r, value) {
                    TxnStep::Pending => {
                        // A lock-wait vote queued a fresh-id re-probe:
                        // send it right away — the shard parks it behind
                        // the holder, so the one-window pacing the sim
                        // applies buys nothing on this blocking handle.
                        let deferred = coord.take_deferred();
                        if !deferred.is_empty() {
                            to_send = deferred;
                            attempts = phase_budget;
                            progressed = true;
                            break;
                        }
                    }
                    TxnStep::Submit(next) => {
                        to_send = next;
                        attempts = phase_budget;
                        progressed = true;
                        break;
                    }
                    TxnStep::Decided { outcome, submit } => {
                        // Presumed durability: the votes recorded in the
                        // shard logs force this outcome whether or not
                        // we survive to deliver it, so ack the caller
                        // NOW and fan the outcome legs out
                        // fire-and-forget. A slow participant applies
                        // the outcome from its log whenever it catches
                        // up, and this coordinator's stale
                        // acknowledgements are dropped as unknown ids by
                        // the next call's fresh coordinator.
                        for f in &submit {
                            self.send_fragment(f);
                        }
                        self.io.flush();
                        self.next_req = coord.next_req();
                        self.next_txn_seq = coord.next_seq();
                        return Ok(outcome);
                    }
                    TxnStep::Done(outcome) => {
                        self.next_req = coord.next_req();
                        self.next_txn_seq = coord.next_seq();
                        return Ok(outcome);
                    }
                }
            }
            if !progressed {
                attempts -= 1;
                if attempts == 0 {
                    self.next_req = coord.next_req();
                    // The abandoned transaction's id may sit prepared on
                    // some shards; burning its sequence number keeps any
                    // later txn_put from colliding with it.
                    self.next_txn_seq = coord.next_seq();
                    return Err(SubmitTimeout {
                        attempts: phase_budget,
                    });
                }
                // Re-target each stalled fragment's own group (§7.6,
                // per shard) and re-send; the appliers dedup, the
                // protocols re-answer decided ids.
                to_send = coord.outstanding_fragments();
                for f in &to_send {
                    self.targets[f.shard.index()] += 1;
                }
            }
        }
    }

    /// Relaxed read (§7.5): asks `replica` for its local copy of `key`,
    /// bypassing consensus when the protocol allows it (2PC outside its
    /// lock window). The replica consults the shard group owning `key`;
    /// under an ordered-reads protocol (the Paxos family) it
    /// transparently degrades to a linearized read, so the call is
    /// always answered.
    ///
    /// The value may be stale with respect to commands still in flight —
    /// that is the relaxation.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitTimeout`] if `replica` does not answer in time
    /// (e.g. a 2PC lock window that never closes because the coordinator
    /// is stuck).
    pub fn get_relaxed(&mut self, replica: NodeId, key: u64) -> Result<Option<u64>, SubmitTimeout> {
        let req_id = self.next_req;
        self.next_req += 1;
        // Re-send to the *same* replica on each attempt — a relaxed read
        // targets that replica's local copy by definition, so there is
        // no rotation; the retries ride out a dropped frame or a
        // reconnect window. Reads are idempotent and the replica keeps
        // at most one pending read per client, so re-sending is safe.
        let attempts = self.policy.max_attempts.max(1);
        for attempt in 0..attempts {
            self.io.send(
                replica,
                CLIENT_TOPIC,
                Wire::ReadRelaxed {
                    client: self.me,
                    req_id,
                    key,
                },
            );
            let deadline = Instant::now() + self.policy.timeout_for(attempt, &mut self.rng);
            while let Some((_, wire)) = self.io.recv_deadline(deadline) {
                match wire {
                    Wire::Reply {
                        req_id: r, value, ..
                    } if r == req_id => return Ok(value),
                    _ => {} // stale reply for an older request
                }
            }
        }
        Err(SubmitTimeout { attempts })
    }

    /// Asks one replica to shut down — fault injection for tests and
    /// demos ("crashes" in the paper's model are slow cores; a stopped
    /// thread is the limit case).
    pub fn stop_replica(&mut self, node: NodeId) {
        self.io.send(node, CLIENT_TOPIC, Wire::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.io.flush() && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}
