//! Threaded deployment: one OS thread per replica and a pluggable
//! [`Transport`] between every pair of processes — the runtime
//! equivalent of the paper's testbed (§6, §7.1).
//!
//! A replica thread owns a [`ShardedEngine`] (one consensus group unless
//! [`ClusterBuilder::shards`] raises it) and does nothing but IO: poll
//! its transport, feed events to the engines, push what they emit —
//! [`EngineEffect`]s and catch-up messages — back onto the wire
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
//! hand it. The mesh links replicas and clients and nothing else:
//! [`Cluster::shutdown`] sends no message, it sets each replica slot's
//! stop flag, which the replica loop reads once per turn.
//!
//! Sharding keeps **one OS thread per core**: each replica thread hosts
//! every shard group's member for its slot, and each group gets its own
//! transport *topic*. A process pair still has one link — one SPSC
//! queue per direction in shared memory, one connection on TCP — and
//! the topic rides with each message, in the queue slot or inside the
//! frame, so each group's messages stay in send order. Clients route
//! their requests by key hash ([`ShardRouter`]) with a per-shard target
//! replica, so callers of [`ClientHandle::put`]/[`ClientHandle::get`]
//! stay shard-oblivious.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use onepaxos::client::{Answer, ClientEffect, ClientSession, Request, RetryPolicy};
use onepaxos::engine::{BatchConfig, CatchUp, EngineConfig, EngineEffect, EngineStats};
use onepaxos::kv::KvStore;
use onepaxos::rsm::ApplierSnapshot;
use onepaxos::shard::{ShardId, ShardRouter, ShardedEffects, ShardedEngine};
use onepaxos::wire::{decode_exact, encode_to_vec, Codec};
use onepaxos::{EngineEvent, Nanos, NodeId, Op, Protocol, TxnOutcome};

use crate::fault::{FaultPlan, FaultTransport};
use crate::transport::{self, MemTransport, TcpTransport, Transport, TransportStats};
use crate::wire::Wire;

/// Slots per topic on the one queue per direction between a pair of
/// processes: a link carrying `t` shard-group topics has `t` times this
/// many, so each group keeps the paper's default of seven (§6.1).
/// Overflow is buffered at the sender, so small queues cannot deadlock
/// the node loops.
pub const QUEUE_SLOTS: usize = qc_channel::DEFAULT_SLOTS;

/// The transport topic carrying client↔replica traffic (client links
/// need no per-shard split: requests are routed by the replica engines,
/// replies carry no shard identity).
const CLIENT_TOPIC: u16 = 0;

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
    /// State snapshots this replica sent to catching-up peers, counted
    /// by its engines ([`EngineStats::snapshots_served`]) and carried
    /// across restarts like `truncations`.
    pub snapshots_served: AtomicU64,
    /// State snapshots this replica installed — each one a catch-up
    /// fast-forward past log entries agreed truncation made
    /// unreplayable ([`EngineStats::snapshots_installed`], carried
    /// across restarts like `truncations`).
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
    /// Client replies held until their output applies, summed over
    /// shard groups. Zero whenever the replica's log has no gap.
    pub deferred_replies: AtomicU64,
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
    faults: Option<FaultPlan>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> std::fmt::Debug for ClusterBuilder<P, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("replicas", &self.replicas)
            .field("clients", &self.clients)
            .field("shards", &self.config.shards)
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
    /// requested client. Replicas take ids `0..r` and clients the ids
    /// after them; a replica polls one queue per peer replica and per
    /// client.
    pub fn spawn(mut self) -> (Cluster, Vec<ClientHandle<P::Msg>>) {
        let launcher = Launcher::new(&self);
        let (r, c, shards) = (self.replicas, self.clients, self.config.shards);

        // One SPSC queue per linked ordered pair: replica pairs carry one
        // topic per shard group, client links only CLIENT_TOPIC, and
        // client↔client pairs are never linked.
        let ids: Vec<NodeId> = (0..r + c).map(|i| NodeId(i as u16)).collect();
        let mut endpoints = MemTransport::mesh(&ids, |i, j| match (i < r, j < r) {
            (true, true) => shards,
            (false, false) => 0,
            _ => 1,
        })
        .into_iter();

        // The factory runs here, on the caller's thread, so it need not
        // be `Send`; only the finished queue endpoints cross over.
        let threads = (0..r)
            .map(|i| {
                let io = endpoints.next().expect("replica slot");
                launcher.launch(i, 0, &mut self.factory, move || io)
            })
            .collect();
        let clients = (r..r + c)
            .map(|j| {
                let io = endpoints.next().expect("client slot");
                ClientHandle::with_transport(NodeId(j as u16), launcher.members.clone(), io, shards)
            })
            .collect();
        (launcher.into_cluster(threads, None), clients)
    }

    /// Spawns the replica threads over loopback TCP sockets — the same
    /// engines, the same loop, but every message now crosses a real
    /// socket as a length-prefixed `onepaxos::wire` frame. Requires the
    /// protocol's message type to implement [`Codec`].
    ///
    /// Connection layout: each replica binds one listener; replica `i`
    /// dials every lower-numbered replica (so each pair shares exactly
    /// one connection), and every client dials every replica.
    /// Shard-group topics are multiplexed over the pair's
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
        // every higher replica and every client.
        let threads = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let me = launcher.members[i];
                let lower = replica_addrs[..i].to_vec();
                let expect_accepts = (r - 1 - i) + c;
                launcher.launch(i, 0, &mut self.factory, move || {
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

        // Restart (`Cluster::restart_replica`): fresh engines from the
        // factory — which moves in here, so restarts can mint them long
        // after this builder is gone — on the slot's old address,
        // rejoining lazily through the reconnect lifecycle, each one the
        // slot's next incarnation.
        let mut factory = self.factory;
        let mut incarnations = vec![0; r];
        let respawn: Respawn = Box::new(move |launcher, i| {
            let (me, my_addr) = replica_addrs[i];
            let lower = replica_addrs[..i].to_vec();
            incarnations[i] += 1;
            launcher.launch(i, incarnations[i], &mut factory, move || {
                transport::rejoin_replica_transport::<P::Msg>(me, my_addr, &lower)
                    .expect("tcp replica setup")
            })
        });
        Ok((launcher.into_cluster(threads, Some(respawn)), clients))
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
    /// Each slot's stop flag, handed to every incarnation of the slot:
    /// [`Cluster::shutdown`] sets it and the replica loop ends at its
    /// next turn.
    stops: Vec<Arc<AtomicBool>>,
    faults: Option<FaultPlan>,
}

impl Launcher {
    fn new<P, F>(b: &ClusterBuilder<P, F>) -> Self {
        transport::tighten_timer_slack();
        Launcher {
            members: (0..b.replicas as u16).map(NodeId).collect(),
            config: b.config,
            metrics: (0..b.replicas).map(|_| Arc::default()).collect(),
            stops: (0..b.replicas).map(|_| Arc::default()).collect(),
            faults: b.faults.clone(),
        }
    }

    /// Starts replica slot `i`'s thread: engines around one protocol
    /// instance per shard group from `factory` (built here, on the
    /// caller's thread, as the slot's `incarnation`: 0 at boot, one more
    /// per restart), the transport from `make_io` (called on the new
    /// thread, where a TCP handshake may block), wrapped in the fault
    /// plan if there is one.
    fn launch<P, T>(
        &self,
        i: usize,
        incarnation: u64,
        factory: &mut impl FnMut(&[NodeId], NodeId) -> P,
        make_io: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<()>
    where
        P: Protocol + Send + 'static,
        T: Transport<P::Msg> + 'static,
    {
        let (me, members) = (self.members[i], &self.members);
        // `deploy` switches maintenance on: the gap watch and the boot
        // probe are what let a restarted slot rejoin.
        let engine =
            ShardedEngine::deploy(self.config, members, incarnation, || factory(members, me));
        let faults = self.faults.as_ref().map(|plan| plan.for_node(me));
        let metrics = Arc::clone(&self.metrics[i]);
        let stop = Arc::clone(&self.stops[i]);
        std::thread::Builder::new()
            .name(format!("replica-{me}"))
            .spawn(move || {
                let io = make_io();
                match faults {
                    Some(plan) => {
                        replica_loop(engine, FaultTransport::new(io, plan), &metrics, &stop)
                    }
                    None => replica_loop(engine, io, &metrics, &stop),
                }
            })
            .expect("spawn replica thread")
    }

    /// Assembles the cluster handle around the started `threads`.
    fn into_cluster(self, threads: Vec<JoinHandle<()>>, respawn: Option<Respawn>) -> Cluster {
        Cluster {
            threads: threads.into_iter().map(Some).collect(),
            launcher: self,
            respawn,
        }
    }
}

/// A running cluster of replica threads.
pub struct Cluster {
    threads: Vec<Option<JoinHandle<()>>>,
    /// Owns the per-replica metrics blocks and stop flags, and starts
    /// replacement incarnations.
    launcher: Launcher,
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
    /// a slot already taken by a restart in progress). A stop request
    /// travels the wire and may be dropped across a reconnect gap like
    /// any other frame, so callers re-send the stop until this reports
    /// true before calling [`Cluster::restart_replica`] — joining a live
    /// thread blocks forever.
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

    /// Stops every replica and joins the replica threads: each slot's
    /// stop flag is set, and its loop ends at its next turn — an idle
    /// replica's turn ends by its engines' next deadline at the latest,
    /// and maintenance keeps one armed a few milliseconds ahead. No
    /// message is sent, so nothing is lost across a reconnect gap.
    pub fn shutdown(self) {
        for stop in &self.launcher.stops {
            stop.store(true, Ordering::Relaxed);
        }
        for t in self.threads.into_iter().flatten() {
            let _ = t.join();
        }
    }
}

/// Pushes one replica's tagged effects onto the wire: peer messages on
/// their shard group's topic, replies on the client topic. An engine
/// releases a reply only once its command is applied, so a reply carries
/// its state-machine output unless the client had already superseded the
/// request.
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
/// `before` holds what earlier incarnations of the slot had counted:
/// the metrics block outlives a restart, and its truncation and
/// snapshot totals must not step back when a fresh engine starts from
/// zero.
fn publish_engine_stats<P: Protocol>(
    engine: &ShardedEngine<P, KvStore>,
    before: &EngineStats,
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
        .store(before.truncations + stats.truncations, Ordering::Relaxed);
    metrics.snapshots_served.store(
        before.snapshots_served + stats.snapshots_served,
        Ordering::Relaxed,
    );
    metrics.snapshots_installed.store(
        before.snapshots_installed + stats.snapshots_installed,
        Ordering::Relaxed,
    );
    metrics
        .outputs_len
        .store(stats.outputs_len as u64, Ordering::Relaxed);
    metrics
        .finished_len
        .store(stats.finished_len as u64, Ordering::Relaxed);
    metrics
        .deferred_replies
        .store(stats.deferred_replies as u64, Ordering::Relaxed);
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

/// Sends the catch-up messages the engines queued, each on its shard
/// group's topic: an ask as a [`Wire::SnapshotRequest`], a snapshot as
/// a [`Wire::Snapshot`].
fn send_catch_up<P: Protocol, T: Transport<P::Msg>>(
    engine: &mut ShardedEngine<P, KvStore>,
    io: &mut T,
    metrics: &NodeMetrics,
) {
    while let Some((ShardId(shard), to, msg)) = engine.take_catch_up() {
        let frame = match msg {
            CatchUp::Ask { have } => Wire::SnapshotRequest { shard, have },
            CatchUp::Snapshot(snap) => Wire::Snapshot {
                shard,
                watermark: snap.watermark,
                bytes: encode_to_vec(&*snap),
            },
        };
        io.send(to, shard, frame);
        metrics.sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drives one replica slot: the engines own timers, commits, the KV
/// replicas and client replies; this loop owns only the transport IO.
/// It ends when `stop` is set ([`Cluster::shutdown`]), read once per
/// turn, or when a [`Wire::Shutdown`] arrives
/// ([`ClientHandle::stop_replica`]).
fn replica_loop<P: Protocol, T: Transport<P::Msg>>(
    mut engine: ShardedEngine<P, KvStore>,
    mut io: T,
    metrics: &NodeMetrics,
    stop: &AtomicBool,
) {
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as Nanos;
    let shard_count = engine.shards();
    let before = EngineStats {
        truncations: metrics.truncations.load(Ordering::Relaxed),
        snapshots_served: metrics.snapshots_served.load(Ordering::Relaxed),
        snapshots_installed: metrics.snapshots_installed.load(Ordering::Relaxed),
        ..EngineStats::default()
    };
    let mut effects: Effects<P> = Vec::new();

    engine.start(now_ns(), &mut effects);
    dispatch_effects::<P, T>(&mut effects, &mut io, metrics);
    send_catch_up(&mut engine, &mut io, metrics);
    publish_engine_stats(&engine, &before, metrics);

    // Consecutive turns that found nothing to do; the transport's idle
    // policy reads it (`Transport::idle_wait`).
    let mut empty_turns: u32 = 0;
    // Seeded from the shared block, which outlives a restart of the slot.
    let mut loop_turns = metrics.loop_turns.load(Ordering::Relaxed);
    let mut idle_waits = metrics.idle_waits.load(Ordering::Relaxed);
    let mut last_io = io.stats();
    while !stop.load(Ordering::Relaxed) {
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
            let Some(((from, topic), wire)) = io.recv() else {
                break;
            };
            metrics.received.fetch_add(1, Ordering::Relaxed);
            progressed = true;
            let now = now_ns();
            match wire {
                // Peer traffic arrives on its group's own topic.
                Wire::Peer(msg) if topic < shard_count => {
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
                // Catch-up frames become the engine's catch-up events;
                // the engine decides whether to answer or install. Only
                // the frame is checked here: a shard this node hosts, and
                // a payload that decodes to exactly the snapshot its
                // header advertises.
                Wire::SnapshotRequest { shard, have } if shard < shard_count => {
                    let msg = CatchUp::Ask { have };
                    let event = EngineEvent::CatchUp { from, msg };
                    engine.handle(ShardId(shard), event, now, &mut effects);
                }
                Wire::Snapshot {
                    shard,
                    watermark,
                    bytes,
                } if shard < shard_count => {
                    let snap = decode_exact::<ApplierSnapshot<KvStore>>(&bytes).ok();
                    if let Some(snap) = snap.filter(|s| s.watermark == watermark) {
                        let msg = CatchUp::Snapshot(Box::new(snap));
                        let event = EngineEvent::CatchUp { from, msg };
                        engine.handle(ShardId(shard), event, now, &mut effects);
                    }
                }
                // A shard this node does not host.
                Wire::Peer(_) | Wire::SnapshotRequest { .. } | Wire::Snapshot { .. } => {}
                Wire::Shutdown => return,
            }
            dispatch_effects::<P, T>(&mut effects, &mut io, metrics);
        }
        // Catch-up the engines sent this turn — the maintenance tick's
        // asks, answers to peers' asks, snapshots owed to peers whose
        // messages fell below the floor.
        send_catch_up(&mut engine, &mut io, metrics);
        if progressed {
            empty_turns = 0;
            publish_engine_stats(&engine, &before, metrics);
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

/// A synchronous client: submits one command at a time and waits for its
/// commit acknowledgement, re-targeting replicas on timeout — exactly the
/// closed loop the paper's load generators run (§7.1, §7.6). On a sharded
/// cluster the handle routes each operation to its owning group's
/// preferred replica by key hash; callers stay shard-oblivious.
///
/// Every decision — targets, retries, request ids, the transaction
/// coordinator — is made by one [`ClientSession`], the client state
/// machine the simulator runs too; the handle only carries its effects
/// over the transport and blocks until the call completes.
///
/// Generic over its [`Transport`]: [`ClusterBuilder::spawn`] hands out
/// shared-memory handles (the default parameter), and
/// [`ClusterBuilder::spawn_tcp`] hands out socket-backed ones — same
/// API, same closed loop.
pub struct ClientHandle<M, T = MemTransport<M>> {
    io: T,
    session: ClientSession,
    /// The session's effect buffer, reused across calls.
    effects: Vec<ClientEffect>,
    /// The session's clock starts here.
    epoch: Instant,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M, T> std::fmt::Debug for ClientHandle<M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientHandle")
            .field("session", &self.session)
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
            // Every replica gets its two chances.
            max_attempts: (replicas.len().max(1) * 2) as u32,
            ..RetryPolicy::default()
        };
        let seed = 0xC11E_57A7 ^ ((me.0 as u64) << 21);
        ClientHandle {
            io,
            session: ClientSession::new(me, replicas, ShardRouter::new(shards), policy, seed),
            effects: Vec::new(),
            epoch: Instant::now(),
            _marker: std::marker::PhantomData,
        }
    }

    /// This client's node id.
    pub fn id(&self) -> NodeId {
        self.session.id()
    }

    /// Sets a flat per-attempt patience before re-sending to the next
    /// replica: shorthand for installing
    /// [`RetryPolicy::fixed`]`(t, current max_attempts)`. The default
    /// policy instead backs off exponentially from 100 ms — see
    /// [`RetryPolicy`].
    pub fn set_timeout(&mut self, t: Duration) {
        let max_attempts = self.session.policy().max_attempts;
        self.session.set_policy(RetryPolicy::fixed(t, max_attempts));
    }

    /// Installs a full retry schedule (backoff base/cap, jitter,
    /// attempt budget) shared by every blocking operation on this
    /// handle.
    pub fn set_retry_policy(&mut self, p: RetryPolicy) {
        self.session.set_policy(p);
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
        self.session.router().route_key(key)
    }

    /// Whether commit/abort legs of a transaction [`Self::txn_put`]
    /// already returned still await acknowledgement. The handle absorbs
    /// their acknowledgements, and re-sends the legs, during later calls.
    pub fn draining(&self) -> bool {
        self.session.draining()
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
        let now = self.now();
        self.session.submit(op, now, &mut self.effects);
        self.run().map(Answer::value)
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

    /// Writes several keys **atomically**, across shard groups if their
    /// key hashes demand it: this handle acts as the 2PC coordinator
    /// (see `onepaxos::txn`), sending each shard's fragment over that
    /// group's route and driving PREPARE → COMMIT/ABORT, every phase a
    /// command agreed by the participant group's own log. A write set
    /// owned by one shard short-circuits to a single `Op::MultiPut`
    /// agreement.
    ///
    /// Returns [`TxnOutcome::Committed`] when every touched group voted
    /// yes, [`TxnOutcome::Aborted`] when a lock conflict with a
    /// concurrent transaction refused the prepare (nothing was applied
    /// anywhere). The outcome is returned as soon as the votes force it;
    /// its commit/abort legs drain behind later calls on this handle.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitTimeout`] when a shard group stops answering
    /// mid-protocol. The transaction may then be left prepared (locked)
    /// on a subset of groups; resolving it is a coordinator-recovery
    /// pass (`onepaxos::txn::recover_outcome`) once this coordinator is
    /// known dead — the same rule every 2PC deployment lives by.
    pub fn txn_put(&mut self, writes: &[(u64, u64)]) -> Result<TxnOutcome, SubmitTimeout> {
        let now = self.now();
        self.session.txn_put(writes, now, &mut self.effects);
        self.run().map(Answer::txn)
    }

    /// Relaxed read (§7.5): asks `replica` for its local copy of `key`,
    /// bypassing consensus when the protocol allows it (2PC outside its
    /// lock window). The replica consults the shard group owning `key`;
    /// under an ordered-reads protocol (the Paxos family) it
    /// transparently degrades to a linearized read, so the call is
    /// always answered.
    ///
    /// The value may be stale with respect to commands still in flight —
    /// that is the relaxation. Retries go to the same replica.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitTimeout`] if `replica` does not answer in time
    /// (e.g. a 2PC lock window that never closes because the coordinator
    /// is stuck).
    pub fn get_relaxed(&mut self, replica: NodeId, key: u64) -> Result<Option<u64>, SubmitTimeout> {
        let now = self.now();
        self.session
            .read_relaxed(replica, key, now, &mut self.effects);
        self.run().map(Answer::value)
    }

    /// The session's clock: nanoseconds since this handle was made.
    fn now(&self) -> Nanos {
        self.epoch.elapsed().as_nanos() as Nanos
    }

    /// Carries the session's effects over the transport and blocks until
    /// the call in flight completes. A call that one reply completes
    /// waits on that replica's connection (a socket transport parks
    /// there instead of polling); a transaction waits on every link.
    fn run(&mut self) -> Result<Answer, SubmitTimeout> {
        let me = self.session.id();
        loop {
            let mut sent = false;
            let mut done = None;
            for effect in self.effects.drain(..) {
                match effect {
                    ClientEffect::Send {
                        to,
                        req_id,
                        request,
                    } => {
                        let wire = match request {
                            Request::Op(op) => Wire::Request {
                                client: me,
                                req_id,
                                op,
                            },
                            Request::Read { key } => Wire::ReadRelaxed {
                                client: me,
                                req_id,
                                key,
                            },
                        };
                        self.io.send(to, CLIENT_TOPIC, wire);
                        sent = true;
                    }
                    ClientEffect::Complete { result } => done = Some(result),
                }
            }
            if let Some(result) = done {
                // Outcome legs sent alongside a completion leave now,
                // not with the next call.
                if sent {
                    self.io.flush();
                }
                return result.map_err(|attempts| SubmitTimeout { attempts });
            }
            let due = self
                .session
                .next_deadline()
                .expect("a call in flight has a deadline");
            let deadline = self.epoch + Duration::from_nanos(due);
            let got = match self.session.waiting_on() {
                Some(from) => self.io.recv_from_deadline(from, deadline),
                None => self.io.recv_deadline(deadline),
            };
            let now = self.now();
            match got {
                Some((_, Wire::Reply { req_id, value, .. })) => {
                    self.session.on_reply(req_id, value, now, &mut self.effects);
                }
                Some(_) => {}
                None => self.session.on_deadline(now, &mut self.effects),
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use onepaxos::onepaxos::{Msg, OnePaxosNode};
    use onepaxos::{ClusterConfig, Command};

    #[test]
    fn a_peer_frame_for_a_shard_this_replica_does_not_host_is_dropped() {
        let (me, peer) = (NodeId(0), NodeId(1));
        let cfg = ClusterConfig::new(vec![me, peer], me);
        let engine = ShardedEngine::deploy(EngineConfig::new(), &[me, peer], 0, || {
            OnePaxosNode::new(cfg.clone())
        });
        let (io, mut from_peer) = MemTransport::pair(me, peer, 3);
        let cmd = Command::noop(peer, 1);
        from_peer.send(me, 2, Wire::Peer(Msg::Forward { cmd }));
        from_peer.send(me, CLIENT_TOPIC, Wire::Shutdown);
        from_peer.flush();
        let replica = std::thread::spawn(move || {
            replica_loop(engine, io, &NodeMetrics::default(), &AtomicBool::new(false));
        });
        assert!(replica.join().is_ok(), "the replica thread panicked");
        // Held until the replica exits: its own sends arrive here.
        drop(from_peer);
    }

    #[test]
    fn a_replica_loop_ends_when_its_stop_flag_is_set() {
        let (me, peer) = (NodeId(0), NodeId(1));
        let cfg = ClusterConfig::new(vec![me, peer], me);
        let engine = ShardedEngine::deploy(EngineConfig::new(), &[me, peer], 0, || {
            OnePaxosNode::new(cfg.clone())
        });
        let (io, peer_end) = MemTransport::pair(me, peer, 1);
        let stop = Arc::new(AtomicBool::new(false));
        let replica = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || replica_loop(engine, io, &NodeMetrics::default(), &stop)
        });
        // Long enough for the loop to run out its spin budget and idle.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!replica.is_finished(), "the loop ended before its stop");
        stop.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !replica.is_finished() {
            assert!(Instant::now() < deadline, "the loop ignored its stop flag");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(replica.join().is_ok(), "the replica thread panicked");
        drop(peer_end);
    }
}
