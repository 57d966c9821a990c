//! The three threaded workloads (`mem_put`, `tcp_mix`, `mem_txn`): a
//! 3-replica 1Paxos cluster driven by 2 client threads through
//! `ClusterBuilder` / `ClientHandle` / `Cluster::metrics` only.
//!
//! One repetition = fresh cluster → preload (set-up) → closed loop →
//! (`tcp_mix` only) open loop at a fixed rate, then a backup restart
//! with the paced load still running → read-back of every key →
//! shutdown. No message delay is injected anywhere: latency is
//! processor time plus, over TCP, kernel loopback.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use onepaxos::engine::{AdaptiveBatch, BatchConfig};
use onepaxos::onepaxos::{Msg, OnePaxosNode, Timing};
use onepaxos::{ClusterConfig, NodeId, TxnOutcome};
use onepaxos_runtime::{ClientHandle, Cluster, ClusterBuilder, RetryPolicy, Transport};

use crate::gen::{self, GenOp, KeyRef, Mix, OpGen, HOT_KEYS, KEYS_PER_CLIENT};
use crate::hist::Hist;
use crate::oracle::{hot_final_ok, Model};
use crate::procstat;
use crate::trace::RootSpan;

pub const REPLICAS: usize = 3;
/// Client threads = client connections; the box has 2 cores.
pub const CLIENTS: usize = 2;
/// Total open-loop rate of the paced phase, op/s.
pub const PACED_RATE: f64 = 5_000.0;
/// A paced operation slower than this counts as missed.
const PACED_LIMIT: Duration = Duration::from_millis(1);
/// The replica the fault phase restarts: the 1Paxos backup, the only
/// restart the runtime documents as safe.
const BACKUP: usize = 2;

/// The shape of one threaded workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub tcp: bool,
    pub shards: u16,
    pub batching: Option<BatchConfig>,
    pub truncate_every: u64,
    pub mix: Mix,
}

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "mem_put" => Spec {
            tcp: false,
            shards: 1,
            batching: None,
            truncate_every: 4096,
            mix: Mix {
                get_pct: 0,
                txn_pct: 0,
            },
        },
        "tcp_mix" => Spec {
            tcp: true,
            shards: 2,
            batching: None,
            truncate_every: 512,
            mix: Mix {
                get_pct: 30,
                txn_pct: 0,
            },
        },
        "mem_txn" => Spec {
            tcp: false,
            shards: 4,
            batching: Some(BatchConfig::Adaptive(AdaptiveBatch::default())),
            truncate_every: 4096,
            mix: Mix {
                get_pct: 0,
                txn_pct: 50,
            },
        },
        _ => return None,
    })
}

/// How long each phase of one repetition lasts. Only `tcp_mix` has the
/// paced and fault phases.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub closed: Duration,
    pub paced: Duration,
    pub fault: Duration,
}

impl Phases {
    pub fn of(spec: &Spec, rep: Duration) -> Phases {
        if spec.tcp {
            Phases {
                closed: rep.mul_f64(0.5),
                paced: rep.mul_f64(0.3),
                // Stop, restart and catch-up need a few milliseconds
                // of load; very short runs (`--smoke`) get them anyway.
                fault: rep.mul_f64(0.2).max(Duration::from_millis(100)),
            }
        } else {
            Phases {
                closed: rep,
                paced: Duration::ZERO,
                fault: Duration::ZERO,
            }
        }
    }
}

/// Replica-side counters of one repetition, read through
/// `Cluster::metrics` just before shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterCounters {
    pub sent: u64,
    pub committed: u64,
    pub reconnects: u64,
    pub conn_kills: u64,
    pub snapshots_installed: u64,
    pub truncations: u64,
    pub batch_flushes: u64,
    pub batched_commands: u64,
    pub batch_depth: u64,
    pub applied_log_len_max: u64,
}

/// What the client threads count and time; each thread fills its own
/// and the repetition adds them up.
#[derive(Debug, Default)]
pub struct Tally {
    /// Verified-correct operations completed in the closed phase.
    pub closed_ok: u64,
    /// Operations attempted / failed over every phase, read-back included.
    pub attempted: u64,
    pub failed: u64,
    /// Closed-loop latency of single operations and of transactions.
    pub single: Hist,
    pub txn: Hist,
    pub txns: u64,
    pub txn_aborts: u64,
    /// Open-loop latency from the due time, before and during the fault.
    pub paced: Hist,
    pub fault: Hist,
    pub paced_sent: u64,
    pub paced_missed: u64,
    /// How late the generator sent, send time − due time.
    pub late: Hist,
}

impl Tally {
    fn absorb(&mut self, o: &Tally) {
        self.closed_ok += o.closed_ok;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.single.merge(&o.single);
        self.txn.merge(&o.txn);
        self.txns += o.txns;
        self.txn_aborts += o.txn_aborts;
        self.paced.merge(&o.paced);
        self.fault.merge(&o.fault);
        self.paced_sent += o.paced_sent;
        self.paced_missed += o.paced_missed;
        self.late.merge(&o.late);
    }
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Resident set when set-up finished, MB.
    pub setup_rss_mb: f64,
    pub closed_wall_s: f64,
    pub closed_cpu_s: f64,
    /// Resident set sampled every 10 ms of the closed phase, MB.
    pub rss_samples: Vec<f64>,
    /// Both clients' tallies, plus the fault phase and the hot-key check.
    pub tally: Tally,
    pub paced_cpu_cores: f64,
    pub catchup_ms: Option<f64>,
    pub counters: ClusterCounters,
    pub shutdown_ms: f64,
    pub roots: Vec<Vec<RootSpan>>,
}

fn timing() -> Timing {
    // Relaxed: 5 busy threads share 2 cores.
    Timing {
        tick: 2_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    }
}

fn builder(
    spec: &Spec,
) -> ClusterBuilder<OnePaxosNode, impl FnMut(&[NodeId], NodeId) -> OnePaxosNode + Send + 'static> {
    let t = timing();
    let mut b = ClusterBuilder::new(REPLICAS, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), t)
    })
    .clients(CLIENTS)
    .shards(spec.shards)
    .truncate_every(spec.truncate_every);
    if let Some(cfg) = spec.batching {
        b = b.batching(cfg);
    }
    b
}

/// One client thread's state: its connection, its input stream, its
/// oracle and what it measured.
struct Client<T> {
    id: usize,
    handle: ClientHandle<Msg, T>,
    gen: OpGen,
    model: Model,
    writes: u64,
    epoch: Instant,
    tally: Tally,
    roots: Option<Vec<RootSpan>>,
}

impl<T: Transport<Msg>> Client<T> {
    fn next_value(&mut self) -> u64 {
        self.writes += 1;
        gen::value_of(self.id, self.writes)
    }

    /// Runs one operation and checks its reply. Returns the span kind
    /// and whether the reply was correct.
    fn exec(&mut self, op: GenOp) -> (&'static str, bool) {
        self.tally.attempted += 1;
        let (kind, ok) = match op {
            GenOp::Put(i) => {
                let v = self.next_value();
                let ok = match self.handle.put(gen::own_key(self.id, i), v) {
                    Ok(prev) => {
                        let ok = self.model.check(i, prev);
                        self.model.wrote(i, v);
                        ok
                    }
                    Err(_) => {
                        self.model.forget(i);
                        false
                    }
                };
                ("put", ok)
            }
            GenOp::Get(i) => {
                let ok = match self.handle.get(gen::own_key(self.id, i)) {
                    Ok(got) => self.model.check(i, got),
                    Err(_) => false,
                };
                ("get", ok)
            }
            GenOp::Txn(a, b) => {
                let v = self.next_value();
                let writes = [(self.gen.key(a), v), (self.gen.key(b), v)];
                self.tally.txns += 1;
                let ok = match self.handle.txn_put(&writes) {
                    Ok(TxnOutcome::Committed) => {
                        for k in [a, b] {
                            match k {
                                KeyRef::Own(i) => self.model.wrote(i, v),
                                KeyRef::Hot(h) => self.model.hot[h as usize] = Some(v),
                            }
                        }
                        true
                    }
                    // Neither key written: the model stands, and later
                    // reads of these keys check exactly that.
                    Ok(TxnOutcome::Aborted) => {
                        self.tally.txn_aborts += 1;
                        true
                    }
                    Err(_) => {
                        for k in [a, b] {
                            match k {
                                KeyRef::Own(i) => self.model.forget(i),
                                KeyRef::Hot(h) => self.model.hot_unknown[h as usize] = true,
                            }
                        }
                        false
                    }
                };
                ("txn_put", ok)
            }
        };
        self.tally.failed += !ok as u64;
        (kind, ok)
    }

    fn root(&mut self, kind: &'static str, ok: bool, start: Instant, dur: Duration) {
        if let Some(roots) = &mut self.roots {
            roots.push(RootSpan {
                kind,
                ok,
                start_ns: (start - self.epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
    }

    /// Set-up: write every key once, then one verified read.
    fn preload(&mut self, with_hot: bool) {
        for i in 0..KEYS_PER_CLIENT as u16 {
            self.exec(GenOp::Put(i));
        }
        if with_hot && self.id == 0 {
            for h in 0..HOT_KEYS {
                let v = self.next_value();
                self.tally.attempted += 1;
                match self.handle.put(self.gen.key(KeyRef::Hot(h as u8)), v) {
                    Ok(None) => self.model.hot[h] = Some(v),
                    _ => self.tally.failed += 1,
                }
            }
        }
        self.exec(GenOp::Get(0));
    }

    /// Closed loop: the next call starts when the previous one returned.
    fn closed(&mut self, deadline: Instant) -> Instant {
        loop {
            let op = self.gen.next_op();
            let t0 = Instant::now();
            if t0 >= deadline {
                return t0;
            }
            let (kind, ok) = self.exec(op);
            let dt = t0.elapsed();
            self.tally.closed_ok += ok as u64;
            if ok {
                match op {
                    GenOp::Txn(..) => self.tally.txn.record(dt.as_nanos() as u64),
                    _ => self.tally.single.record(dt.as_nanos() as u64),
                }
            }
            self.root(kind, ok, t0, dt);
        }
    }

    /// Open loop: operation `k` is due at `start + offset + k × gap`
    /// whatever the system does; latency runs from the due time, so a
    /// stall is charged to every operation it delays. Past `fault_at`
    /// samples go to the fault histogram, and client 0 keeps asking the
    /// backup to stop until the main thread has seen it exit.
    fn paced(&mut self, seed: u64, start: Instant, ctl: &PacedCtl) {
        let gap_ns = (1e9 * CLIENTS as f64 / PACED_RATE) as u64;
        let first = start + Duration::from_nanos(gen::pacing_offset_ns(seed, self.id, gap_ns));
        let mut last_stop = start;
        for k in 0u64.. {
            let due = first + Duration::from_nanos(k * gap_ns);
            if due >= ctl.end {
                return;
            }
            wait_until(due);
            let in_fault = due >= ctl.fault_at;
            if in_fault
                && self.id == 0
                && !ctl.backup_stopped.load(Ordering::Relaxed)
                && last_stop.elapsed() >= Duration::from_millis(100)
            {
                self.handle.stop_replica(NodeId(BACKUP as u16));
                last_stop = Instant::now();
            }
            let op = self.gen.next_op();
            let sent = Instant::now();
            let (_, ok) = self.exec(op);
            let done = Instant::now();
            let lat = done - due;
            if in_fault {
                if ok {
                    self.tally.fault.record(lat.as_nanos() as u64);
                }
                self.root("fault", ok, due, lat);
            } else {
                self.tally.paced_sent += 1;
                self.tally.late.record((sent - due).as_nanos() as u64);
                if ok {
                    self.tally.paced.record(lat.as_nanos() as u64);
                }
                self.tally.paced_missed += (!ok || lat > PACED_LIMIT) as u64;
                self.root("paced", ok, due, lat);
            }
        }
    }

    /// End-of-run read-back of every own key. Each client also reads
    /// every hot key once: that read is ordered behind the client's own
    /// early-acknowledged commit legs, so the final check below sees
    /// them applied.
    fn read_back(&mut self, with_hot: bool) {
        for i in 0..KEYS_PER_CLIENT as u16 {
            self.exec(GenOp::Get(i));
        }
        if with_hot {
            for h in 0..HOT_KEYS {
                let _ = self.handle.get(self.gen.key(KeyRef::Hot(h as u8)));
            }
        }
    }
}

struct PacedCtl {
    fault_at: Instant,
    end: Instant,
    backup_stopped: AtomicBool,
}

/// Sleeps until `due` (returns at once when it has passed). The cluster
/// builders narrow the timer slack to 1 µs, so the overshoot is a few
/// tens of microseconds — reported as `gen.late_p99_us` and checked
/// against the inter-arrival gap — and no core is spent spinning beside
/// the replicas.
fn wait_until(due: Instant) {
    if let Some(left) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

fn counters(cluster: &Cluster, applied_log_len_max: u64) -> ClusterCounters {
    let mut c = ClusterCounters {
        applied_log_len_max,
        ..Default::default()
    };
    for m in cluster.metrics() {
        c.sent += m.sent.load(Ordering::Relaxed);
        c.committed += m.committed.load(Ordering::Relaxed);
        c.reconnects += m.reconnects.load(Ordering::Relaxed);
        c.conn_kills += m.conn_kills.load(Ordering::Relaxed);
        c.snapshots_installed += m.snapshots_installed.load(Ordering::Relaxed);
        c.truncations += m.truncations.load(Ordering::Relaxed);
        c.batch_flushes += m.batch_flushes.load(Ordering::Relaxed);
        c.batched_commands += m.batched_commands.load(Ordering::Relaxed);
        c.batch_depth = c.batch_depth.max(m.batch_depth.load(Ordering::Relaxed));
    }
    c
}

/// Stops being patient with a backup that will not stop.
const FAULT_PATIENCE: Duration = Duration::from_secs(10);

/// The main thread's side of the fault phase: wait for the backup to
/// exit, restart it, and time how long it takes to catch up — its
/// `committed` counter advancing again with no apply gap, on two
/// consecutive 1 ms polls.
fn restart_backup(cluster: &mut Cluster, ctl: &PacedCtl) -> Option<f64> {
    let give_up = Instant::now() + FAULT_PATIENCE;
    while !cluster.replica_finished(BACKUP) {
        if Instant::now() >= give_up {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    ctl.backup_stopped.store(true, Ordering::Relaxed);
    cluster.restart_replica(BACKUP);
    let restarted = Instant::now();
    let m = std::sync::Arc::clone(&cluster.metrics()[BACKUP]);
    let mut last = m.committed.load(Ordering::Relaxed);
    let mut good_polls = 0;
    // Without load nothing commits, so the wait ends with the phase.
    while Instant::now() < ctl.end {
        std::thread::sleep(Duration::from_millis(1));
        let now = m.committed.load(Ordering::Relaxed);
        let caught_up = now > last && m.gap_backlog.load(Ordering::Relaxed) == 0;
        last = now;
        good_polls = if caught_up { good_polls + 1 } else { 0 };
        if good_polls == 2 {
            return Some(restarted.elapsed().as_secs_f64() * 1e3);
        }
    }
    None
}

/// Runs one repetition on a fresh cluster.
pub fn run_rep(spec: &Spec, seed: u64, phases: Phases, trace: bool) -> Rep {
    let t0 = Instant::now();
    if spec.tcp {
        let (cluster, handles) = builder(spec).spawn_tcp().expect("loopback cluster set-up");
        drive(spec, seed, phases, trace, t0, cluster, handles)
    } else {
        let (cluster, handles) = builder(spec).spawn();
        drive(spec, seed, phases, trace, t0, cluster, handles)
    }
}

fn drive<T: Transport<Msg>>(
    spec: &Spec,
    seed: u64,
    phases: Phases,
    trace: bool,
    t0: Instant,
    mut cluster: Cluster,
    handles: Vec<ClientHandle<Msg, T>>,
) -> Rep {
    let with_hot = spec.mix.txn_pct > 0;
    let mut clients: Vec<Client<T>> = handles
        .into_iter()
        .enumerate()
        .map(|(id, mut handle)| {
            handle.set_retry_policy(RetryPolicy::fixed(Duration::from_millis(500), 6));
            Client {
                id,
                handle,
                gen: OpGen::new(seed, id, spec.mix, spec.shards),
                model: Model::default(),
                writes: 0,
                epoch: t0,
                tally: Tally::default(),
                roots: trace.then(Vec::new),
            }
        })
        .collect();
    let mut rep = Rep::default();

    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.preload(with_hot));
        }
    });
    rep.setup_s = t0.elapsed().as_secs_f64();
    rep.setup_rss_mb = procstat::rss_mb().0;
    // Set-up traffic is not part of any latency population.
    for c in clients.iter_mut() {
        c.tally.single = Hist::default();
        if let Some(r) = &mut c.roots {
            r.clear();
        }
    }

    // Closed phase. The main thread only samples two gauges every
    // 10 ms, the way an operator's scraper would.
    let cpu0 = procstat::cpu_seconds();
    let start = Instant::now();
    let deadline = start + phases.closed;
    let mut log_len_max = 0u64;
    let ends: Vec<Instant> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.closed(deadline)))
            .collect();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            let len: u64 = cluster
                .metrics()
                .iter()
                .map(|m| m.applied_log_len.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            log_len_max = log_len_max.max(len);
            rep.rss_samples.push(procstat::rss_mb().0);
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    rep.closed_wall_s = (*ends.iter().max().expect("two clients") - start).as_secs_f64();
    rep.closed_cpu_s = procstat::cpu_seconds() - cpu0;

    if spec.tcp && phases.paced > Duration::ZERO {
        let paced_start = Instant::now() + Duration::from_millis(5);
        let ctl = PacedCtl {
            fault_at: paced_start + phases.paced,
            end: paced_start + phases.paced + phases.fault,
            backup_stopped: AtomicBool::new(false),
        };
        let cpu0 = procstat::cpu_seconds();
        std::thread::scope(|s| {
            for c in clients.iter_mut() {
                let ctl = &ctl;
                s.spawn(move || c.paced(seed, paced_start, ctl));
            }
            std::thread::sleep(ctl.fault_at.saturating_duration_since(Instant::now()));
            rep.paced_cpu_cores = (procstat::cpu_seconds() - cpu0) / phases.paced.as_secs_f64();
            rep.catchup_ms = restart_backup(&mut cluster, &ctl);
        });
        if rep.catchup_ms.is_none() {
            // The backup never stopped or never caught up: the fault
            // phase failed as a whole.
            rep.tally.failed += 1;
        }
        rep.tally.attempted += 1;
    }

    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(move || c.read_back(with_hot));
        }
    });
    if with_hot {
        let gots: Vec<_> = (0..HOT_KEYS)
            .map(|h| {
                let key = clients[0].gen.key(KeyRef::Hot(h as u8));
                clients[0].handle.get(key)
            })
            .collect();
        let models: Vec<&Model> = clients.iter().map(|c| &c.model).collect();
        for (h, got) in gots.into_iter().enumerate() {
            rep.tally.attempted += 1;
            rep.tally.failed += !got.is_ok_and(|g| hot_final_ok(&models, h, g)) as u64;
        }
    }

    rep.counters = counters(&cluster, log_len_max);
    for c in &clients {
        let t = c.handle.transport_stats();
        rep.counters.reconnects += t.reconnects;
        rep.counters.conn_kills += t.conn_kills;
    }
    let t_down = Instant::now();
    cluster.shutdown();
    rep.shutdown_ms = t_down.elapsed().as_secs_f64() * 1e3;

    for c in clients {
        rep.tally.absorb(&c.tally);
        rep.roots.extend(c.roots);
    }
    rep
}
