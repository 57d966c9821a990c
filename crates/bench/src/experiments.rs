//! Shared experiment plumbing: protocol selection, run configuration,
//! the per-figure data generators and, next to each generator, the
//! registry row that prints it (see [`crate::registry`]).

use manycore_sim::{Fault, Profile, RunReport, SimBuilder, Workload};
use onepaxos::basic_paxos::BasicPaxosNode;
use onepaxos::mencius::MenciusNode;
use onepaxos::multipaxos::MultiPaxosNode;
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::twopc::TwoPcNode;
use onepaxos::{AdaptiveBatch, BatchConfig, ClusterConfig, Nanos, NodeId};

use crate::report::{Gates, Outcome, RowArgs};
use crate::table::{self, ops, us, Table};

/// The protocols under evaluation (§7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// The paper's contribution.
    OnePaxos,
    /// "Arguably the most efficient consensus protocol to date" (§7).
    MultiPaxos,
    /// The blocking Barrelfish-style baseline (§2.2).
    TwoPc,
    /// Original two-phase-per-command Paxos (§2.3), for ablations.
    BasicPaxos,
    /// Multi-leader Paxos (§8), for the Mencius ablation.
    Mencius,
}

impl Proto {
    /// All three protocols the paper's figures compare.
    pub const PAPER_SET: [Proto; 3] = [Proto::OnePaxos, Proto::MultiPaxos, Proto::TwoPc];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Proto::OnePaxos => "1Paxos",
            Proto::MultiPaxos => "Multi-Paxos",
            Proto::TwoPc => "2PC",
            Proto::BasicPaxos => "Basic-Paxos",
            Proto::Mencius => "Mencius",
        }
    }
}

/// Declarative run configuration translated onto [`SimBuilder`].
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Machine/network profile.
    pub profile: Profile,
    /// Replica count (ignored in joint mode).
    pub replicas: usize,
    /// Client count (ignored in joint mode).
    pub clients: usize,
    /// Joint deployment size, if any (§7.4).
    pub joint: Option<usize>,
    /// Operation mix.
    pub workload: Workload,
    /// Client think time.
    pub think: Nanos,
    /// Client re-targeting patience.
    pub client_timeout: Nanos,
    /// Requests per client (closed loop), unless a duration is given.
    pub requests: u64,
    /// Fixed virtual duration, overriding the request budget.
    pub duration: Option<Nanos>,
    /// Warm-up excluded from measurements.
    pub warmup: Nanos,
    /// Timeline bucket width.
    pub bucket: Nanos,
    /// Core slowdowns to inject.
    pub faults: Vec<Fault>,
    /// RNG seed.
    pub seed: u64,
    /// Engine-level command batching, if any (amortises per-message CPU
    /// cost, §3; see `onepaxos::engine`'s module docs).
    pub batch: Option<BatchConfig>,
    /// Number of key-hash-routed consensus groups (1 = unsharded; see
    /// `onepaxos::shard`'s module docs). Non-joint deployments only.
    pub shards: u16,
    /// Explicit process→core placement (replica-shard processes first,
    /// then clients); `None` = identity. Lets a sweep offer more
    /// closed-loop clients than the profile has spare cores by
    /// co-locating clients.
    pub placement: Option<Vec<usize>>,
    /// Distribute client sessions round-robin over the replicas instead
    /// of pinning every session to replica 0. Followers batch their
    /// clients' commands and forward one proposal per flush, so the
    /// per-command session cost (rx, handle, reply marshalling) spreads
    /// across replica cores while ordering stays at the leader.
    pub spread_clients: bool,
}

impl RunCfg {
    /// A 3-replica deployment on the 48-core profile — the paper's
    /// standard setup (§7.1).
    pub fn standard48() -> Self {
        RunCfg {
            profile: Profile::opteron48(),
            replicas: 3,
            clients: 1,
            joint: None,
            workload: Workload::Noop,
            think: 0,
            client_timeout: 1_000_000,
            requests: 100,
            duration: None,
            warmup: 0,
            bucket: 10_000_000,
            faults: Vec::new(),
            seed: 0xC0FFEE,
            batch: None,
            shards: 1,
            placement: None,
            spread_clients: false,
        }
    }

    /// Throughput-mode variant: fixed duration with warm-up.
    pub fn throughput48(clients: usize, duration: Nanos) -> Self {
        RunCfg {
            clients,
            duration: Some(duration),
            warmup: duration / 8,
            ..Self::standard48()
        }
    }

    /// Throughput mode on the LAN profile (§8's IP network).
    pub fn lan(clients: usize, duration: Nanos) -> Self {
        RunCfg {
            profile: Profile::lan(3 + clients),
            // LAN latencies are milliseconds; client patience must
            // scale with them or retries storm the leader.
            client_timeout: 100_000_000,
            ..Self::throughput48(clients, duration)
        }
    }
}

/// Runs the replicas `factory` builds under `cfg`.
fn run_with<P, F>(cfg: &RunCfg, factory: F) -> RunReport
where
    P: onepaxos::Protocol,
    F: FnMut(&[NodeId], NodeId) -> P,
{
    let mut b = SimBuilder::new(cfg.profile.clone(), factory)
        .workload(cfg.workload)
        .think(cfg.think)
        .client_timeout(cfg.client_timeout)
        .requests_per_client(cfg.requests)
        .warmup(cfg.warmup)
        .timeline_bucket(cfg.bucket)
        .seed(cfg.seed);
    b = match cfg.joint {
        Some(n) => b.joint(n),
        None => b.replicas(cfg.replicas).clients(cfg.clients),
    };
    if let Some(d) = cfg.duration {
        b = b.duration(d);
    }
    if let Some(batch) = cfg.batch {
        b = b.batching(batch);
    }
    if cfg.shards > 1 {
        b = b.shards(cfg.shards);
    }
    if let Some(p) = cfg.placement.clone() {
        b = b.placement(p);
    }
    if cfg.spread_clients {
        b = b.spread_clients(true);
    }
    for f in &cfg.faults {
        b = b.fault(*f);
    }
    b.run()
}

fn mk_cfg(members: &[NodeId], me: NodeId) -> ClusterConfig {
    ClusterConfig::new(members.to_vec(), me)
}

/// Runs `proto` under `cfg` and returns the report.
pub fn run(proto: Proto, cfg: &RunCfg) -> RunReport {
    match proto {
        Proto::OnePaxos => run_with(cfg, |m, me| OnePaxosNode::new(mk_cfg(m, me))),
        Proto::MultiPaxos => run_with(cfg, |m, me| MultiPaxosNode::new(mk_cfg(m, me))),
        Proto::TwoPc => run_with(cfg, |m, me| TwoPcNode::new(mk_cfg(m, me))),
        Proto::BasicPaxos => run_with(cfg, |m, me| BasicPaxosNode::new(mk_cfg(m, me))),
        Proto::Mencius => run_with(cfg, |m, me| MenciusNode::new(mk_cfg(m, me))),
    }
}

/// One point of a scalability series.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Number of clients (or nodes, in joint mode).
    pub n: usize,
    /// Throughput, ops/sec.
    pub throughput: f64,
    /// Mean commit latency, µs.
    pub latency_us: f64,
}

/// Fig 2: Multi-Paxos throughput vs number of clients, many-core vs LAN.
pub fn fig2(clients: &[usize], duration: Nanos) -> Vec<(usize, f64, f64)> {
    clients
        .iter()
        .map(|&c| {
            let mc = run(Proto::MultiPaxos, &RunCfg::throughput48(c, duration)).throughput;
            let lan = RunCfg {
                duration: Some(duration.max(2_000_000_000)),
                ..RunCfg::lan(c, duration)
            };
            let lan = run(Proto::MultiPaxos, &lan).throughput;
            (c, mc, lan)
        })
        .collect()
}

/// The `fig2` row. Fig 2: "The scalability of Multi-Paxos in LAN
/// compared to many-core systems" — throughput vs number of clients on
/// both network profiles.
///
/// Paper shape: on a LAN the throughput keeps rising up to ~100 clients;
/// on the many-core it stops improving after about 3 clients because the
/// cores saturate on message transmission.
pub fn fig2_row(_: &RowArgs) -> Outcome {
    let clients = [1usize, 2, 3, 5, 7, 10, 15, 20, 30, 45];
    let mut t = Table::new(&["clients", "many-core op/s", "LAN op/s"]);
    for (c, mc, lan) in fig2(&clients, 200_000_000) {
        t.row(&[c.to_string(), ops(mc), ops(lan)]);
    }
    println!("Fig 2 — Multi-Paxos throughput vs clients (3 replicas)\n");
    print!("{}", t.render());
    println!("\npaper shape: many-core flattens after ~3 clients; LAN keeps scaling.");
    Ok(())
}

/// §7.2 latency table: single-client commit latency and throughput.
pub fn tab_latency(requests: u64) -> Vec<(Proto, f64, f64)> {
    Proto::PAPER_SET
        .iter()
        .map(|&p| {
            let r = run(
                p,
                &RunCfg {
                    requests,
                    ..RunCfg::standard48()
                },
            );
            (p, r.mean_latency_us(), r.throughput)
        })
        .collect()
}

/// The `tab_latency` row. §7.2: single-client commit latency and
/// throughput for the three protocols on the 48-core profile.
///
/// Paper values: 1Paxos 16.0 µs < Multi-Paxos 19.6 µs < 2PC 21.4 µs,
/// with throughput ordered inversely.
pub fn tab_latency_row(_: &RowArgs) -> Outcome {
    let paper = [16.0, 19.6, 21.4];
    let mut t = Table::new(&[
        "protocol",
        "latency (µs)",
        "paper (µs)",
        "throughput (op/s)",
    ]);
    for ((p, lat, tput), paper_lat) in tab_latency(2_000).into_iter().zip(paper) {
        t.row(&[p.name().to_string(), us(lat), us(paper_lat), ops(tput)]);
    }
    println!("§7.2 — single-client commit latency (3 replicas, 48-core profile)\n");
    print!("{}", t.render());
    println!("\npaper shape: 1Paxos < Multi-Paxos < 2PC.");
    Ok(())
}

/// Fig 8: latency vs throughput as the client count grows (1–45).
pub fn fig8(proto: Proto, clients: &[usize], duration: Nanos) -> Vec<ScalePoint> {
    clients
        .iter()
        .map(|&c| {
            let r = run(proto, &RunCfg::throughput48(c, duration));
            ScalePoint {
                n: c,
                throughput: r.throughput,
                latency_us: r.mean_latency_us(),
            }
        })
        .collect()
}

/// The `fig8` row. Fig 8: "The latency vs throughput w.r.t the number of
/// clients in a 48-core machine" — all three protocols, clients 1…45.
/// `--smoke` runs a three-point sweep on a short run (same code path).
///
/// Paper shape: 1Paxos throughput doubles from 1 to ~13 clients and tops
/// out highest; Multi-Paxos saturates at ≈52% of 1Paxos, 2PC at ≈48%;
/// past saturation latency rises steeply at flat throughput.
pub fn fig8_row(args: &RowArgs) -> Outcome {
    let (clients, duration): (&[usize], u64) = if args.smoke {
        (&[1, 5, 13], 80_000_000)
    } else {
        (&[1, 2, 3, 5, 7, 9, 13, 17, 21, 29, 37, 45], 200_000_000)
    };
    println!(
        "Fig 8 — latency vs throughput (3 replicas, 48-core profile){}\n",
        if args.smoke { " [smoke]" } else { "" }
    );
    let series: Vec<Vec<ScalePoint>> = Proto::PAPER_SET
        .iter()
        .map(|&p| fig8(p, clients, duration))
        .collect();
    let mut t = Table::new(&[
        "clients",
        "1Paxos op/s",
        "1Paxos µs",
        "Multi-Paxos op/s",
        "Multi-Paxos µs",
        "2PC op/s",
        "2PC µs",
    ]);
    for (i, &c) in clients.iter().enumerate() {
        let row: Vec<String> = std::iter::once(c.to_string())
            .chain(
                series
                    .iter()
                    .flat_map(|pts| [ops(pts[i].throughput), us(pts[i].latency_us)]),
            )
            .collect();
        t.row(&row);
    }
    print!("{}", t.render());
    let max = |p: usize| {
        series[p]
            .iter()
            .map(|pt| pt.throughput)
            .fold(0.0f64, f64::max)
    };
    let (m1, mm, m2) = (max(0), max(1), max(2));
    println!(
        "\nsaturated: 1Paxos {} op/s, Multi-Paxos {} ({:.0}%, paper 52%), 2PC {} ({:.0}%, paper 48%)",
        ops(m1),
        ops(mm),
        100.0 * mm / m1,
        ops(m2),
        100.0 * m2 / m1
    );
    Ok(())
}

/// Fig 9: joint deployments — throughput vs number of replicas, 2 ms
/// think time.
pub fn fig9(proto: Proto, nodes: &[usize], duration: Nanos) -> Vec<ScalePoint> {
    nodes
        .iter()
        .map(|&n| {
            let r = run(
                proto,
                &RunCfg {
                    joint: Some(n),
                    think: 2_000_000,
                    ..RunCfg::throughput48(n, duration)
                },
            );
            ScalePoint {
                n,
                throughput: r.throughput,
                latency_us: r.mean_latency_us(),
            }
        })
        .collect()
}

/// The `fig9` row. Fig 9: "The throughput w.r.t the number of replicas in
/// a 48-core machine" — joint deployments (every client is a replica),
/// 2 ms think time, leader on Core 0.
///
/// Paper shape: Multi-Paxos-Joint and 2PC-Joint saturate around 20 nodes
/// and then *decline* (more messages per agreement, same per-core
/// budget); 1Paxos-Joint grows roughly linearly up to 47 nodes. At 15
/// nodes the paper reports 32 µs (1Paxos) vs 190 µs (Multi-Paxos) vs
/// 125 µs (2PC) commit latency.
pub fn fig9_row(_: &RowArgs) -> Outcome {
    let nodes = [3usize, 5, 10, 15, 20, 25, 30, 35, 40, 45, 47];
    println!("Fig 9 — joint deployments, 2 ms think time (48-core profile)\n");
    let series: Vec<Vec<ScalePoint>> = Proto::PAPER_SET
        .iter()
        .map(|&p| fig9(p, &nodes, 400_000_000))
        .collect();
    let mut t = Table::new(&[
        "replicas",
        "1Paxos-Joint op/s",
        "Multi-Paxos-Joint op/s",
        "2PC-Joint op/s",
    ]);
    for (i, &n) in nodes.iter().enumerate() {
        let row: Vec<String> = std::iter::once(n.to_string())
            .chain(series.iter().map(|pts| ops(pts[i].throughput)))
            .collect();
        t.row(&row);
    }
    print!("{}", t.render());
    let at15 = nodes.iter().position(|&n| n == 15).expect("15 in sweep");
    println!(
        "\nlatency at 15 nodes: 1Paxos {} µs (paper 32), Multi-Paxos {} µs (paper 190), 2PC {} µs (paper 125)",
        us(series[0][at15].latency_us),
        us(series[1][at15].latency_us),
        us(series[2][at15].latency_us),
    );
    Ok(())
}

/// Fig 10: read-workload bars. Returns (label, nodes, throughput).
pub fn fig10(duration: Nanos) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for &n in &[3usize, 5] {
        let one = run(
            Proto::OnePaxos,
            &RunCfg {
                joint: Some(n),
                ..RunCfg::throughput48(n, duration)
            },
        );
        out.push(("1Paxos - 0% read".to_string(), n, one.throughput));
        for read_pct in [0u8, 10, 75] {
            let r = run(
                Proto::TwoPc,
                &RunCfg {
                    joint: Some(n),
                    workload: Workload::ReadMix {
                        read_pct,
                        keys: 128,
                        hot_pct: 0,
                    },
                    ..RunCfg::throughput48(n, duration)
                },
            );
            out.push((format!("2PC-Joint - {read_pct}% read"), n, r.throughput));
        }
    }
    out
}

/// The `fig10` row. Fig 10: "Throughput of 2PC-Joint, which is run
/// directly among the clients" — read-ratio bars at 3 and 5 clients vs
/// 1Paxos with 0% reads.
///
/// Paper shape: with 0% reads 2PC-Joint is far below 1Paxos; at 75% reads
/// and 3 clients it catches up (local reads), but at 5 clients it falls
/// behind again — the local-read optimisation does not scale with the
/// number of nodes (§7.5).
pub fn fig10_row(_: &RowArgs) -> Outcome {
    println!("Fig 10 — read workloads in joint deployments (48-core profile)\n");
    let rows = fig10(300_000_000);
    let mut t = Table::new(&["series", "3 clients op/s", "5 clients op/s"]);
    let mut labels: Vec<&String> = Vec::new();
    for (l, _, _) in &rows {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    for label in labels {
        let find = |n: usize| {
            rows.iter()
                .find(|(l, nn, _)| l == label && *nn == n)
                .map_or(0.0, |(_, _, tp)| *tp)
        };
        t.row(&[label.clone(), ops(find(3)), ops(find(5))]);
    }
    print!("{}", t.render());
    println!(
        "\npaper shape: 75% reads let 2PC-Joint keep up with 1Paxos at 3 clients but not at 5."
    );
    Ok(())
}

/// Fig 11 / §2.2: throughput timeline with a core going slow at
/// `fault_at`. Returns op/s per 10 ms bucket.
///
/// Mirrors the paper's Fig 11 regime: the workload is *unsaturated*
/// (clients pace themselves, ≈ hundreds of proposals per second) so the
/// pre- and post-failure levels are equal, and failure detection operates
/// on tens-of-milliseconds timeouts so the leader change spans visible
/// 10 ms buckets. The slowdown factor models quantum starvation: with 8
/// CPU-hogs on the victim core, each message waits for the victim's next
/// scheduling quantum, so effective processing latency grows by orders of
/// magnitude (cf. §1: context switches take 10–20 µs "and can take much
/// longer").
pub fn slow_core_timeline(proto: Proto, faults: &[Fault], duration: Nanos) -> Vec<(Nanos, f64)> {
    let cfg = RunCfg {
        profile: Profile::opteron8(),
        clients: 5,
        think: 2_000_000,
        client_timeout: 40_000_000,
        duration: Some(duration),
        faults: faults.to_vec(),
        ..RunCfg::standard48()
    };
    let one_timing = onepaxos::onepaxos::Timing {
        tick: 1_000_000,
        io_timeout: 40_000_000,
        suspect_after: 80_000_000,
    };
    let mp_timing = onepaxos::multipaxos::Timing {
        tick: 1_000_000,
        suspect_after: 80_000_000,
    };
    let report = match proto {
        Proto::OnePaxos => run_with(&cfg, |m, me| {
            OnePaxosNode::with_timing(mk_cfg(m, me), one_timing)
        }),
        Proto::MultiPaxos => run_with(&cfg, |m, me| {
            MultiPaxosNode::with_timing(mk_cfg(m, me), mp_timing)
        }),
        _ => run(proto, &cfg),
    };
    report.timeline.rates().collect()
}

/// Length of the `sec2_2` and `fig11` runs: 4 s in 10 ms buckets.
const SLOW_RUN: Nanos = 4_000_000_000;
/// When those runs slow Core 0 down with CPU hogs (×5000).
const SLOW_AT: Nanos = 1_500_000_000;

/// `proto`'s throughput timeline with Core 0 slowed from [`SLOW_AT`] on.
fn slow_core_zero(proto: Proto) -> Vec<(Nanos, f64)> {
    let fault = Fault {
        at: SLOW_AT,
        core: 0,
        slowdown: 5000.0,
    };
    slow_core_timeline(proto, &[fault], SLOW_RUN)
}

/// The `sec2_2` row. §2.2 experiment: 2PC throughput when the coordinator
/// becomes slow — 8-core profile, 5 clients, 3 replicas, Core 0 slowed
/// by CPU hogs.
///
/// Paper shape: "after Core 0 becomes slow, only a few requests can
/// commit and the throughput drops to zero" — and stays there, because
/// 2PC is blocking.
pub fn sec2_2_row(_: &RowArgs) -> Outcome {
    println!("§2.2 — 2PC throughput with a slow coordinator (8-core profile, 5 clients)\n");
    let slow = slow_core_zero(Proto::TwoPc);
    print!("{}", table::timeline(&["op/s"], &[&slow], 15));
    println!(
        "\nbefore: {} op/s — after the coordinator slows: {} op/s (no recovery: blocking protocol)",
        ops(table::peak(&slow, 0, SLOW_AT)),
        ops(table::peak_of_last(&slow, 10))
    );
    Ok(())
}

/// The `fig11` row. Fig 11: "The changes in throughput achieved by
/// 1Paxos when the leader is slow" — 8-core profile, 5 clients, 3
/// replicas, leader (Core 0) slowed by CPU hogs mid-run; plotted against
/// the no-failure run in 10 ms buckets.
///
/// Paper shape: throughput drops to ~zero during the leader change, then
/// recovers to the original level once another node takes over via
/// PaxosUtility and is adopted by the active acceptor.
pub fn fig11_row(_: &RowArgs) -> Outcome {
    println!("Fig 11 — 1Paxos throughput with a slow leader (8-core profile, 5 clients)\n");
    let slow = slow_core_zero(Proto::OnePaxos);
    let healthy = slow_core_timeline(Proto::OnePaxos, &[], SLOW_RUN);
    let columns = ["slow-leader op/s", "no-failure op/s"];
    print!("{}", table::timeline(&columns, &[&slow, &healthy], 15));
    println!(
        "\nbefore fault: {} op/s — dip during leader change: {} op/s — recovered: {} op/s",
        ops(table::peak(&slow, 0, SLOW_AT)),
        ops(table::trough(&slow, SLOW_AT, SLOW_AT + 300_000_000)),
        ops(table::peak_of_last(&slow, 20))
    );
    println!("paper shape: drop to ~0 during the change, then recovery to the original level.");
    Ok(())
}

/// §8 remark: 1Paxos over an IP network vs Multi-Paxos (paper: ×2.88).
pub fn exp_ip(clients: usize, duration: Nanos) -> (f64, f64) {
    let cfg = RunCfg::lan(clients, duration);
    (
        run(Proto::OnePaxos, &cfg).throughput,
        run(Proto::MultiPaxos, &cfg).throughput,
    )
}

/// The `exp_ip` row. §8 remark: "we conducted experiments of 1Paxos over
/// an IP network and observed a factor of 2.88 improvement over
/// Multi-Paxos." Reproduced on the simulated LAN profile with saturating
/// client load.
pub fn exp_ip_row(_: &RowArgs) -> Outcome {
    println!("§8 — 1Paxos vs Multi-Paxos over an IP network (LAN profile)\n");
    let mut t = Table::new(&[
        "clients",
        "1Paxos op/s",
        "Multi-Paxos op/s",
        "ratio",
        "paper",
    ]);
    for clients in [20usize, 50, 100] {
        let (one, multi) = exp_ip(clients, 3_000_000_000);
        t.row(&[
            clients.to_string(),
            ops(one),
            ops(multi),
            format!("{:.2}x", one / multi),
            "2.88x".to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper shape: 1Paxos clearly outperforms Multi-Paxos on IP as well.");
    Ok(())
}

/// One point of the batch-size sweep.
#[derive(Clone, Copy, Debug)]
pub struct BatchPoint {
    /// Batch-size knob (`max_commands`); 1 = batching off.
    pub max_commands: usize,
    /// Whether engine batching was enabled for this point.
    pub batched: bool,
    /// Throughput, ops/sec.
    pub throughput: f64,
    /// Mean commit latency, µs.
    pub latency_us: f64,
    /// Inter-replica messages over the whole run.
    pub server_messages: u64,
    /// Completions inside the measurement window.
    pub completed: u64,
}

/// Batch-size sweep on the saturated sim harness: `max_commands = 1`
/// runs with batching off (the baseline), every other size batches with
/// `max_delay` as the deadline. The §3 expectation: throughput grows
/// with the batch size as inter-replica messages per command shrink,
/// flattening once the per-command apply cost and the per-reply
/// transmissions dominate; single-digit microseconds of deadline keep
/// the latency cost bounded.
pub fn exp_batching(
    proto: Proto,
    sizes: &[usize],
    clients: usize,
    duration: Nanos,
    max_delay: Nanos,
) -> Vec<BatchPoint> {
    sizes
        .iter()
        .map(|&s| {
            let batch = (s > 1).then(|| BatchConfig::new(s, max_delay));
            let r = run(
                proto,
                &RunCfg {
                    batch,
                    ..RunCfg::throughput48(clients, duration)
                },
            );
            BatchPoint {
                max_commands: s.max(1),
                batched: batch.is_some(),
                throughput: r.throughput,
                latency_us: r.mean_latency_us(),
                server_messages: r.server_messages,
                completed: r.completed,
            }
        })
        .collect()
}

/// Flush deadline for every batched point of the `BENCH_*.json` sweeps:
/// well under the 1 ms client patience, a small bound on added latency.
const MAX_DELAY: Nanos = 20_000;

/// Static batch depth of the sharding and transaction sweeps (which
/// compare *batched* runs): the depth the batching sweep found best at
/// saturation.
const BATCH_DEPTH: usize = 8;

/// The `exp_batching` row. Batch-size sweep: throughput/latency/message
/// count vs commands per agreement, on the saturated 48-core sim harness.
///
/// The §3 profile says per-message tx/rx CPU cost is the bottleneck
/// inside a machine; the engine's `BatchConfig` amortises it by
/// coalescing client commands into one agreement. This row measures the
/// payoff end-to-end, records it in `BENCH_batching.json` and gates on
/// batched (≥8 cmds/agreement) beating unbatched.
pub fn exp_batching_row(args: &RowArgs) -> Outcome {
    // Smoke mode keeps CI fast: the two points the acceptance gate
    // compares, on a shorter (still saturated) run.
    let (sizes, clients, duration): (&[usize], usize, u64) = if args.smoke {
        (&[1, 8], 16, 120_000_000)
    } else {
        (&[1, 2, 4, 8, 16, 32], 24, 300_000_000)
    };
    let proto = Proto::OnePaxos;

    println!(
        "Batch-size sweep — {} replicas=3 clients={clients} duration={}ms delay={}µs{}\n",
        proto.name(),
        duration / 1_000_000,
        MAX_DELAY / 1_000,
        if args.smoke { " (smoke)" } else { "" }
    );
    let points = exp_batching(proto, sizes, clients, duration, MAX_DELAY);

    let mut t = Table::new(&[
        "cmds/agreement",
        "op/s",
        "mean µs",
        "server msgs",
        "msgs/op",
    ]);
    for p in &points {
        t.row(&[
            if p.batched {
                p.max_commands.to_string()
            } else {
                "1 (off)".to_string()
            },
            ops(p.throughput),
            us(p.latency_us),
            p.server_messages.to_string(),
            format!(
                "{:.2}",
                p.server_messages as f64 / p.completed.max(1) as f64
            ),
        ]);
    }
    print!("{}", t.render());

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"max_commands\": {}, \"batched\": {}, \"throughput_ops\": {:.1}, \
                 \"mean_latency_us\": {:.2}, \"server_messages\": {}, \"completed\": {}}}",
                p.max_commands,
                p.batched,
                p.throughput,
                p.latency_us,
                p.server_messages,
                p.completed
            )
        })
        .collect();
    args.write_json(
        "batching",
        proto.name(),
        &[
            ("profile", "\"opteron-48\"".into()),
            ("clients", clients.to_string()),
            ("duration_ns", duration.to_string()),
            ("max_delay_ns", MAX_DELAY.to_string()),
        ],
        &rows,
    );

    // The acceptance gate: a deep batch (≥8 cmds/agreement) must beat the
    // unbatched baseline outright, or batching has regressed.
    let unbatched = points
        .iter()
        .find(|p| !p.batched)
        .expect("sweep includes the unbatched baseline");
    let deep = points
        .iter()
        .filter(|p| p.batched && p.max_commands >= 8)
        .map(|p| p.throughput)
        .fold(0.0f64, f64::max);
    println!(
        "deep-batch best: {} op/s vs unbatched {} op/s ({:+.1}%)",
        ops(deep),
        ops(unbatched.throughput),
        100.0 * (deep / unbatched.throughput - 1.0)
    );
    let mut gates = Gates::default();
    gates.check(
        deep > unbatched.throughput,
        "batched (≥8 cmds/agreement) throughput must be strictly greater",
    );
    gates.outcome()
}

/// One point of the shard-count sweep.
#[derive(Clone, Copy, Debug)]
pub struct ShardPoint {
    /// Number of key-hash-routed consensus groups (1 = unsharded).
    pub shards: u16,
    /// Throughput, ops/sec.
    pub throughput: f64,
    /// Mean commit latency, µs.
    pub latency_us: f64,
    /// Inter-replica messages over the whole run.
    pub server_messages: u64,
    /// Completions inside the measurement window.
    pub completed: u64,
}

/// Shard-count sweep on the saturated sim harness, batching enabled on
/// every point (the acceptance configuration: sharding must multiply
/// *batched* throughput, not merely recover what batching already
/// bought). The workload is keyed (`Put`s over a wide key space) so
/// routing exercises the real key-hash path; every `(replica, shard)`
/// process runs on its own core, so S groups put S leader cores to work
/// — the paper's "consensus scales with cores" claim in its sharpest
/// form.
pub fn exp_sharding(
    proto: Proto,
    shard_counts: &[u16],
    clients: usize,
    duration: Nanos,
    batch: BatchConfig,
) -> Vec<ShardPoint> {
    shard_counts
        .iter()
        .map(|&s| {
            let r = run(
                proto,
                &RunCfg {
                    shards: s,
                    batch: Some(batch),
                    workload: Workload::ReadMix {
                        read_pct: 0,
                        keys: 4096,
                        hot_pct: 0,
                    },
                    ..RunCfg::throughput48(clients, duration)
                },
            );
            ShardPoint {
                shards: s,
                throughput: r.throughput,
                latency_us: r.mean_latency_us(),
                server_messages: r.server_messages,
                completed: r.completed,
            }
        })
        .collect()
}

/// The `exp_sharding` row. Shard-count sweep: throughput/latency vs
/// number of key-hash-routed consensus groups, on the saturated 48-core
/// sim harness with batching enabled on every point.
///
/// The engine is the unit of sharding: S independent `ReplicaEngine`
/// groups with key-hash routing put S leader cores to work, so agreement
/// throughput scales with cores while protocol code stays untouched.
/// This row measures the payoff end-to-end, records it in
/// `BENCH_sharding.json` and gates on S=4 beating S=1; the full sweep
/// additionally gates S=4 ≥ 2× S=1.
pub fn exp_sharding_row(args: &RowArgs) -> Outcome {
    // Smoke mode keeps CI fast: the two points the acceptance gate
    // compares, on a shorter (still saturated) run. The full sweep uses
    // 24 clients, which saturate even four shard groups while S=8 still
    // fits the profile: 24 replica-shard processes + 24 clients = 48
    // cores.
    let (shard_counts, clients, duration): (&[u16], usize, u64) = if args.smoke {
        (&[1, 4], 16, 120_000_000)
    } else {
        (&[1, 2, 4, 8], 24, 300_000_000)
    };
    let proto = Proto::OnePaxos;

    println!(
        "Shard-count sweep — {} replicas=3 clients={clients} duration={}ms \
         batch={BATCH_DEPTH}cmds/{}µs{}\n",
        proto.name(),
        duration / 1_000_000,
        MAX_DELAY / 1_000,
        if args.smoke { " (smoke)" } else { "" }
    );
    let batch = BatchConfig::new(BATCH_DEPTH, MAX_DELAY);
    let points = exp_sharding(proto, shard_counts, clients, duration, batch);

    let mut t = Table::new(&["shards", "op/s", "mean µs", "server msgs", "vs S=1"]);
    let base = points[0].throughput;
    for p in &points {
        t.row(&[
            p.shards.to_string(),
            ops(p.throughput),
            us(p.latency_us),
            p.server_messages.to_string(),
            format!("{:.2}x", p.throughput / base),
        ]);
    }
    print!("{}", t.render());

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"shards\": {}, \"throughput_ops\": {:.1}, \"mean_latency_us\": {:.2}, \
                 \"server_messages\": {}, \"completed\": {}}}",
                p.shards, p.throughput, p.latency_us, p.server_messages, p.completed
            )
        })
        .collect();
    args.write_json(
        "sharding",
        proto.name(),
        &[
            ("profile", "\"opteron-48\"".into()),
            ("clients", clients.to_string()),
            ("duration_ns", duration.to_string()),
            ("batch_max_commands", BATCH_DEPTH.to_string()),
            ("batch_max_delay_ns", MAX_DELAY.to_string()),
        ],
        &rows,
    );

    // The acceptance gates. Both modes: S=4 must strictly beat S=1 (the
    // CI direction check). Full mode: S=4 must reach 2x — the point of a
    // structural multiplier is multiplying.
    let s1 = points
        .iter()
        .find(|p| p.shards == 1)
        .expect("sweep includes the unsharded baseline");
    let s4 = points
        .iter()
        .find(|p| p.shards == 4)
        .expect("sweep includes 4 shards");
    println!(
        "S=4: {} op/s vs S=1: {} op/s ({:.2}x)",
        ops(s4.throughput),
        ops(s1.throughput),
        s4.throughput / s1.throughput
    );
    let mut gates = Gates::default();
    gates.check(
        s4.throughput > s1.throughput,
        "4 shards must strictly beat 1 shard",
    );
    gates.check(
        args.smoke || s4.throughput >= 2.0 * s1.throughput,
        "the full sweep requires S=4 >= 2x S=1 saturated throughput",
    );
    gates.outcome()
}

/// One point of the adaptive-vs-static batch-depth sweep.
#[derive(Clone, Copy, Debug)]
pub struct AdaptivePoint {
    /// Offered load: closed-loop clients.
    pub clients: usize,
    /// Key-hash-routed consensus groups (1 = unsharded).
    pub shards: u16,
    /// Whether the engine drove the depth adaptively.
    pub adaptive: bool,
    /// The static flush depth (1 = batching off), or the adaptive cap.
    pub depth: usize,
    /// Throughput, ops/sec.
    pub throughput: f64,
    /// Mean commit latency, µs.
    pub latency_us: f64,
    /// Inter-replica messages over the whole run.
    pub server_messages: u64,
    /// Completions inside the measurement window.
    pub completed: u64,
    /// Deepest learned flush depth across the replicas' controllers at
    /// the end of the run (static points report the knob itself).
    pub final_depth: usize,
    /// Mean commands per flush across every engine of the run.
    pub mean_fill: f64,
}

/// Co-locates clients when a load level asks for more processes than the
/// profile has cores: replica-shard processes keep a core each (they are
/// the measured hot path), clients round-robin over the remainder.
/// Returns `None` when the identity placement already fits.
fn packed_placement(cores: usize, replica_procs: usize, clients: usize) -> Option<Vec<usize>> {
    if replica_procs + clients <= cores {
        return None;
    }
    let client_cores = cores - replica_procs;
    assert!(client_cores > 0, "no cores left for clients");
    Some(
        (0..replica_procs)
            .chain((0..clients).map(|j| replica_procs + j % client_cores))
            .collect(),
    )
}

/// Adaptive-vs-static batch-depth sweep on the 48-core sim harness: for
/// each offered load (client count) and shard count, run every static
/// depth in `statics` (1 = batching off) plus one adaptive point bounded
/// by `cap`. The static points re-measure the load-dependence of the
/// optimum (the reason a static knob is wrong at every load but one);
/// the adaptive point is the cure under test — it must land within a
/// few percent of whichever static depth happens to win at that load.
/// The workload is keyed so sharded points exercise real routing.
pub fn exp_adaptive(
    proto: Proto,
    loads: &[usize],
    shard_counts: &[u16],
    statics: &[usize],
    cap: usize,
    duration: Nanos,
    max_delay: Nanos,
) -> Vec<AdaptivePoint> {
    let mut out = Vec::new();
    for &shards in shard_counts {
        for &clients in loads {
            let mut base = RunCfg {
                shards,
                workload: Workload::ReadMix {
                    read_pct: 0,
                    keys: 4096,
                    hot_pct: 0,
                },
                ..RunCfg::throughput48(clients, duration)
            };
            base.placement =
                packed_placement(base.profile.cores, base.replicas * shards as usize, clients);
            let point = |batch: Option<BatchConfig>, depth: usize, adaptive: bool| {
                let r = run(
                    proto,
                    &RunCfg {
                        batch,
                        ..base.clone()
                    },
                );
                let stats = r.batch_stats();
                AdaptivePoint {
                    clients,
                    shards,
                    adaptive,
                    depth,
                    throughput: r.throughput,
                    latency_us: r.mean_latency_us(),
                    server_messages: r.server_messages,
                    completed: r.completed,
                    final_depth: if adaptive { stats.depth } else { depth },
                    mean_fill: stats.mean_fill(),
                }
            };
            for &s in statics {
                let batch = (s > 1).then(|| BatchConfig::new(s, max_delay));
                out.push(point(batch, s.max(1), false));
            }
            out.push(point(
                Some(BatchConfig::adaptive(AdaptiveBatch::new(cap, max_delay))),
                cap,
                true,
            ));
        }
    }
    out
}

/// Adaptive depth ceiling of the `exp_adaptive` row: the largest static
/// depth in the sweep, so the controller's whole range is covered by
/// static reference points.
const ADAPTIVE_CAP: usize = 32;

/// The `exp_adaptive` row. Adaptive-vs-static batch-depth sweep:
/// throughput/latency at three offered-load levels, sharded and
/// unsharded, comparing the engine's adaptive depth controller against
/// every static depth.
///
/// The batching sweep (`BENCH_batching.json`) showed the optimal static
/// depth tracks offered load — 16 is best at 24 closed-loop clients
/// while 32 already loses throughput and adds latency — so any fixed
/// `BatchConfig` is wrong at every load but one. The adaptive controller
/// (`BatchConfig::Adaptive`, see `onepaxos::engine`) must land within a
/// few percent of whichever static depth happens to win at *each* load,
/// without being told the load. This row measures that end-to-end,
/// records it in `BENCH_adaptive.json` and gates on adaptive beating
/// unbatched and reaching 90% of the best static point.
pub fn exp_adaptive_row(args: &RowArgs) -> Outcome {
    // Smoke mode keeps CI fast: one saturated load, the statics the gate
    // compares against (off / the known-best 16 / the overshooting 32),
    // on a shorter run. The full sweep covers three offered-load levels
    // (48 clients outnumber the profile's spare cores and are
    // co-located, see `packed_placement`), sharded and unsharded.
    let (loads, shard_counts, statics, duration): (&[usize], &[u16], &[usize], u64) = if args.smoke
    {
        (&[24], &[1], &[1, 16, 32], 120_000_000)
    } else {
        (&[6, 24, 48], &[1, 4], &[1, 8, 16, 32], 200_000_000)
    };
    let proto = Proto::OnePaxos;

    println!(
        "Adaptive batch-depth sweep — {} replicas=3 loads={loads:?} shards={shard_counts:?} \
         duration={}ms delay={}µs cap={ADAPTIVE_CAP}{}\n",
        proto.name(),
        duration / 1_000_000,
        MAX_DELAY / 1_000,
        if args.smoke { " (smoke)" } else { "" }
    );
    let points = exp_adaptive(
        proto,
        loads,
        shard_counts,
        statics,
        ADAPTIVE_CAP,
        duration,
        MAX_DELAY,
    );

    let mut t = Table::new(&[
        "clients",
        "shards",
        "policy",
        "op/s",
        "mean µs",
        "final depth",
        "mean fill",
    ]);
    for p in &points {
        t.row(&[
            p.clients.to_string(),
            p.shards.to_string(),
            if p.adaptive {
                format!("adaptive<={}", p.depth)
            } else if p.depth == 1 {
                "static 1 (off)".to_string()
            } else {
                format!("static {}", p.depth)
            },
            ops(p.throughput),
            us(p.latency_us),
            p.final_depth.to_string(),
            format!("{:.2}", p.mean_fill),
        ]);
    }
    print!("{}", t.render());

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"clients\": {}, \"shards\": {}, \"adaptive\": {}, \"depth\": {}, \
                 \"throughput_ops\": {:.1}, \"mean_latency_us\": {:.2}, \
                 \"server_messages\": {}, \"completed\": {}, \"final_depth\": {}, \
                 \"mean_fill\": {:.2}}}",
                p.clients,
                p.shards,
                p.adaptive,
                p.depth,
                p.throughput,
                p.latency_us,
                p.server_messages,
                p.completed,
                p.final_depth,
                p.mean_fill
            )
        })
        .collect();
    args.write_json(
        "adaptive",
        proto.name(),
        &[
            ("profile", "\"opteron-48\"".into()),
            ("duration_ns", duration.to_string()),
            ("max_delay_ns", MAX_DELAY.to_string()),
            ("adaptive_cap", ADAPTIVE_CAP.to_string()),
        ],
        &rows,
    );

    // The acceptance gates, per (load, shards) cell: adaptive must
    // reach 90% of the best static point — i.e. adapt at least as well
    // as a hand-tuned knob, at *every* load (static depth 1 = batching
    // off is one of the contenders; at light load it wins, and the
    // controller's goodput veto is what keeps adaptive on its heels
    // there). At the saturated 24-client load, adaptive must strictly
    // beat both mistuned extremes: static depth 1 and static depth 32.
    let mut gates = Gates::default();
    for &shards in shard_counts {
        for &clients in loads {
            let cell: Vec<&AdaptivePoint> = points
                .iter()
                .filter(|p| p.clients == clients && p.shards == shards)
                .collect();
            let adaptive = cell
                .iter()
                .find(|p| p.adaptive)
                .expect("adaptive point per cell");
            let best_static = cell
                .iter()
                .filter(|p| !p.adaptive)
                .map(|p| p.throughput)
                .fold(0.0f64, f64::max);
            println!(
                "clients={clients} shards={shards}: adaptive {} op/s vs best static {} op/s \
                 ({:.1}%)",
                ops(adaptive.throughput),
                ops(best_static),
                100.0 * adaptive.throughput / best_static,
            );
            gates.check(
                adaptive.throughput >= 0.9 * best_static,
                format!(
                    "adaptive must reach 90% of the best static depth at \
                     clients={clients} shards={shards}"
                ),
            );
            if clients == 24 {
                for extreme in [1usize, 32] {
                    if let Some(s) = cell.iter().find(|p| !p.adaptive && p.depth == extreme) {
                        gates.check(
                            adaptive.throughput > s.throughput,
                            format!(
                                "adaptive must strictly beat static depth {extreme} at \
                                 24 clients (shards={shards})"
                            ),
                        );
                    }
                }
            }
        }
    }
    gates.outcome()
}

/// One point of the cross-shard-transaction sweep.
#[derive(Clone, Copy, Debug)]
pub struct TxnPoint {
    /// Distinct shard groups each transaction touches (0 for the
    /// plain-put baseline).
    pub fanout: u16,
    /// Whether this point ran coordinator-driven transactions.
    pub txn: bool,
    /// Committed-transaction (or put) throughput, ops/sec.
    pub throughput: f64,
    /// Mean commit latency, µs.
    pub latency_us: f64,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile commit latency, µs.
    pub p999_us: f64,
    /// Inter-replica messages over the whole run.
    pub server_messages: u64,
    /// Completions inside the measurement window.
    pub completed: u64,
    /// Transactions aborted by prepare-phase lock conflicts.
    pub aborted: u64,
    /// Aborts per committed transaction (the rate the fan-out cliff
    /// shows up in before throughput does).
    pub abort_rate: f64,
    /// Lock-wait re-probes issued by the coordinators (conflict
    /// retries, not message-loss retries).
    pub retries: u64,
}

impl TxnPoint {
    fn from_report(fanout: u16, txn: bool, mut r: manycore_sim::RunReport) -> TxnPoint {
        TxnPoint {
            fanout,
            txn,
            throughput: r.throughput,
            latency_us: r.mean_latency_us(),
            p50_us: r.p50_latency_us(),
            p99_us: r.p99_latency_us(),
            p999_us: r.p999_latency_us(),
            server_messages: r.server_messages,
            completed: r.completed,
            aborted: r.txn_aborts,
            abort_rate: if r.completed == 0 {
                r.txn_aborts as f64
            } else {
                r.txn_aborts as f64 / r.completed as f64
            },
            retries: r.txn_retries,
        }
    }
}

/// Committed-transaction throughput vs cross-shard fan-out on the
/// saturated sharded sim harness, batching enabled on every point. The
/// baseline is the same deployment running plain batched puts; then the
/// `TxnMix` workload drives fan-outs of 1 (the `MultiPut` short-circuit,
/// which must cost ≈ a put), 2 and 4 — each committed fan-out-F
/// transaction paying F prepare + F outcome agreements across its
/// groups, so throughput is expected to fall roughly as 1/2F while
/// remaining strictly live.
pub fn exp_txn(
    proto: Proto,
    fanouts: &[u16],
    shards: u16,
    clients: usize,
    duration: Nanos,
    batch: BatchConfig,
    hot_pct: u8,
) -> Vec<TxnPoint> {
    // Client sessions are spread round-robin over the replicas (for
    // every point, baseline included, so the comparison stays
    // apples-to-apples). A fan-out-F transaction pushes 2F commands
    // through the shard leaders where a plain put pushes one; with all
    // sessions pinned to the leaders, the extra per-command session cost
    // (rx, handle, reply marshalling) saturates the leader cores at
    // fan-out 2 and the closed loop converts the queueing into latency.
    // Spread sessions ride the follower-forwarding path — followers
    // batch their clients' commands and forward one proposal per flush —
    // so the session cost lands on follower cores and the leaders keep
    // ordering.
    let base = |workload: Workload| RunCfg {
        shards,
        batch: Some(batch),
        workload,
        spread_clients: true,
        ..RunCfg::throughput48(clients, duration)
    };
    let mut out = Vec::with_capacity(fanouts.len() + 1);
    let baseline = run(
        proto,
        &base(Workload::ReadMix {
            read_pct: 0,
            keys: 4096,
            hot_pct,
        }),
    );
    out.push(TxnPoint::from_report(0, false, baseline));
    for &fanout in fanouts {
        let r = run(
            proto,
            &base(Workload::TxnMix {
                fanout,
                keys: 4096,
                hot_pct,
            }),
        );
        out.push(TxnPoint::from_report(fanout, true, r));
    }
    out
}

/// Shard groups in the `exp_txn` deployment (the fan-out sweep's
/// ceiling).
const TXN_SHARDS: u16 = 4;

/// The `exp_txn` row. Cross-shard transaction sweep: committed-txn
/// throughput vs cross-shard fan-out (1, 2, 4 shard groups touched)
/// against the plain batched-put baseline, on the saturated sharded
/// 48-core sim harness.
///
/// The transaction layer (`onepaxos::txn`) runs classic 2PC across the
/// per-shard Paxos groups, every phase a command agreed by the
/// participant group's own log — with the fan-out hot path riding two
/// compounding optimizations: shard-id-ordered prepares with lock-wait
/// queues (conflicts park instead of aborting, and the client re-probes
/// a parked prepare at once), and presumed-durability early ack (the
/// commit is acked at unanimous yes votes and the outcome legs drain in
/// the background, overlapping the next transaction's prepares). Every
/// client is the `ClientSession` the threaded runtime runs.
/// A fan-out-F transaction still buys its atomicity with F prepare + F
/// outcome agreements, but the client-visible critical path is the
/// prepare phase only — while the fan-out-1 short-circuit
/// (`Op::MultiPut`, one agreement, no lock window) must ride the
/// ordinary batched-put path at ordinary cost. This row records both
/// facts plus the latency distribution (p50/p99/p999) in
/// `BENCH_txn.json` and gates on them: single-shard transactions within
/// 10% of plain batched puts, cross-shard fan-out-2 at half the
/// plain-put rate or better, and an abort rate below one per hundred
/// committed transactions.
pub fn exp_txn_row(args: &RowArgs) -> Outcome {
    // Smoke keeps CI fast: the two gated points on a shorter run. The
    // full sweep adds fan-out 4 (every transaction touches every group)
    // and more clients: 3×4 = 12 replica-shard processes + 24 clients =
    // 36 cores of the 48-core profile.
    let (fanouts, clients, duration): (&[u16], usize, u64) = if args.smoke {
        (&[1, 2], 16, 120_000_000)
    } else {
        (&[1, 2, 4], 24, 300_000_000)
    };
    let proto = Proto::OnePaxos;

    println!(
        "Cross-shard txn sweep — {} replicas=3 shards={TXN_SHARDS} clients={clients} \
         duration={}ms batch={BATCH_DEPTH}cmds/{}µs{}\n",
        proto.name(),
        duration / 1_000_000,
        MAX_DELAY / 1_000,
        if args.smoke { " (smoke)" } else { "" }
    );
    let points = exp_txn(
        proto,
        fanouts,
        TXN_SHARDS,
        clients,
        duration,
        BatchConfig::new(BATCH_DEPTH, MAX_DELAY),
        0, // uniform keys; the hot_pct contention knob is for targeted runs
    );

    let mut t = Table::new(&[
        "workload",
        "fanout",
        "op/s",
        "mean µs",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "aborts/txn",
        "retries",
        "vs puts",
    ]);
    let base = points[0].throughput;
    for p in &points {
        t.row(&[
            if p.txn { "txn" } else { "plain puts" }.to_string(),
            if p.txn {
                p.fanout.to_string()
            } else {
                "-".to_string()
            },
            ops(p.throughput),
            us(p.latency_us),
            us(p.p50_us),
            us(p.p99_us),
            us(p.p999_us),
            format!("{:.4}", p.abort_rate),
            p.retries.to_string(),
            format!("{:.2}x", p.throughput / base),
        ]);
    }
    print!("{}", t.render());

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"txn\": {}, \"fanout\": {}, \"throughput_ops\": {:.1}, \
                 \"mean_latency_us\": {:.2}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
                 \"p999_us\": {:.2}, \"server_messages\": {}, \"completed\": {}, \
                 \"aborted\": {}, \"abort_rate\": {:.5}, \"retries\": {}}}",
                p.txn,
                p.fanout,
                p.throughput,
                p.latency_us,
                p.p50_us,
                p.p99_us,
                p.p999_us,
                p.server_messages,
                p.completed,
                p.aborted,
                p.abort_rate,
                p.retries
            )
        })
        .collect();
    args.write_json(
        "txn",
        proto.name(),
        &[
            ("profile", "\"opteron-48\"".into()),
            ("shards", TXN_SHARDS.to_string()),
            ("clients", clients.to_string()),
            ("duration_ns", duration.to_string()),
            ("batch_max_commands", BATCH_DEPTH.to_string()),
            ("batch_max_delay_ns", MAX_DELAY.to_string()),
        ],
        &rows,
    );

    // The acceptance gates, both modes.
    let baseline = &points[0];
    let f1 = points
        .iter()
        .find(|p| p.txn && p.fanout == 1)
        .expect("sweep includes fan-out 1");
    let f2 = points
        .iter()
        .find(|p| p.txn && p.fanout == 2)
        .expect("sweep includes fan-out 2");
    println!(
        "fanout-1 txns: {} op/s vs plain batched puts: {} op/s ({:.2}x); \
         fanout-2: {} op/s ({:.2}x), {} committed, {} aborted ({:.4}/txn), {} retries",
        ops(f1.throughput),
        ops(baseline.throughput),
        f1.throughput / baseline.throughput,
        ops(f2.throughput),
        f2.throughput / baseline.throughput,
        f2.completed,
        f2.aborted,
        f2.abort_rate,
        f2.retries
    );
    let mut gates = Gates::default();
    gates.check(
        f1.throughput >= 0.9 * baseline.throughput,
        "single-shard txns must stay within 10% of plain batched puts",
    );
    gates.check(
        f2.completed > 0 && f2.throughput > 0.0,
        "fan-out-2 transactions made no forward progress",
    );
    gates.check(
        f2.throughput >= 0.5 * baseline.throughput,
        format!(
            "fan-out-2 txns must reach half the plain batched-put rate \
             (got {:.2}x) — the fan-out cliff is back",
            f2.throughput / baseline.throughput
        ),
    );
    gates.check(
        f2.abort_rate <= 0.01,
        format!(
            "fan-out-2 abort rate {:.4} aborts/committed txn exceeds 0.01 — \
             the lock-wait queues or the client's re-probes regressed",
            f2.abort_rate
        ),
    );
    gates.outcome()
}

/// §5.2/§5.4: acceptor switch and double-failure liveness timeline for
/// 1Paxos. Returns (timeline, label) pairs.
pub fn exp_accswitch(duration: Nanos) -> Vec<(&'static str, Vec<(Nanos, f64)>)> {
    let third = duration / 3;
    vec![
        (
            "slow acceptor (switch to backup)",
            slow_core_timeline(
                Proto::OnePaxos,
                &[Fault {
                    at: third,
                    core: 1,
                    slowdown: 5000.0,
                }],
                duration,
            ),
        ),
        (
            "slow leader+acceptor (blocked until the acceptor recovers)",
            slow_core_timeline(
                Proto::OnePaxos,
                &[
                    Fault {
                        at: third,
                        core: 0,
                        slowdown: 5000.0,
                    },
                    Fault {
                        at: third,
                        core: 1,
                        slowdown: 5000.0,
                    },
                    // The acceptor recovers later; the leader stays slow.
                    Fault {
                        at: 2 * third,
                        core: 1,
                        slowdown: 1.0,
                    },
                ],
                duration,
            ),
        ),
    ]
}

/// The `exp_accswitch` row. §5.2/§5.4 behaviour: acceptor switching and
/// the double-failure trade-off, shown as throughput timelines.
///
/// Expected shape: a slow *acceptor* causes a brief dip while the leader
/// installs a backup acceptor via PaxosUtility, then full recovery; when
/// the leader and the acceptor are slow *simultaneously*, 1Paxos blocks —
/// by design, trading liveness for safety — and resumes as soon as the
/// acceptor responds again.
pub fn exp_accswitch_row(_: &RowArgs) -> Outcome {
    println!("§5.2/§5.4 — acceptor switch and double failure (8-core profile, 5 clients)\n");
    for (label, timeline) in exp_accswitch(900_000_000) {
        println!("{label}:");
        print!("{}", table::timeline(&["op/s"], &[&timeline], 4));
        println!();
    }
    Ok(())
}

/// §8 ablation: saturated throughput of Mencius, Multi-Paxos and 1Paxos
/// (in that order) with `clients` clients, balanced over the leaders
/// (`spread`) or all at Core 0.
pub fn ablation_mencius(clients: usize, spread: bool) -> [f64; 3] {
    [Proto::Mencius, Proto::MultiPaxos, Proto::OnePaxos].map(|p| {
        let cfg = RunCfg {
            spread_clients: spread,
            ..RunCfg::throughput48(clients, 200_000_000)
        };
        run(p, &cfg).throughput
    })
}

/// The `ablation_mencius` row. §8 ablation: Mencius-style multi-leader
/// consensus vs Multi-Paxos and 1Paxos.
///
/// The paper argues: "Mencius uses proposer replication to enhance the
/// scalability" but "each leader still has to communicate with all
/// acceptors to make a proposal", and under unbalanced load "the
/// under-loaded leaders also have to skip their share of the instance
/// space, which would not help the load balancing objective" (§8).
///
/// Three comparisons on the 48-core profile, 3 replicas:
/// 1. balanced clients (spread over the leaders) — Mencius's best case;
/// 2. skewed clients (all at Core 0, the paper's standard setup) —
///    Mencius pays skip messages;
/// 3. 1Paxos and Multi-Paxos under the same loads.
pub fn ablation_mencius_row(_: &RowArgs) -> Outcome {
    println!("§8 ablation — multi-leader (Mencius) vs single-leader, 3 replicas\n");
    let mut t = Table::new(&[
        "clients",
        "load",
        "Mencius op/s",
        "Multi-Paxos op/s",
        "1Paxos op/s",
    ]);
    for clients in [3usize, 9, 18, 30] {
        for spread in [true, false] {
            let load = if spread { "balanced" } else { "skewed" };
            let rates = ablation_mencius(clients, spread).map(ops);
            let row: Vec<String> = [clients.to_string(), load.to_string()]
                .into_iter()
                .chain(rates)
                .collect();
            t.row(&row);
        }
    }
    print!("{}", t.render());
    println!("\nexpected shape: balanced Mencius beats Multi-Paxos (leader work spread over");
    println!("three cores); skewed Mencius loses that edge and pays skip traffic; 1Paxos");
    println!("needs no balanced load at all — and §8 notes Mencius could adopt the 1Paxos");
    println!("single-acceptor insight on top.");
    Ok(())
}

/// Fig 1 ablation: 1Paxos commit latency with one unsaturated client
/// (propagation is visible) and throughput with six saturating clients
/// (CPU-bound, placement-insensitive), with the replicas and clients on
/// the cores `placement` names.
pub fn ablation_placement(placement: &[usize]) -> (f64, f64) {
    let lat = run(
        Proto::OnePaxos,
        &RunCfg {
            placement: Some(placement[..4].to_vec()),
            requests: 2_000,
            ..RunCfg::standard48()
        },
    );
    let tput = run(
        Proto::OnePaxos,
        &RunCfg {
            clients: 6,
            placement: Some(placement.to_vec()),
            duration: Some(150_000_000),
            warmup: 20_000_000,
            ..RunCfg::standard48()
        },
    );
    (lat.mean_latency_us(), tput.throughput)
}

/// The `ablation_placement` row. Fig 1 ablation: non-uniform inter-core
/// latency. "Cores C0 and C1 share the same last-level cache and
/// communicate much faster than Cores C0 and C3, which have to go
/// through the interconnect network."
///
/// Same protocol, same load — only the *placement* of the three replicas
/// changes: all on one socket (sharing the LLC) vs spread over three
/// sockets. The measured latency difference is pure propagation.
pub fn ablation_placement_row(_: &RowArgs) -> Outcome {
    println!("Fig 1 ablation — replica placement on the 48-core topology (6 cores/socket)\n");
    // Same socket: replicas on cores 0,1,2; clients on 3,4,5 (socket 0).
    let same = ablation_placement(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    // Cross socket: replicas on 0, 6, 12 (three sockets); clients across
    // further sockets.
    let cross = ablation_placement(&[0, 6, 12, 18, 24, 30, 36, 42, 43]);
    let mut t = Table::new(&["placement", "latency (µs)", "throughput (op/s)"]);
    t.row(&[
        "replicas share one socket (LLC)".to_string(),
        us(same.0),
        ops(same.1),
    ]);
    t.row(&[
        "replicas on three sockets".to_string(),
        us(cross.0),
        ops(cross.1),
    ]);
    print!("{}", t.render());
    println!(
        "\nsame-LLC placement saves {:.1} µs per commit — propagation only; the CPU-bound",
        cross.0 - same.0
    );
    println!("saturation throughput barely moves, confirming §3: transmission (CPU) is the");
    println!("scarce resource, propagation merely adds latency.");
    Ok(())
}

/// §1 extension: joint 1Paxos throughput on `n` nodes at `read_pct`%
/// reads, with every `Get` a consensus round or, when `relaxed`,
/// answered from the local learner state.
pub fn exp_relaxed_reads(n: usize, read_pct: u8, relaxed: bool) -> f64 {
    let cfg = RunCfg {
        joint: Some(n),
        workload: Workload::ReadMix {
            read_pct,
            keys: 128,
            hot_pct: 0,
        },
        ..RunCfg::throughput48(n, 250_000_000)
    };
    let node = |m: &[NodeId], me| OnePaxosNode::new(mk_cfg(m, me));
    let report = if relaxed {
        run_with(&cfg, |m, me| node(m, me).with_relaxed_reads())
    } else {
        run_with(&cfg, node)
    };
    report.throughput
}

/// The `exp_relaxed_reads` row. §1 extension experiment: "For more
/// relaxed read consistency guarantees, local reads may be performed even
/// with non-blocking protocols."
///
/// Compares joint 1Paxos with linearized reads (every `Get` is a
/// consensus round) against 1Paxos with relaxed local reads (answered
/// from the local learner state), over the Fig 10 read mixes.
pub fn exp_relaxed_reads_row(_: &RowArgs) -> Outcome {
    println!("§1 extension — 1Paxos-Joint: linearized vs relaxed local reads\n");
    let mut t = Table::new(&[
        "nodes",
        "read %",
        "linearized op/s",
        "relaxed op/s",
        "speedup",
    ]);
    for n in [3usize, 5, 15] {
        for read_pct in [10u8, 50, 90] {
            let lin = exp_relaxed_reads(n, read_pct, false);
            let rel = exp_relaxed_reads(n, read_pct, true);
            t.row(&[
                n.to_string(),
                read_pct.to_string(),
                ops(lin),
                ops(rel),
                format!("{:.2}x", rel / lin),
            ]);
        }
    }
    print!("{}", t.render());
    println!("\nrelaxed reads bypass the leader/acceptor entirely, so unlike 2PC-Joint's");
    println!("lock-window reads (Fig 10) the benefit *grows* with the number of nodes.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dispatches_all_protocols() {
        for p in [
            Proto::OnePaxos,
            Proto::MultiPaxos,
            Proto::TwoPc,
            Proto::BasicPaxos,
            Proto::Mencius,
        ] {
            let r = run(
                p,
                &RunCfg {
                    requests: 20,
                    ..RunCfg::standard48()
                },
            );
            assert_eq!(r.completed, 20, "{p:?}");
        }
    }

    #[test]
    fn exp_batching_deep_batches_beat_unbatched() {
        let pts = exp_batching(Proto::OnePaxos, &[1, 8], 16, 120_000_000, 20_000);
        assert_eq!(pts.len(), 2);
        assert!(!pts[0].batched && pts[1].batched);
        assert!(
            pts[1].throughput > pts[0].throughput,
            "batch=8 {:.0} op/s must beat unbatched {:.0} op/s",
            pts[1].throughput,
            pts[0].throughput
        );
        assert!(pts[1].server_messages < pts[0].server_messages);
    }

    #[test]
    fn exp_sharding_four_groups_beat_one() {
        let pts = exp_sharding(
            Proto::OnePaxos,
            &[1, 4],
            16,
            120_000_000,
            BatchConfig::new(8, 20_000),
        );
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].throughput > pts[0].throughput,
            "4 shards {:.0} op/s must beat 1 shard {:.0} op/s",
            pts[1].throughput,
            pts[0].throughput
        );
    }

    #[test]
    fn exp_adaptive_learns_a_depth_and_beats_unbatched() {
        let pts = exp_adaptive(
            Proto::OnePaxos,
            &[16],
            &[1],
            &[1, 8],
            32,
            120_000_000,
            20_000,
        );
        assert_eq!(pts.len(), 3, "two statics plus the adaptive point");
        let adaptive = pts.iter().find(|p| p.adaptive).expect("adaptive point");
        let unbatched = pts
            .iter()
            .find(|p| !p.adaptive && p.depth == 1)
            .expect("unbatched baseline");
        assert!(
            adaptive.throughput > unbatched.throughput,
            "adaptive {:.0} op/s must beat unbatched {:.0} op/s",
            adaptive.throughput,
            unbatched.throughput
        );
        assert!(adaptive.final_depth > 1, "controller never grew");
        assert!(adaptive.mean_fill > 1.0);
    }

    #[test]
    fn exp_txn_single_shard_rides_the_batch_path_and_fanout_two_progresses() {
        let pts = exp_txn(
            Proto::OnePaxos,
            &[1, 2],
            4,
            16,
            120_000_000,
            BatchConfig::new(8, 20_000),
            0,
        );
        assert_eq!(pts.len(), 3, "baseline plus two fan-outs");
        let baseline = &pts[0];
        let f1 = &pts[1];
        let f2 = &pts[2];
        assert!(!baseline.txn && f1.txn && f2.txn);
        // Fan-out 1 short-circuits to MultiPut: one agreement per txn,
        // same shape as a put — within 10% of the plain-put baseline.
        assert!(
            f1.throughput >= 0.9 * baseline.throughput,
            "single-shard txns {:.0} op/s vs plain puts {:.0} op/s",
            f1.throughput,
            baseline.throughput
        );
        // Cross-shard txns pay their 2PC legs but stay live — and with
        // pipelined outcomes they must clear half the plain-put rate.
        assert!(f2.completed > 0, "fan-out-2 made no progress");
        assert!(
            f2.throughput >= 0.5 * baseline.throughput,
            "fan-out-2 txns {:.0} op/s vs plain puts {:.0} op/s — the cliff is back",
            f2.throughput,
            baseline.throughput
        );
        // The latency histogram is populated and ordered.
        assert!(f2.p50_us > 0.0 && f2.p99_us >= f2.p50_us && f2.p999_us >= f2.p99_us);
    }

    #[test]
    fn packed_placement_only_kicks_in_past_the_core_count() {
        assert_eq!(packed_placement(48, 3, 45), None);
        let p = packed_placement(48, 3, 48).expect("51 processes on 48 cores");
        assert_eq!(p.len(), 51);
        assert_eq!(&p[..3], &[0, 1, 2], "replicas keep their own cores");
        assert!(p[3..].iter().all(|&c| (3..48).contains(&c)));
        // First spare core hosts the first and the 46th client.
        assert_eq!(p[3], 3);
        assert_eq!(p[3 + 45], 3);
    }

    #[test]
    fn tab_latency_orders_like_the_paper() {
        let t = tab_latency(200);
        assert_eq!(t[0].0, Proto::OnePaxos);
        assert!(t[0].1 < t[1].1 && t[1].1 < t[2].1);
    }

    #[test]
    fn fig2_lan_scales_further_than_multicore() {
        let rows = fig2(&[1, 3, 10], 100_000_000);
        // Many-core Multi-Paxos stops improving after ~3 clients…
        let mc_gain = rows[2].1 / rows[1].1;
        assert!(mc_gain < 1.3, "many-core gain 3→10 clients: {mc_gain}");
        // …while the LAN keeps gaining.
        let lan_gain = rows[2].2 / rows[1].2;
        assert!(lan_gain > 1.5, "LAN gain 3→10 clients: {lan_gain}");
    }

    #[test]
    fn fig9_joint_baselines_peak_and_decline_while_onepaxos_grows() {
        // The paper's most distinctive figure, as a shape assertion at
        // reduced scale: past ~20 nodes Multi-Paxos-Joint declines while
        // 1Paxos-Joint keeps growing.
        let nodes = [10usize, 20, 40];
        let one = fig9(Proto::OnePaxos, &nodes, 150_000_000);
        let multi = fig9(Proto::MultiPaxos, &nodes, 150_000_000);
        // 1Paxos-Joint grows monotonically over the sweep.
        assert!(one[2].throughput > one[1].throughput);
        assert!(one[1].throughput > one[0].throughput);
        // Multi-Paxos-Joint declines from its ~20-node peak.
        assert!(
            multi[2].throughput < multi[1].throughput,
            "Multi-Paxos-Joint must decline past its peak: {} vs {}",
            multi[2].throughput,
            multi[1].throughput
        );
        // And 1Paxos ends far ahead (paper: ~4x at 45+ nodes).
        assert!(one[2].throughput > 2.0 * multi[2].throughput);
    }

    #[test]
    fn fig10_shape_reduced() {
        let rows = fig10(100_000_000);
        let find = |label: &str, n: usize| {
            rows.iter()
                .find(|(l, nn, _)| l == label && *nn == n)
                .map(|(_, _, tp)| *tp)
                .expect("series present")
        };
        // 75% reads close the gap at 3 clients…
        let one3 = find("1Paxos - 0% read", 3);
        let two3_75 = find("2PC-Joint - 75% read", 3);
        assert!(two3_75 > 0.85 * one3, "{two3_75} vs {one3}");
        // …but not at 5 clients.
        let one5 = find("1Paxos - 0% read", 5);
        let two5_75 = find("2PC-Joint - 75% read", 5);
        assert!(two5_75 < 0.9 * one5, "{two5_75} vs {one5}");
        // And pure writes leave 2PC-Joint far behind everywhere.
        assert!(find("2PC-Joint - 0% read", 3) < 0.5 * one3);
    }
}
