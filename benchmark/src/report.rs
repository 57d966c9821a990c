//! Turning repetitions into reported metrics: the end-to-end run, the
//! traced run with its budget table, and the `--agree` / `--smoke`
//! modes that run whole sets in child processes.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::{ClusterConfig, NodeId};

use crate::burst::{self, BurstOut, Until};
use crate::hist::Hist;
use crate::layers;
use crate::pipeline::{self, Link, PipelineOut};
use crate::procstat;
use crate::spec::{self, Better, END_TO_END, REPS};
use crate::threaded::{self, Phases, Rep, Spec};
use crate::trace::{self, median_f64, median_u64, RootSpan, Tracer};

/// What a run reports on its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as measured, with all its digits (Rust prints the shortest
/// decimal that round-trips); JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(8).wrapping_add(rep as u64)
}

/// Warm-up before the repetitions: 2 s of the same workload on its own
/// cluster, discarded (the first window of a process is measurably
/// different); shorter only when the whole run is short.
fn warmup_of(measured: Duration) -> Duration {
    Duration::from_secs(2).min(measured / 6)
}

fn one_paxos(m: &[NodeId], me: NodeId) -> OnePaxosNode {
    OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
}

fn us(h: &Hist, q: f64) -> f64 {
    h.quantile(q) / 1e3
}

fn median_of(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = vals.into_iter().collect();
    median_f64(&mut v)
}

/// How the repetitions of a run become one number: the mean of the
/// middle ones, the [`TRIM`] highest and lowest set aside. Clusters fall
/// into two scheduling regimes, and the median of twelve flips between
/// them from run to run; the trimmed mean moves with the regimes' shares
/// instead (measured: half the median's spread) and still shrugs off a
/// stalled repetition or two.
fn across_reps(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = vals.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 * TRIM {
        &v[TRIM..v.len() - TRIM]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

const TRIM: usize = 2;

fn header(workload: &str, seed: u64, measured: Duration, traced: bool) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {workload}  seed {seed}  {} s measured in {REPS} repetitions on fresh clusters{}  ({cores} cores available)",
        measured.as_secs_f64(),
        if traced { "  [traced run]" } else { "" },
    );
    println!(
        "# no message delay is injected: latency is processor time plus (tcp_mix) kernel loopback"
    );
}

// ---------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------

/// The end-to-end values of one repetition, in `END_TO_END` order minus
/// `setup_s` (the run's set-ups are pooled).
struct RepLine {
    setup_s: f64,
    throughput: f64,
    p50_us: f64,
    p90_us: f64,
    /// Printed for people; reported by the traced run as `diag.p99_us`.
    p99_us: f64,
    rss_mb: f64,
    cpu_us_per_op: f64,
    samples: u64,
}

fn rep_line_threaded(r: &Rep) -> RepLine {
    RepLine {
        setup_s: r.setup_s,
        throughput: r.tally.closed_ok as f64 / r.closed_wall_s,
        p50_us: us(&r.tally.single, 0.5),
        p90_us: us(&r.tally.single, 0.90),
        p99_us: us(&r.tally.single, 0.99),
        rss_mb: median_of(r.rss_samples.iter().copied()),
        cpu_us_per_op: r.closed_cpu_s * 1e6 / r.tally.closed_ok.max(1) as f64,
        samples: r.tally.single.count(),
    }
}

fn rep_line_burst(b: &BurstOut) -> RepLine {
    RepLine {
        setup_s: median_of(b.setups_s.iter().copied()),
        throughput: b.commands as f64 / b.wall_s,
        p50_us: us(&b.round_ns, 0.5),
        p90_us: us(&b.round_ns, 0.90),
        p99_us: us(&b.round_ns, 0.99),
        rss_mb: median_of(b.rss_samples.iter().copied()),
        cpu_us_per_op: b.cpu_s * 1e6 / b.all_commands.max(1) as f64,
        samples: b.round_ns.count(),
    }
}

fn finish_end_to_end(
    lines: &[RepLine],
    setups: &[f64],
    setup_rss_mb: f64,
    attempted: u64,
    failed: u64,
) -> Outcome {
    println!("rep   setup_s  throughput_ops      p50_us      p90_us    (p99_us)    rss_mb  cpu_us_per_op  latency samples");
    for (i, l) in lines.iter().enumerate() {
        println!(
            "{i:>3}  {:>8.4}  {:>14.1}  {:>10.3}  {:>10.3}  {:>10.3}  {:>8.2}  {:>13.4}  {:>15}",
            l.setup_s,
            l.throughput,
            l.p50_us,
            l.p90_us,
            l.p99_us,
            l.rss_mb,
            l.cpu_us_per_op,
            l.samples
        );
    }
    let values = [
        median_of(setups.iter().copied()),
        across_reps(lines.iter().map(|l| l.throughput)),
        across_reps(lines.iter().map(|l| l.p50_us)),
        across_reps(lines.iter().map(|l| l.p90_us)),
        setup_rss_mb,
        across_reps(lines.iter().map(|l| l.cpu_us_per_op)),
    ];
    println!(
        "\nmetric (mean of {REPS} repetitions without the {TRIM} highest and {TRIM} lowest; setup_s median of {} set-ups; setup_rss_mb after the first)",
        setups.len()
    );
    let mut out = Outcome {
        attempted,
        failed,
        ..Default::default()
    };
    for ((name, unit, _, bound), v) in END_TO_END.iter().zip(values) {
        println!(
            "  {name:<16} {v:>14.4} {unit:<5} (bound {:.0} %)",
            bound * 100.0
        );
        out.metrics.push((name.to_string(), v, unit));
    }
    println!(
        "  p99_us           {:>14.4} us    (not bounded: one or two preempted operations in a hundred move it; diag.p99_us in the traced run)",
        across_reps(lines.iter().map(|l| l.p99_us))
    );
    println!(
        "  rss floor / peak {:>14.4} MB / {:.4} MB (lowest repetition median / VmHWM at exit; both ratchet with the backup's backlog, so neither is a bounded metric)",
        lines.iter().map(|l| l.rss_mb).fold(f64::INFINITY, f64::min),
        procstat::rss_mb().1
    );
    println!(
        "  failed_share     {:>14.6} ratio ({failed} of {attempted} operations; any failure fails the run)",
        failed as f64 / attempted.max(1) as f64
    );
    out
}

pub fn run_end_to_end(workload: &str, seed: u64, measured: Duration) -> Outcome {
    header(workload, seed, measured, false);
    // The warm-up, then the repetitions: `(seed, measured time)` each.
    let mut plan = vec![(rep_seed(seed, REPS), warmup_of(measured))];
    plan.extend((0..REPS).map(|i| (rep_seed(seed, i), measured / REPS as u32)));
    let (mut lines, mut setups) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let setup_rss_mb;
    match threaded::spec(workload) {
        Some(spec) => {
            let reps: Vec<Rep> = plan
                .iter()
                .map(|&(s, len)| threaded::run_rep(&spec, s, Phases::of(&spec, len), false))
                .collect();
            setup_rss_mb = reps[0].setup_rss_mb;
            for r in &reps {
                setups.push(r.setup_s);
                attempted += r.tally.attempted;
                failed += r.tally.failed;
            }
            lines.extend(reps[1..].iter().map(rep_line_threaded));
            print_threaded_extras(&spec, &reps[1..]);
        }
        None => {
            let reps: Vec<BurstOut> = plan
                .iter()
                .map(|&(s, len)| burst::run(one_paxos, s, Until::Elapsed(len), false))
                .collect();
            setup_rss_mb = reps[0].setup_rss_mb;
            for b in &reps {
                setups.extend(&b.setups_s);
                attempted += b.attempted;
                failed += b.failed;
            }
            lines.extend(reps[1..].iter().map(rep_line_burst));
            let last = reps.last().expect("a warm-up and the repetitions");
            println!(
                "p50_us / p90_us here are the wall time of one {}-command burst, submit to last reply",
                burst::BURST
            );
            println!(
                "counts (exact for a seed and a round count): {:.4} msg/command, {:.3} commands/flush",
                last.msgs_per_commit(),
                last.mean_fill()
            );
        }
    }
    finish_end_to_end(&lines, &setups, setup_rss_mb, attempted, failed)
}

/// The workload-specific figures an end-to-end run prints for people
/// but does not report: they are emitted by one workload only, and the
/// run contract wants every reported metric from every workload. The
/// traced run reports them as `diag.*`.
fn print_threaded_extras(spec: &Spec, reps: &[Rep]) {
    if spec.mix.txn_pct > 0 {
        let txns: u64 = reps.iter().map(|r| r.tally.txns).sum();
        let aborts: u64 = reps.iter().map(|r| r.tally.txn_aborts).sum();
        println!(
            "txn_p50_us {:.3} ({txns} transactions, {aborts} aborted by lock conflicts)",
            across_reps(reps.iter().map(|r| us(&r.tally.txn, 0.5)))
        );
    }
    if spec.tcp {
        println!(
            "paced_p50_us {}  catchup_ms {:.3}  (open loop at {} op/s)",
            paced_p50_text(reps),
            across_reps(reps.iter().map(|r| r.catchup_ms.unwrap_or(0.0))),
            threaded::PACED_RATE
        );
    }
}

/// The generator self-check: a generator that ran later than 20 % of
/// the inter-arrival gap at its median was not an open loop, and its
/// latency is not reported.
fn paced_valid(r: &Rep) -> bool {
    let gap_ns = 1e9 * threaded::CLIENTS as f64 / threaded::PACED_RATE;
    r.tally.late.quantile(0.5) <= 0.2 * gap_ns
}

fn paced_p50(reps: &[Rep]) -> Option<f64> {
    reps.iter()
        .all(paced_valid)
        .then(|| across_reps(reps.iter().map(|r| us(&r.tally.paced, 0.5))))
}

fn paced_p50_text(reps: &[Rep]) -> String {
    match paced_p50(reps) {
        Some(v) => format!("{v:.3}"),
        None => format!(
            "invalid (generator late p50 {:.1} us)",
            median_of(reps.iter().map(|r| us(&r.tally.late, 0.5)))
        ),
    }
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Median self time of the spans called `name`.
fn self_ns(selfs: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    selfs.get(name).map_or(0.0, |v| median_u64(&mut v.clone()))
}

/// Per request, the time spent inside engine spans on all replicas.
fn commit_path_ns(tr: &Tracer) -> f64 {
    let mut per_req: BTreeMap<u32, u64> = BTreeMap::new();
    for s in tr.spans.iter().filter(|s| s.name.starts_with("engine.")) {
        *per_req.entry(s.req).or_default() += s.end_ns - s.start_ns;
    }
    let mut v: Vec<u64> = per_req.into_values().collect();
    median_u64(&mut v)
}

/// One budget line: `(layer, median self time in ns, calls on the chain)`.
type BudgetRow = (&'static str, f64, f64);

/// The budget: Σ(layer self time × calls on the request → reply chain)
/// against the measured closed-loop p50.
fn budget(
    title: &str,
    rows: &[BudgetRow],
    within: &[BudgetRow],
    p50_us: f64,
    remainder: &str,
) -> f64 {
    println!("\nbudget — {title}: one request on its chain to the reply, against measured p50_us {p50_us:.3}");
    println!(
        "  {:<34} {:>10} {:>7} {:>10}",
        "layer (span)", "self ns", "calls", "ns/op"
    );
    let mut sum = 0.0;
    for (layer, ns, calls) in rows {
        println!("  {layer:<34} {ns:>10.0} {calls:>7.1} {:>10.0}", ns * calls);
        sum += ns * calls;
    }
    for (layer, ns, calls) in within {
        println!(
            "    of which {layer:<25} {ns:>10.0} {calls:>7.1} {:>10.0}",
            ns * calls
        );
    }
    let share = if p50_us > 0.0 {
        sum / (p50_us * 1e3)
    } else {
        0.0
    };
    println!(
        "  explained {sum:.0} ns = {:.1} % of p50; unexplained {:.0} ns: {remainder}",
        share * 100.0,
        (p50_us * 1e3 - sum).max(0.0)
    );
    share
}

pub fn run_traced(workload: &str, seed: u64, measured: Duration) -> Outcome {
    header(workload, seed, measured, true);
    let rerun = measured / 4;
    let mut v: layers::Values = BTreeMap::new();
    let mut out = Outcome::default();
    let mut roots: Vec<Vec<RootSpan>> = Vec::new();

    // (a) The workload once untraced and once with a root span around
    // every client call.
    let (tput_plain, tput_traced, p50_plain) = match threaded::spec(workload) {
        Some(spec) => {
            let phases = Phases::of(&spec, rerun);
            let plain = threaded::run_rep(&spec, rep_seed(seed, 0), phases, false);
            let mut traced = threaded::run_rep(&spec, rep_seed(seed, 0), phases, true);
            roots = std::mem::take(&mut traced.roots);
            out.attempted = plain.tally.attempted + traced.tally.attempted;
            out.failed = plain.tally.failed + traced.tally.failed;
            let c = traced.counters;
            v.insert("transport.reconnects".into(), c.reconnects as f64);
            v.insert("transport.conn_kills".into(), c.conn_kills as f64);
            v.insert(
                "batch.mean_fill".into(),
                c.batched_commands as f64 / c.batch_flushes.max(1) as f64,
            );
            v.insert("batch.depth".into(), c.batch_depth as f64);
            v.insert(
                "rsm.applied_log_len_max".into(),
                c.applied_log_len_max as f64,
            );
            v.insert(
                "cluster.msgs_per_commit".into(),
                c.sent as f64 / c.committed.max(1) as f64,
            );
            v.insert("cluster.paced_cpu_cores".into(), traced.paced_cpu_cores);
            v.insert("cluster.fault_p99_us".into(), us(&traced.tally.fault, 0.99));
            v.insert(
                "cluster.snapshots_installed".into(),
                c.snapshots_installed as f64,
            );
            v.insert("cluster.truncations".into(), c.truncations as f64);
            v.insert("cluster.shutdown_ms".into(), traced.shutdown_ms);
            v.insert("gen.late_p99_us".into(), us(&traced.tally.late, 0.99));
            v.insert("diag.paced_p99_us".into(), us(&traced.tally.paced, 0.99));
            v.insert(
                "diag.paced_miss_share".into(),
                traced.tally.paced_missed as f64 / traced.tally.paced_sent.max(1) as f64,
            );
            let one = std::slice::from_ref(&traced);
            if spec.tcp {
                println!("paced_p50_us {}", paced_p50_text(one));
            }
            v.insert("diag.paced_p50_us".into(), paced_p50(one).unwrap_or(0.0));
            v.insert("diag.txn_p50_us".into(), us(&traced.tally.txn, 0.5));
            v.insert("diag.p99_us".into(), us(&plain.tally.single, 0.99));
            v.insert("diag.catchup_ms".into(), traced.catchup_ms.unwrap_or(0.0));
            (
                plain.tally.closed_ok as f64 / plain.closed_wall_s,
                traced.tally.closed_ok as f64 / traced.closed_wall_s,
                us(&plain.tally.single, 0.5),
            )
        }
        None => {
            let plain = burst::run(one_paxos, rep_seed(seed, 0), Until::Elapsed(rerun), false);
            let mut traced = burst::run(one_paxos, rep_seed(seed, 0), Until::Elapsed(rerun), true);
            roots.push(std::mem::take(&mut traced.roots));
            out.attempted = plain.attempted + traced.attempted;
            out.failed = plain.failed + traced.failed;
            v.insert("batch.mean_fill".into(), traced.mean_fill());
            v.insert(
                "batch.deadline_flush_share".into(),
                traced.deadline_flushes as f64 / traced.flushes.max(1) as f64,
            );
            v.insert("batch.depth".into(), burst::BATCH as f64);
            v.insert(
                "rsm.applied_log_len_max".into(),
                traced.applied_log_len_max as f64,
            );
            v.insert("engine.msgs_per_commit".into(), traced.msgs_per_commit());
            v.insert("diag.p99_us".into(), us(&plain.round_ns, 0.99));
            (
                plain.commands as f64 / plain.wall_s,
                traced.commands as f64 / traced.wall_s,
                0.0,
            )
        }
    };
    v.insert(
        "trace.overhead_share".into(),
        1.0 - tput_traced / tput_plain.max(1e-9),
    );
    v.insert("diag.peak_rss_mb".into(), procstat::rss_mb().1);
    v.insert(
        "diag.failed_share".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    // (b) The inline pipelines, a child span per layer call.
    let started = Instant::now();
    let n_mem = (measured.as_millis() as u64 * 2).clamp(2_000, 40_000);
    let n_tcp = n_mem / 8;
    let (mut tr_mem, mut tr_tcp) = (Tracer::default(), Tracer::default());
    let mem: PipelineOut = pipeline::run(seed, n_mem, &mut Link::spsc(), &mut tr_mem);
    let mut tcp_link = Link::tcp().expect("loopback pair");
    let tcp: PipelineOut = pipeline::run(seed, n_tcp, &mut tcp_link, &mut tr_tcp);
    drop(tcp_link);
    out.attempted += mem.requests + tcp.requests;
    out.failed += mem.failed + tcp.failed;
    let (s_mem, s_tcp) = (tr_mem.self_times(), tr_tcp.self_times());
    let (m, t) = (|n| self_ns(&s_mem, n), |n| self_ns(&s_tcp, n));
    v.insert("engine.submit_ns".into(), m("engine.submit"));
    v.insert("engine.handle_msg_ns".into(), m("engine.handle_msg"));
    v.insert("engine.commit_path_ns".into(), commit_path_ns(&tr_mem));
    // The threaded workloads run unbatched 1Paxos groups like the
    // pipeline; engine_burst reported its own batched count above.
    v.entry("engine.msgs_per_commit".into())
        .or_insert(mem.msgs_per_commit);

    // The ladder: what is left of the run's time, at least a second.
    let ladder_budget = (measured / 2)
        .saturating_sub(started.elapsed())
        .max(Duration::from_secs(1));
    let (ladder, (sim_mem, sim_tcp)) = layers::run(seed, ladder_budget);
    v.extend(ladder);
    let ratio = |pred: f64, on: &str| {
        if workload == on && tput_plain > 0.0 {
            pred / tput_plain
        } else {
            0.0
        }
    };
    v.insert("sim.pred_ratio.mem_put".into(), ratio(sim_mem, "mem_put"));
    v.insert("sim.pred_ratio.tcp_mix".into(), ratio(sim_tcp, "tcp_mix"));

    // (c) The budget, for the two workloads whose request path the
    // pipelines reproduce.
    let handles = |c: &pipeline::Chain| (c.engine_calls.saturating_sub(1)) as f64;
    let (mem_hops, tcp_hops) = (mem.chain.hops as f64, tcp.chain.hops as f64);
    let explained = match workload {
        "mem_put" => budget(
            "mem_put over spsc queues",
            &[
                ("qc_channel::spsc send+recv (hop)", m("spsc.send_recv"), mem_hops),
                ("engine submit (incl. onepaxos)", m("engine.submit"), 1.0),
                ("engine handle (incl. rsm/kv)", m("engine.handle_msg"), handles(&mem.chain)),
            ],
            &[],
            p50_plain,
            "thread wake-ups and yields (5 threads on 2 cores), queue polling, the client loop",
        ),
        "tcp_mix" => budget(
            "tcp_mix over loopback sockets",
            &[
                ("transport tcp send+flush (hop)", t("transport.tcp_send_flush"), tcp_hops),
                ("transport tcp recv (hop)", t("transport.tcp_recv"), tcp_hops),
                ("engine submit (incl. onepaxos)", t("engine.submit"), 1.0),
                ("engine handle (incl. rsm/kv)", t("engine.handle_msg"), handles(&tcp.chain)),
            ],
            &[
                (
                    "wire encode + chunk push_frame",
                    t("wire.encode+chunk.push_frame"),
                    tcp_hops,
                ),
                (
                    "chunk next_frame",
                    t("chunk.next_frame"),
                    tcp_hops,
                ),
                (
                    "wire decode",
                    t("wire.decode"),
                    tcp_hops,
                ),
            ],
            p50_plain,
            "blocked-reader wake-ups, scheduler hand-offs between 5 threads on 2 cores, the client loop",
        ),
        _ => 0.0,
    };
    v.insert("budget.explained_share".into(), explained);

    match trace::write_file(workload, &roots, &[("mem", &tr_mem), ("tcp", &tr_tcp)]) {
        Ok(path) => println!("\nspans written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write the span file: {e}");
            out.failed += 1;
        }
    }

    println!(
        "\nper-layer metrics (0 where this workload does not exercise the layer; see README.md)"
    );
    for (name, unit, _) in spec::per_layer() {
        let value = v.get(&name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>16.4} {unit}");
        out.metrics.push((name, value, unit));
    }
    out
}

// ---------------------------------------------------------------------
// --agree and --smoke: whole sets, one child process per workload
// ---------------------------------------------------------------------

/// Pulls `"name": {"value": <number>` out of a result line this program
/// printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Runs one workload in a child process of this same executable and
/// returns its result line, or `None` if it failed.
fn run_child(workload: &str, seed: u64, seconds: u64) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .expect("start child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !last.contains("\"correct\": true") {
        eprintln!(
            "{workload}: run failed\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    Some(last)
}

/// Share by which `second` is worse than `first`.
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The acceptance check: two full sets back to back; every workload ×
/// end-to-end metric of the second set must be within its bound of the
/// first.
pub fn agree(seed: u64, seconds: u64) -> ExitCode {
    println!("# --agree: two sets of the same code, seed {seed}, {seconds} s per run");
    let mut sets: Vec<Vec<Option<String>>> = Vec::new();
    for set in 0..2 {
        let mut lines = Vec::new();
        for (w, _) in spec::WORKLOADS {
            println!("set {set}: {w} …");
            lines.push(run_child(w, seed, seconds));
        }
        sets.push(lines);
    }
    println!(
        "\n{:<13} {:<15} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "worse by", "bound"
    );
    let mut ok = true;
    for (i, (w, _)) in spec::WORKLOADS.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][i], &sets[1][i]) else {
            println!("{w:<13} a run failed");
            ok = false;
            continue;
        };
        for (name, _, better, bound) in END_TO_END {
            let (Some(x), Some(y)) = (metric_in(a, name), metric_in(b, name)) else {
                println!("{w:<13} {name:<15} missing");
                ok = false;
                continue;
            };
            let worse = worse_by(*better, x, y);
            let verdict = if worse > *bound { "  EXCEEDS" } else { "" };
            ok &= worse <= *bound;
            println!(
                "{w:<13} {name:<15} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%{verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        println!("\nagree: every workload × metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("\nagree: FAILED");
        ExitCode::FAILURE
    }
}

/// A quick pass over all four workloads (2 s each, no bounds): does the
/// benchmark still build, run and check its replies?
pub fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for (w, _) in spec::WORKLOADS {
        match run_child(w, seed, 2) {
            Some(line) => println!("{w}: {line}"),
            None => ok = false,
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_extractor() {
        let o = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.8127, "s"),
                ("p50_us".into(), 9.25, "us"),
            ],
        };
        let line = o.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "p50_us"), Some(9.25));
        assert_eq!(metric_in(&line, "p99_us"), None);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
