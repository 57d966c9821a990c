//! Cross-shard transaction sweep: committed-txn throughput vs cross-shard
//! fan-out (1, 2, 4 shard groups touched) against the plain batched-put
//! baseline, on the saturated sharded 48-core sim harness.
//!
//! The transaction layer (`onepaxos::txn`) runs classic 2PC across the
//! per-shard Paxos groups, every phase a command agreed by the
//! participant group's own log — with the fan-out hot path riding two
//! compounding optimizations: shard-id-ordered prepares with lock-wait
//! queues (conflicts park instead of aborting, and the client re-probes
//! a parked prepare at once), and presumed-durability early ack (the
//! commit is acked at unanimous yes votes and the outcome legs drain in
//! the background, overlapping the next transaction's prepares). Every
//! client is the `ClientSession` the threaded runtime runs.
//! A fan-out-F transaction still buys its atomicity with F prepare + F
//! outcome agreements, but the client-visible critical path is the
//! prepare phase only — while the fan-out-1 short-circuit
//! (`Op::MultiPut`, one agreement, no lock window) must ride the
//! ordinary batched-put path at ordinary cost. This experiment records
//! both facts plus the latency distribution (p50/p99/p999) in
//! `BENCH_txn.json` and gates on them (`bench-smoke` runs the `--smoke`
//! variant in CI): single-shard transactions within 10% of plain batched
//! puts, cross-shard fan-out-2 at half the plain-put rate or better, and
//! an abort rate below one per hundred committed transactions.
//!
//! Usage: `exp_txn [--smoke] [--out PATH]`

use consensus_bench::experiments::{exp_txn, Proto};
use consensus_bench::report::{render_json, BenchCli};
use consensus_bench::table::{ops, us, Table};
use onepaxos::BatchConfig;

/// Batching on every point (transactions must compose with the batch
/// accumulator, not replace it): the depth the batching sweep found best
/// at saturation.
const BATCH: (usize, u64) = (8, 20_000);

/// Shard groups in the deployment (the fan-out sweep's ceiling).
const SHARDS: u16 = 4;

fn main() {
    let cli = BenchCli::parse();
    let out_path = cli.out_path("BENCH_txn.json");

    // Smoke keeps CI fast: the two gated points on a shorter run. The
    // full sweep adds fan-out 4 (every transaction touches every group)
    // and more clients: 3×4 = 12 replica-shard processes + 24 clients =
    // 36 cores of the 48-core profile.
    let (fanouts, clients, duration): (&[u16], usize, u64) = if cli.smoke {
        (&[1, 2], 16, 120_000_000)
    } else {
        (&[1, 2, 4], 24, 300_000_000)
    };
    let proto = Proto::OnePaxos;

    println!(
        "Cross-shard txn sweep — {} replicas=3 shards={SHARDS} clients={clients} \
         duration={}ms batch={}cmds/{}µs{}\n",
        proto.name(),
        duration / 1_000_000,
        BATCH.0,
        BATCH.1 / 1_000,
        if cli.smoke { " (smoke)" } else { "" }
    );
    let points = exp_txn(
        proto,
        fanouts,
        SHARDS,
        clients,
        duration,
        BatchConfig::new(BATCH.0, BATCH.1),
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
    let json = render_json(
        "txn",
        proto.name(),
        &[
            ("profile", "\"opteron-48\"".into()),
            ("shards", SHARDS.to_string()),
            ("clients", clients.to_string()),
            ("duration_ns", duration.to_string()),
            ("batch_max_commands", BATCH.0.to_string()),
            ("batch_max_delay_ns", BATCH.1.to_string()),
        ],
        cli.smoke,
        &rows,
    );
    std::fs::write(out_path, &json).expect("write BENCH_txn.json");
    println!("\nwrote {out_path}");

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
    if f1.throughput < 0.9 * baseline.throughput {
        eprintln!("FAIL: single-shard txns must stay within 10% of plain batched puts");
        std::process::exit(1);
    }
    if f2.completed == 0 || f2.throughput <= 0.0 {
        eprintln!("FAIL: fan-out-2 transactions made no forward progress");
        std::process::exit(1);
    }
    if f2.throughput < 0.5 * baseline.throughput {
        eprintln!(
            "FAIL: fan-out-2 txns must reach half the plain batched-put rate \
             (got {:.2}x) — the fan-out cliff is back",
            f2.throughput / baseline.throughput
        );
        std::process::exit(1);
    }
    if f2.abort_rate > 0.01 {
        eprintln!(
            "FAIL: fan-out-2 abort rate {:.4} aborts/committed txn exceeds 0.01 — \
             the lock-wait queues or the client's re-probes regressed",
            f2.abort_rate
        );
        std::process::exit(1);
    }
}
