//! The benchmark's fixed tables: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these (`--manifest`), and a test
//! keeps the two identical.

/// Measured seconds per run. The driver makes 4 + 22 × 4 runs inside
/// 3420 s including two builds, so a run — warm-up, set-ups and
/// tear-downs included — has ~35 s.
pub const RUN_SECONDS: u64 = 24;

/// Repetitions per run, each on a fresh cluster for an equal share of
/// the measured time. Twelve, because a cluster settles into a
/// scheduling regime that lasts as long as it lives (tcp_mix p50
/// differs by 12 % between clusters, however long each runs): more
/// clusters steady a run's figure, longer ones do not.
pub const REPS: usize = 12;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "mem_put",
        "in-machine deployment over SPSC queues, 2 closed-loop clients, 100% put: spsc, engine, onepaxos, rsm/kv and the replica loop work; codec, sockets, batching and txn idle",
    ),
    (
        "tcp_mix",
        "same path with every message a wire frame over loopback TCP, 70/30 put/get on 2 shards, then a paced open loop and a backup restart under load: codec, chunk, syscalls, reconnect, snapshot catch-up",
    ),
    (
        "mem_txn",
        "4 shards, adaptive batching, 50% two-shard txn_put with a shared hot set beside plain puts: txn coordinator, kv lock queues, shard routing and the batch controller at light depth",
    ),
    (
        "engine_burst",
        "one thread, no IO, virtual time: 64-command bursts through TestNet with 4 shards and batches of 16, the zero-IO cost of engine, batch accumulator, shard, onepaxos and rsm at real batch depth",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: `bound` is the share of the parent's
/// median by which the metric may get worse.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("throughput_ops", "op/s", Higher, 0.20),
    ("p50_us", "us", Lower, 0.25),
    ("p90_us", "us", Lower, 0.25),
    ("setup_rss_mb", "MB", Lower, 0.10),
    ("cpu_us_per_op", "us", Lower, 0.20),
];

pub const WIRE_KINDS: [&str; 5] = [
    "request_put",
    "accept_put",
    "accept_batch16",
    "reply",
    "txn_prepare",
];

pub const BURST_PROTOCOLS: [&str; 5] = ["1paxos", "multipaxos", "basic_paxos", "mencius", "twopc"];

/// `(name, unit, better)` of every per-layer metric, in ladder order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut v: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |n: &str, u: &'static str, b: Better| v.push((n.to_string(), u, b));
    add("spsc.send_recv_ns", "ns", Lower);
    add("spsc.rtt_ns", "ns", Lower);
    add("spsc.full_share", "ratio", Lower);
    for prefix in ["wire.encode_ns", "wire.decode_ns"] {
        for k in WIRE_KINDS {
            add(&format!("{prefix}.{k}"), "ns", Lower);
        }
    }
    for k in WIRE_KINDS {
        add(&format!("wire.bytes.{k}"), "bytes", Lower);
    }
    add("chunk.push_frame_ns", "ns", Lower);
    add("chunk.next_frame_ns", "ns", Lower);
    add("transport.mem_rtt_ns", "ns", Lower);
    add("transport.tcp_rtt_ns", "ns", Lower);
    add("transport.tcp_send_flush_ns", "ns", Lower);
    add("transport.reconnects", "count", Lower);
    add("transport.conn_kills", "count", Lower);
    add("engine.submit_ns", "ns", Lower);
    add("engine.handle_msg_ns", "ns", Lower);
    add("engine.commit_path_ns", "ns", Lower);
    add("engine.msgs_per_commit", "count", Lower);
    for p in BURST_PROTOCOLS {
        add(&format!("engine.burst_ops.{p}"), "op/s", Higher);
    }
    add("batch.enqueue_ns", "ns", Lower);
    add("batch.flush16_ns", "ns", Lower);
    add("batch.mean_fill", "count", Higher);
    add("batch.deadline_flush_share", "ratio", Lower);
    add("batch.depth", "count", Higher);
    add("shard.route_ns", "ns", Lower);
    add("shard.submit_ns", "ns", Lower);
    add("rsm.on_decided_ns", "ns", Lower);
    add("rsm.on_decided_batch16_ns", "ns", Lower);
    add("kv.txn_prepare_ns", "ns", Lower);
    add("kv.txn_outcome_ns", "ns", Lower);
    add("rsm.snapshot_ns_10k", "ns", Lower);
    add("rsm.install_ns_10k", "ns", Lower);
    add("rsm.truncate_ns", "ns", Lower);
    add("rsm.applied_log_len_max", "count", Lower);
    add("txn.begin_ns", "ns", Lower);
    add("txn.on_reply_ns", "ns", Lower);
    add("txn.legs_per_txn", "count", Lower);
    add("txn.abort_share", "ratio", Lower);
    add("txn.lock_wait_share", "ratio", Lower);
    add("txn.busy_share", "ratio", Lower);
    add("cluster.msgs_per_commit", "count", Lower);
    add("cluster.paced_cpu_cores", "cores", Lower);
    add("cluster.fault_p99_us", "us", Lower);
    add("cluster.snapshots_installed", "count", Higher);
    add("cluster.truncations", "count", Higher);
    add("cluster.shutdown_ms", "ms", Lower);
    add("sim.wall_ms", "ms", Lower);
    add("sim.pred_ratio.mem_put", "ratio", Lower);
    add("sim.pred_ratio.tcp_mix", "ratio", Lower);
    add("gen.late_p99_us", "us", Lower);
    add("diag.paced_p99_us", "us", Lower);
    add("diag.paced_miss_share", "ratio", Lower);
    add("diag.paced_p50_us", "us", Lower);
    add("diag.txn_p50_us", "us", Lower);
    add("diag.catchup_ms", "ms", Lower);
    add("diag.p99_us", "us", Lower);
    add("diag.failed_share", "ratio", Lower);
    add("diag.peak_rss_mb", "MB", Lower);
    add("budget.explained_share", "ratio", Higher);
    add("trace.overhead_share", "ratio", Lower);
    v
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s += &format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n");
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            better.as_str()
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s += &format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better.as_str()
        );
    }
    s += "  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_on_disk_is_the_rendered_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_sizes_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(ok_name(n) && why.len() <= 200 && !why.contains('\n'), "{n}");
            assert!(seen.insert(n.to_string()), "{n} used twice");
        }
        for (n, u, _, bound) in END_TO_END {
            assert!(ok_name(n) && ok_unit(u) && *bound <= 0.25, "{n}");
            assert!(seen.insert(n.to_string()), "{n} used twice");
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (n, u, _) in &layers {
            assert!(ok_name(n) && ok_unit(u), "{n}");
            assert!(seen.insert(n.clone()), "{n} used twice");
        }
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
        assert!(manifest_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
