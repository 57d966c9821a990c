//! The seeded [`FaultTransport`] contract: a fault scenario is a
//! reproducible seed, and every injected fault stays inside the
//! [`Transport`] delivery contract.
//!
//! Determinism is asserted the strong way — the full delivery *trace*
//! (which messages arrived, in which order) plus the injection counters
//! must be identical across repeated runs of the same seed — and FIFO
//! preservation is asserted under heavy delay injection: delivered
//! payloads form a strictly increasing subsequence of the send
//! sequence, never a reordering.

use std::time::{Duration, Instant};

use onepaxos::{NodeId, Op};
use onepaxos_runtime::{
    FaultPlan, FaultStats, FaultTransport, MemTransport, Partition, TcpTransport, Transport, Wire,
};

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn msg(req_id: u64) -> Wire<u64> {
    Wire::Request {
        client: A,
        req_id,
        op: Op::Put {
            key: req_id,
            value: req_id,
        },
    }
}

/// Sends `n` tagged messages through a faulted A-side over shared
/// memory, drains until quiescent, and returns (delivery trace, fault
/// stats). Single-threaded, so the only nondeterminism on offer is the
/// fault dice — which is the thing under test.
fn run_trace(seed: u64, n: u64) -> (Vec<u64>, FaultStats) {
    // One topic: the fault dice are under test, not topic routing.
    let (a, mut b) = MemTransport::<u64>::pair(A, B, 1);
    let plan = FaultPlan::seeded(seed)
        .drops(150)
        .delays(300, Duration::from_millis(2));
    let mut a = FaultTransport::new(a, plan);
    let mut trace = Vec::new();
    for i in 0..n {
        a.send(B, 0, msg(i));
        a.flush();
        while let Some((_, Wire::Request { req_id, .. })) = b.recv() {
            trace.push(req_id);
        }
    }
    // Drain the held-back tail: flush() returns true while delayed
    // messages await release.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let busy = a.flush();
        while let Some((_, Wire::Request { req_id, .. })) = b.recv() {
            trace.push(req_id);
        }
        if !busy {
            break;
        }
        assert!(Instant::now() < deadline, "held queue never drained");
        std::thread::sleep(Duration::from_micros(100));
    }
    (trace, a.fault_stats())
}

/// Acceptance: the seeded twin produces identical results across three
/// runs of the same seed — same messages dropped, same messages
/// delivered, same order — while a different seed perturbs the trace.
#[test]
fn same_seed_same_trace_three_runs() {
    let (t1, s1) = run_trace(0xDEAD_BEEF, 400);
    let (t2, s2) = run_trace(0xDEAD_BEEF, 400);
    let (t3, s3) = run_trace(0xDEAD_BEEF, 400);
    assert_eq!(t1, t2, "run 2 diverged from run 1");
    assert_eq!(t1, t3, "run 3 diverged from run 1");
    assert_eq!(s1, s2);
    assert_eq!(s1, s3);
    assert!(s1.dropped > 0, "drop dice never fired: {s1:?}");
    assert!(s1.delayed > 0, "delay dice never fired: {s1:?}");
    assert_eq!(
        t1.len() as u64 + s1.dropped,
        400,
        "every message accounted for"
    );

    let (t4, _) = run_trace(0xFEED_F00D, 400);
    assert_ne!(t1, t4, "different seeds produced the same trace");
}

/// Injected delays must preserve per-peer FIFO order: a delayed message
/// blocks everything queued after it rather than being overtaken, so
/// the delivered req_ids are strictly increasing.
#[test]
fn delays_preserve_fifo_order() {
    let (trace, stats) = run_trace(7, 600);
    assert!(stats.delayed > 0, "no delays injected: {stats:?}");
    for w in trace.windows(2) {
        assert!(
            w[0] < w[1],
            "reordering observed: {} delivered before {}",
            w[1],
            w[0]
        );
    }
}

/// A timed partition window silently cuts traffic to the peer for its
/// duration, then heals on its own: sends during the window are counted
/// as partitioned, sends after it get through.
#[test]
fn partition_window_cuts_then_heals() {
    let (a, mut b) = MemTransport::<u64>::pair(A, B, 1);
    let window = Duration::from_millis(150);
    let mut a = FaultTransport::new(
        a,
        FaultPlan::seeded(11).partition(Partition {
            start: Duration::ZERO,
            duration: window,
            peer: Some(B),
        }),
    );

    // Inside the window: nothing crosses.
    a.send(B, 0, msg(1));
    a.flush();
    assert!(b.recv().is_none(), "message crossed an open partition");
    assert_eq!(a.fault_stats().partitioned, 1);

    // After the window: traffic resumes untouched.
    std::thread::sleep(window + Duration::from_millis(20));
    a.send(B, 0, msg(2));
    a.flush();
    match b.recv() {
        Some((_, Wire::Request { req_id, .. })) => assert_eq!(req_id, 2),
        other => panic!("partition never healed: {other:?}"),
    }
}

/// Scheduled connection kills fire into the inner transport's real
/// socket teardown — and the reconnect lifecycle repairs each one, so
/// traffic keeps flowing through the whole schedule.
#[test]
fn scheduled_conn_kills_exercise_reconnect() {
    let (dialer, mut acceptor) = TcpTransport::<u64>::pair(A, B).expect("loopback pair");
    let plan = FaultPlan::seeded(3)
        .kill_at(Duration::from_millis(30), B)
        .kill_at(Duration::from_millis(90), B);
    let mut dialer = FaultTransport::new(dialer, plan);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut delivered = 0u64;
    let mut next = 0u64;
    // Exit only once both kills fired AND a healthy batch made it
    // through afterwards — proof the second teardown also healed.
    let mut at_second_kill: Option<u64> = None;
    loop {
        dialer.send(B, 0, msg(next));
        next += 1;
        dialer.flush();
        acceptor.pump();
        while let Some((_, Wire::Request { .. })) = acceptor.recv() {
            delivered += 1;
        }
        if dialer.fault_stats().kills >= 2 && at_second_kill.is_none() {
            at_second_kill = Some(delivered);
        }
        if at_second_kill.is_some_and(|base| delivered >= base + 50) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled: delivered {delivered}, kills {:?}",
            dialer.fault_stats()
        );
        std::thread::sleep(Duration::from_micros(200));
    }

    assert_eq!(dialer.fault_stats().kills, 2, "kill schedule misfired");
    let inner = dialer.inner().stats();
    assert!(
        inner.conn_kills >= 2,
        "kills never hit the socket: {inner:?}"
    );
    assert!(inner.reconnects >= 2, "links never healed: {inner:?}");
    assert_eq!(dialer.inner().conn_count(), 1, "no live link at the end");
}
