//! An idle wait must not burn its core — neither a client's
//! `recv_deadline`, nor a whole cluster of replicas with no load, nor a
//! replica holding a relaxed read parked in a lock window that never
//! closes (the read waits inside the engine; the replica loop has
//! nothing to poll for it).
//!
//! The original socket wait loop spun `flush()` + poll with no backoff,
//! pinning a CPU at 100% while waiting for traffic that wasn't coming;
//! its successor napped in escalating sleeps but still swept every
//! socket between naps, which kept an idle three-replica TCP cluster at
//! 81% of a core. The wait now spins only a bounded budget of yields
//! and then blocks in the kernel on the transport's descriptors
//! (`Transport::idle_wait`), so a replica or client parked on quiet
//! connections consumes a small fraction of the wall time it waits.
//!
//! The measurement sums `/proc/self/task/*/schedstat` (on-CPU
//! nanoseconds as scheduled, the first field; the file is per thread),
//! which charges exactly this process — kept in its own
//! integration-test binary, its cases serialised, so no sibling test's
//! threads pollute the reading.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use onepaxos::onepaxos::{OnePaxosNode, Timing};
use onepaxos::twopc::{self, TwoPcNode};
use onepaxos::{Action, ClusterConfig, Nanos, NodeId, Op, Outbox, Protocol, Timer};
use onepaxos_runtime::{ClusterBuilder, RetryPolicy, TcpTransport, Transport};

/// One measurement at a time: the reading covers every thread of the
/// process.
static MEASURING: Mutex<()> = Mutex::new(());

/// On-CPU nanoseconds all threads of this process have been scheduled
/// for, or `None` where `/proc` is unavailable (the tests then pass
/// vacuously rather than inventing numbers).
fn on_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(task.ok()?.path().join("schedstat")) else {
            continue;
        };
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

#[test]
fn idle_tcp_cluster_blocks_instead_of_sweeping() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Every timer that fires refills the replica's spin budget (64
    // yielding turns, a few µs each unoptimised), so what an idle
    // replica still burns is set by its timer rate, not by the wait. A
    // 5 ms tick beside the engines' 5 ms maintenance timer puts that
    // floor at 5 % of a core optimised and 11 % unoptimised; replicas
    // that sweep their sockets between naps instead of blocking measured
    // 41 % and 49 % with the same timers.
    let timing = Timing {
        tick: 5_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    };
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
    })
    .spawn_tcp()
    .expect("tcp setup");
    // Warm-up out of the measurement: election, first commit, then let
    // the replicas run out of spin budget.
    clients[0].set_timeout(Duration::from_secs(2));
    clients[0].put(1, 1).expect("commit");
    std::thread::sleep(Duration::from_millis(50));

    let Some(cpu_before) = on_cpu_ns() else {
        eprintln!("no /proc/self/task/*/schedstat on this platform; skipping");
        cluster.shutdown();
        return;
    };
    let idle_before: Vec<u64> = cluster
        .metrics()
        .iter()
        .map(|m| m.idle_waits.load(Ordering::Relaxed))
        .collect();
    let wall_start = Instant::now();
    std::thread::sleep(Duration::from_millis(400));
    let wall = wall_start.elapsed();
    let cpu = on_cpu_ns().expect("schedstat disappeared mid-test") - cpu_before;

    for (i, m) in cluster.metrics().iter().enumerate() {
        let idle = m.idle_waits.load(Ordering::Relaxed) - idle_before[i];
        eprintln!(
            "replica {i}: loop_turns {} received {} idle_waits +{idle}",
            m.loop_turns.load(Ordering::Relaxed),
            m.received.load(Ordering::Relaxed),
        );
        assert!(idle > 0, "replica {i} never left the run queue");
    }
    eprintln!(
        "idle cluster: {} us of CPU over {} ms of wall",
        cpu / 1_000,
        wall.as_millis()
    );
    // A quarter of a core: twice the blocked floor, half the sweeping one.
    let budget = wall.as_nanos() as u64 / 4;
    assert!(
        cpu < budget,
        "idle TCP cluster burned {} ms of CPU over {} ms of wall \
         (replicas not blocking in idle_wait?)",
        cpu / 1_000_000,
        wall.as_millis()
    );
    cluster.shutdown();
}

/// 2PC with a 5 ms tick in place of its 100 µs one. As in the 1Paxos
/// case above, what an idle replica burns is set by its timer rate, and
/// at 100 µs every turn is a timer turn; 2PC's tick only restarts work
/// after an aborted round, which this test never has.
struct SlowTick(TwoPcNode);

impl SlowTick {
    /// Runs one handler of the wrapped node, stretching the tick it arms.
    fn stretched(out: &mut Outbox<twopc::Msg>, handler: impl FnOnce(&mut Outbox<twopc::Msg>)) {
        let mut inner = Outbox::new();
        handler(&mut inner);
        for action in inner {
            out.push(match action {
                Action::SetTimer {
                    timer: Timer::Tick, ..
                } => Action::SetTimer {
                    timer: Timer::Tick,
                    after: 5_000_000,
                },
                other => other,
            });
        }
    }
}

impl Protocol for SlowTick {
    type Msg = twopc::Msg;

    fn node_id(&self) -> NodeId {
        self.0.node_id()
    }

    fn on_start(&mut self, now: Nanos, out: &mut Outbox<twopc::Msg>) {
        Self::stretched(out, |o| self.0.on_start(now, o));
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: twopc::Msg,
        now: Nanos,
        out: &mut Outbox<twopc::Msg>,
    ) {
        self.0.on_message(from, msg, now, out);
    }

    fn on_timer(&mut self, timer: Timer, now: Nanos, out: &mut Outbox<twopc::Msg>) {
        Self::stretched(out, |o| self.0.on_timer(timer, now, o));
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        out: &mut Outbox<twopc::Msg>,
    ) {
        self.0.on_client_request(client, req_id, op, now, out);
    }

    fn is_leader(&self) -> bool {
        self.0.is_leader()
    }

    fn leader_hint(&self) -> Option<NodeId> {
        self.0.leader_hint()
    }

    fn supports_local_reads(&self) -> bool {
        self.0.supports_local_reads()
    }

    fn can_read_locally(&self, key: u64) -> bool {
        self.0.can_read_locally(key)
    }
}

#[test]
fn a_parked_relaxed_read_does_not_keep_its_replica_spinning() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, mut clients) = ClusterBuilder::new(3, |m: &[NodeId], me| {
        SlowTick(TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)))
    })
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    c.put(1, 1).expect("commit");
    c.stop_replica(NodeId(2));
    let stop_deadline = Instant::now() + Duration::from_secs(5);
    while !cluster.replica_finished(2) && Instant::now() < stop_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cluster.replica_finished(2), "replica 2 never stopped");
    // 2PC has no round timeout: with replica 2 gone this put's round
    // never completes, so coordinator 0's lock window stays open.
    c.set_retry_policy(RetryPolicy::fixed(Duration::from_millis(50), 1));
    assert!(c.put(1, 2).is_err(), "committed without replica 2");

    let Some(cpu_before) = on_cpu_ns() else {
        eprintln!("no /proc/self/task/*/schedstat on this platform; skipping");
        cluster.shutdown();
        return;
    };
    let idle_before = cluster.metrics()[0].idle_waits.load(Ordering::Relaxed);
    // The read parks at replica 0 for good; the client gives up.
    c.set_retry_policy(RetryPolicy::fixed(Duration::from_millis(400), 1));
    let wall_start = Instant::now();
    let read = c.get_relaxed(NodeId(0), 1);
    let wall = wall_start.elapsed();
    let cpu = on_cpu_ns().expect("schedstat disappeared mid-test") - cpu_before;
    let idle = cluster.metrics()[0].idle_waits.load(Ordering::Relaxed) - idle_before;

    assert!(
        read.is_err(),
        "answered inside an open lock window: {read:?}"
    );
    eprintln!(
        "parked read: {} us of CPU over {} ms of wall, replica 0 idle_waits +{idle}",
        cpu / 1_000,
        wall.as_millis()
    );
    assert!(idle > 0, "replica 0 never left the run queue");
    let budget = wall.as_nanos() as u64 / 4;
    assert!(
        cpu < budget,
        "a parked read burned {} ms of CPU over {} ms of wall (replica spinning on it?)",
        cpu / 1_000_000,
        wall.as_millis()
    );
    cluster.shutdown();
}

#[test]
fn idle_recv_deadline_sleeps_instead_of_spinning() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (mut a, _b) = TcpTransport::<u64>::pair(NodeId(0), NodeId(1)).expect("loopback pair");

    // Warm-up out of the measurement: thread start, page faults, the
    // socket setup above.
    let _ = a.recv_deadline(Instant::now() + Duration::from_millis(20));

    let Some(cpu_before) = on_cpu_ns() else {
        eprintln!("no /proc/self/task/*/schedstat on this platform; skipping");
        return;
    };
    let wall_start = Instant::now();
    let got = a.recv_deadline(wall_start + Duration::from_millis(400));
    let wall = wall_start.elapsed();
    let cpu = on_cpu_ns().expect("schedstat disappeared mid-test") - cpu_before;

    assert!(got.is_none(), "nothing was sent, yet something arrived");
    assert!(
        wall >= Duration::from_millis(380),
        "deadline returned early: {wall:?}"
    );
    // A spinning waiter sits at ~100% of wall. The backoff should land
    // far below half even on a noisy, oversubscribed CI core.
    let budget = wall.as_nanos() as u64 / 2;
    assert!(
        cpu < budget,
        "idle recv_deadline burned {} ms of CPU over {} ms of wall \
         (backoff missing?)",
        cpu / 1_000_000,
        wall.as_millis()
    );
}
