//! The runtime integration suite again — but over loopback TCP sockets.
//!
//! Same engines, same `ClusterBuilder`, same `ClientHandle` API; only
//! `.spawn()` became `.spawn_tcp()`, so every protocol message, client
//! request and reply now crosses a real socket as a length-prefixed
//! `onepaxos::wire` frame. Sharded puts, cross-shard `txn_put`, relaxed
//! reads, batching and concurrent clients must all behave exactly as
//! they do over shared memory — that equivalence is what proves the
//! `Transport` abstraction (and the codec under it) honest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use consensus_inside::onepaxos::multipaxos::{self, MultiPaxosNode};
use consensus_inside::onepaxos::onepaxos::{OnePaxosNode, Timing};
use consensus_inside::onepaxos::twopc::TwoPcNode;
use consensus_inside::onepaxos::{BatchConfig, ClusterConfig, EngineConfig, NodeId, Op};
use consensus_inside::onepaxos_runtime::ClusterBuilder;

fn cfg(m: &[NodeId], me: NodeId) -> ClusterConfig {
    ClusterConfig::new(m.to_vec(), me)
}

/// Relaxed timeouts: CI machines oversubscribe cores heavily, and TCP
/// adds syscall latency on top.
fn one_timing() -> Timing {
    Timing {
        tick: 2_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    }
}

fn mp_timing() -> multipaxos::Timing {
    multipaxos::Timing {
        tick: 2_000_000,
        suspect_after: 800_000_000,
    }
}

#[test]
fn onepaxos_kv_over_tcp() {
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(1, 11).expect("commit"), None);
    assert_eq!(c.put(1, 12).expect("commit"), Some(11));
    assert_eq!(c.get(1).expect("commit"), Some(12));
    assert_eq!(c.get(99).expect("commit"), None);
    assert_eq!(c.submit(Op::Noop).expect("commit"), None);
    cluster.shutdown();
}

#[test]
fn multipaxos_kv_over_tcp() {
    let t = mp_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        MultiPaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(5, 50).expect("commit"), None);
    assert_eq!(c.get(5).expect("commit"), Some(50));
    cluster.shutdown();
}

#[test]
fn twopc_kv_over_tcp() {
    let (cluster, mut clients) =
        ClusterBuilder::new(3, |m: &[NodeId], me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .spawn_tcp()
            .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(3, 33).expect("commit"), None);
    assert_eq!(c.get(3).expect("commit"), Some(33));
    cluster.shutdown();
}

#[test]
fn concurrent_clients_make_consistent_progress_over_tcp() {
    let t = one_timing();
    let (cluster, clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(3)
    .spawn_tcp()
    .expect("tcp setup");
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(w, mut c)| {
            std::thread::spawn(move || {
                c.set_timeout(Duration::from_secs(2));
                for i in 0..30u64 {
                    c.put(w as u64 * 100 + i, i).expect("commit");
                }
                // Own writes are visible through ordered reads.
                assert_eq!(c.get(w as u64 * 100).expect("commit"), Some(0));
                c
            })
        })
        .collect();
    let _clients: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    // All commands decided on every replica. The ordered read above
    // synchronised the clients with the commit path only: the backup
    // learns off it and may be a turn or two behind, so give it a
    // bounded moment to catch up before judging.
    let read_committed = || -> Vec<u64> {
        cluster
            .metrics()
            .iter()
            .map(|m| m.committed.load(Ordering::Relaxed))
            .collect()
    };
    let patience = std::time::Instant::now() + Duration::from_secs(2);
    let mut committed = read_committed();
    while committed.iter().any(|&c| c < 90) && std::time::Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
        committed = read_committed();
    }
    // On failure, say where each replica stands: applied, waiting above
    // a gap, caught up by snapshot, and how its loop spent its turns.
    let gauges: Vec<String> = cluster
        .metrics()
        .iter()
        .map(|m| {
            let read = |g: &AtomicU64| g.load(Ordering::Relaxed);
            format!(
                "applied {} gap_backlog {} snapshots_installed {} loop_turns {} idle_waits {}",
                read(&m.applied),
                read(&m.gap_backlog),
                read(&m.snapshots_installed),
                read(&m.loop_turns),
                read(&m.idle_waits),
            )
        })
        .collect();
    assert!(
        committed.iter().all(|&c| c >= 90),
        "every replica must commit all 90+ commands: {committed:?}; {gauges:?}"
    );
    cluster.shutdown();
}

#[test]
fn sharded_cluster_partitions_keys_over_tcp() {
    // Sharding over sockets: all shard-group topics multiplex one
    // connection per replica pair, tagged inside each frame, and the
    // key→group routing is byte-for-byte the shared-memory one.
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .shards(2)
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    let mut seen = std::collections::BTreeSet::new();
    for key in 0..12u64 {
        seen.insert(c.shard_of(key));
        assert_eq!(c.put(key, key * 7).expect("commit"), None, "key {key}");
    }
    assert_eq!(seen.len(), 2, "12 keys must touch both groups");
    for key in 0..12u64 {
        assert_eq!(c.get(key).expect("commit"), Some(key * 7), "key {key}");
    }
    cluster.shutdown();
}

#[test]
fn batched_sharded_cluster_over_tcp_via_engine_config() {
    // The unified EngineConfig drives the TCP deployment too; batch
    // accumulators and the frame codec compose.
    let t = one_timing();
    let (cluster, clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(3)
    .config(
        EngineConfig::new()
            .shards(2)
            .batching(BatchConfig::new(4, 200_000)),
    )
    .spawn_tcp()
    .expect("tcp setup");
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(w, mut c)| {
            std::thread::spawn(move || {
                c.set_timeout(Duration::from_secs(2));
                for i in 0..20u64 {
                    c.put(w as u64 * 100 + i, i).expect("commit");
                }
                assert_eq!(c.get(w as u64 * 100 + 19).expect("commit"), Some(19));
                c
            })
        })
        .collect();
    let _clients: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    cluster.shutdown();
}

#[test]
fn lone_put_rides_the_batch_deadline_flush_over_tcp() {
    // A batch of 16 that only ever gets one command is flushed by its
    // 20 µs deadline timer. Idle replicas sit blocked in the kernel on
    // their sockets, so the leader, woken by the request, must cap its
    // next wait at that deadline — a wait that ignored it would leave
    // the command in the accumulator until something else woke the
    // replica, or for good.
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .batching(BatchConfig::new(16, 20_000))
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    c.put(0, 0).expect("commit"); // election and first dial-up, untimed
    let mut took: Vec<Duration> = (1..=9u64)
        .map(|i| {
            // Long enough for every replica to run out of spin budget
            // and block.
            std::thread::sleep(Duration::from_millis(5));
            let start = std::time::Instant::now();
            c.put(i, i).expect("commit");
            start.elapsed()
        })
        .collect();
    took.sort();
    eprintln!("lone batched puts over tcp: {took:?}");
    // Generous: an oversubscribed CI core, not the 20 µs, sets the scale.
    assert!(
        took[took.len() / 2] < Duration::from_millis(50),
        "lone puts waited far past the 20 µs batch deadline: {took:?}"
    );
    cluster.shutdown();
}

#[test]
fn txn_put_commits_atomically_across_shard_groups_over_tcp() {
    use consensus_inside::onepaxos::{ShardRouter, TxnOutcome};
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .shards(4)
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    // Two keys owned by different shard groups: a real cross-group 2PC,
    // every phase decision now a framed Op::Txn* on the wire.
    let router = ShardRouter::new(4);
    let k0 = 0u64;
    let k1 = (1u64..)
        .find(|&k| router.route_key(k) != router.route_key(k0))
        .unwrap();
    assert_ne!(c.shard_of(k0), c.shard_of(k1));
    assert_eq!(
        c.txn_put(&[(k0, 10), (k1, 20)]).expect("commit"),
        TxnOutcome::Committed
    );
    assert_eq!(c.get(k0).expect("read"), Some(10));
    assert_eq!(c.get(k1).expect("read"), Some(20));
    // Second transaction from the same handle: fresh TxnId over the wire.
    assert_eq!(
        c.txn_put(&[(k0, 30), (k1, 40)]).expect("commit"),
        TxnOutcome::Committed
    );
    assert_eq!(c.get(k0).expect("read"), Some(30));
    assert_eq!(c.get(k1).expect("read"), Some(40));
    // Single-shard write set short-circuits to one MultiPut agreement.
    let twin = (1u64..)
        .find(|&k| k != k0 && router.route_key(k) == router.route_key(k0))
        .unwrap();
    assert_eq!(
        c.txn_put(&[(k0, 11), (twin, 12)]).expect("commit"),
        TxnOutcome::Committed
    );
    assert_eq!(c.get(k0).expect("read"), Some(11));
    assert_eq!(c.get(twin).expect("read"), Some(12));
    // Plain traffic keeps working on the same handle afterwards.
    assert_eq!(c.put(k1, 21).expect("commit"), Some(40));
    cluster.shutdown();
}

#[test]
fn relaxed_reads_bypass_consensus_over_tcp() {
    let (cluster, mut clients) =
        ClusterBuilder::new(3, |m: &[NodeId], me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .shards(2)
            .spawn_tcp()
            .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    use consensus_inside::onepaxos::TxnOutcome;
    let router = consensus_inside::onepaxos::ShardRouter::new(2);
    let k0 = 0u64;
    let k1 = (1u64..)
        .find(|&k| router.route_key(k) != router.route_key(k0))
        .unwrap();
    assert_eq!(
        c.txn_put(&[(k0, 1), (k1, 2)]).expect("commit"),
        TxnOutcome::Committed
    );
    // Every replica answers from the local copy of the key's own group
    // (racing the outcome application only makes it wait, never lie).
    for n in 0..3u16 {
        assert_eq!(c.get_relaxed(NodeId(n), k0).expect("read"), Some(1));
        assert_eq!(c.get_relaxed(NodeId(n), k1).expect("read"), Some(2));
        assert_eq!(c.get_relaxed(NodeId(n), 9_999).expect("read"), None);
    }
    cluster.shutdown();
}

#[test]
fn relaxed_reads_degrade_to_ordered_for_paxos_over_tcp() {
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(3, 33).expect("commit"), None);
    for n in 0..3u16 {
        assert_eq!(c.get_relaxed(NodeId(n), 3).expect("read"), Some(33));
    }
    cluster.shutdown();
}

#[test]
fn onepaxos_survives_stopped_backup_over_tcp() {
    // A dead socket peer must degrade exactly like a dead queue peer:
    // the transport drops the connection, the protocols keep going.
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn_tcp()
    .expect("tcp setup");
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    c.put(1, 1).expect("commit before fault");
    // n2 is a backup (leader n0, active acceptor n1).
    c.stop_replica(NodeId(2));
    std::thread::sleep(Duration::from_millis(50));
    for i in 2..8u64 {
        c.put(i, i).expect("commit with stopped backup");
    }
    assert_eq!(c.get(5).expect("read"), Some(5));
    cluster.shutdown();
}
