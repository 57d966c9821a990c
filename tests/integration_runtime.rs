//! Integration of the threaded runtime: real threads, real qc-channel
//! queues, every protocol, concurrent clients.

use std::time::Duration;

use consensus_inside::onepaxos::multipaxos::{self, MultiPaxosNode};
use consensus_inside::onepaxos::onepaxos::{OnePaxosNode, Timing};
use consensus_inside::onepaxos::twopc::TwoPcNode;
use consensus_inside::onepaxos::{AdaptiveBatch, BatchConfig, ClusterConfig, NodeId, Op};
use consensus_inside::onepaxos_runtime::ClusterBuilder;

fn cfg(m: &[NodeId], me: NodeId) -> ClusterConfig {
    ClusterConfig::new(m.to_vec(), me)
}

/// Relaxed timeouts: CI machines oversubscribe cores heavily.
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
fn onepaxos_kv_over_threads() {
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(1, 11).expect("commit"), None);
    assert_eq!(c.put(1, 12).expect("commit"), Some(11));
    assert_eq!(c.get(1).expect("commit"), Some(12));
    assert_eq!(c.get(99).expect("commit"), None);
    cluster.shutdown();
}

#[test]
fn multipaxos_kv_over_threads() {
    let t = mp_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        MultiPaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(5, 50).expect("commit"), None);
    assert_eq!(c.get(5).expect("commit"), Some(50));
    cluster.shutdown();
}

#[test]
fn twopc_kv_over_threads() {
    let (cluster, mut clients) =
        ClusterBuilder::new(3, |m: &[NodeId], me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(3, 33).expect("commit"), None);
    assert_eq!(c.get(3).expect("commit"), Some(33));
    cluster.shutdown();
}

#[test]
fn concurrent_clients_make_consistent_progress() {
    let t = one_timing();
    let (cluster, clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(3)
    .spawn();
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
            .map(|m| m.committed.load(std::sync::atomic::Ordering::Relaxed))
            .collect()
    };
    let patience = std::time::Instant::now() + Duration::from_secs(2);
    let mut committed = read_committed();
    while committed.iter().any(|&c| c < 90) && std::time::Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
        committed = read_committed();
    }
    assert!(
        committed.iter().all(|&c| c >= 90),
        "every replica must commit all 90+ commands: {committed:?}"
    );
    cluster.shutdown();
}

#[test]
fn batched_cluster_serves_concurrent_clients_consistently() {
    // Engine-level batching on real threads: several synchronous clients
    // hit the same replicas, commands coalesce per agreement (or flush on
    // the 200 µs deadline), and every write stays readable. Exercises
    // size flushes, deadline flushes and the commit-time reply fan-out
    // under AfterApply reply mode.
    let t = one_timing();
    let (cluster, clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(3)
    .batching(BatchConfig::new(4, 200_000))
    .spawn();
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
fn adaptive_batched_cluster_serves_clients_and_publishes_depth() {
    // Adaptive batch depth on real threads: the engines learn their own
    // flush depth, every write stays readable, and the replica loops
    // republish the learned depth through NodeMetrics.
    let t = one_timing();
    let (cluster, clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(3)
    .batching(BatchConfig::adaptive(AdaptiveBatch::new(8, 200_000)))
    .spawn();
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
    // The leader's loop published a live depth within the bounds; with
    // three synchronous clients it may or may not have grown, but it can
    // never be 0 or above the cap.
    let depth = cluster.metrics()[0]
        .batch_depth
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!((1..=8).contains(&depth), "published depth {depth}");
    assert!(
        cluster.metrics()[0]
            .batch_flushes
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "leader must have flushed batches"
    );
    cluster.shutdown();
}

#[test]
fn sharded_cluster_partitions_keys_and_serves_every_client() {
    // Two consensus groups per replica slot, still one thread per slot:
    // every key routes to its owning group, callers stay oblivious.
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .shards(2)
    .spawn();
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
    // Cross-group read-your-writes held above; relaxed reads degrade to
    // ordered reads per group and still answer.
    assert_eq!(c.get_relaxed(NodeId(0), 3).expect("read"), Some(21));
    cluster.shutdown();
}

#[test]
fn sharded_batched_cluster_serves_concurrent_clients() {
    // Sharding composes with batching on real threads: each group keeps
    // its own accumulator, per-client replies fan back out on commit.
    let t = one_timing();
    let (cluster, clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(3)
    .shards(2)
    .batching(BatchConfig::new(4, 200_000))
    .spawn();
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
fn sharded_twopc_serves_relaxed_reads_from_the_owning_group() {
    let (cluster, mut clients) =
        ClusterBuilder::new(3, |m: &[NodeId], me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .shards(3)
            .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    for key in 0..6u64 {
        assert_eq!(c.put(key, key + 100).expect("commit"), None);
    }
    // Every replica answers from the local copy of the key's own group.
    for n in 0..3u16 {
        for key in 0..6u64 {
            assert_eq!(
                c.get_relaxed(NodeId(n), key).expect("read"),
                Some(key + 100),
                "replica {n} key {key}"
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn submit_noop_commits() {
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    // The paper's benchmark op: no payload.
    assert_eq!(c.submit(Op::Noop).expect("commit"), None);
    cluster.shutdown();
}

#[test]
fn onepaxos_survives_stopped_backup() {
    // A stopped *backup* acceptor is outside the fast path (§4.3): the
    // cluster keeps committing without it.
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn();
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

#[test]
fn onepaxos_fails_over_after_stopped_leader() {
    // The limit case of a slow leader: its thread stops entirely. The
    // client re-targets; a proposer takes over via PaxosUtility and is
    // adopted by the still-running active acceptor (§5.3, Fig 5).
    let timing = Timing {
        tick: 2_000_000,
        io_timeout: 300_000_000,
        suspect_after: 600_000_000,
    };
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), timing)
    })
    .clients(1)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_millis(1_500));
    c.put(1, 10).expect("commit before fault");
    c.stop_replica(NodeId(0)); // the leader
    std::thread::sleep(Duration::from_millis(50));
    // This submission needs the full detection + takeover chain; give it
    // a generous per-attempt budget (CI boxes are slow).
    c.put(2, 20).expect("commit after leader failover");
    assert_eq!(c.get(2).expect("read"), Some(20));
    assert_eq!(c.get(1).expect("read"), Some(10), "history preserved");
    cluster.shutdown();
}

#[test]
fn metrics_reflect_message_flow() {
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    for i in 0..10 {
        c.put(i, i).expect("commit");
    }
    let m = cluster.metrics();
    // Every replica applies all 10 commands — by learning them, or, for
    // a replica whose boot probe was answered late, partly by installing
    // a peer's snapshot (which `committed` never counts). The last learn
    // may still be in flight when the client's reply arrives, so poll
    // briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    for (i, nm) in m.iter().enumerate() {
        while nm.applied.load(std::sync::atomic::Ordering::Relaxed) < 10 {
            assert!(
                std::time::Instant::now() < deadline,
                "replica {i} applied: {}",
                nm.applied.load(std::sync::atomic::Ordering::Relaxed)
            );
            std::thread::yield_now();
        }
    }
    // The leader (replica 0) sends at least one accept per command plus
    // replies; the acceptor (replica 1) sends the learn broadcasts.
    assert!(m[0].sent.load(std::sync::atomic::Ordering::Relaxed) >= 20);
    assert!(m[1].sent.load(std::sync::atomic::Ordering::Relaxed) >= 20);
    cluster.shutdown();
}

#[test]
fn pinned_cluster_works_when_cores_exist() {
    // Pinning is best-effort; the cluster must work either way.
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .pin_cores(true)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    assert_eq!(c.put(1, 2).expect("commit"), None);
    cluster.shutdown();
}

#[test]
fn txn_put_commits_atomically_across_shard_groups() {
    use consensus_inside::onepaxos::{ShardRouter, TxnOutcome};
    let t = one_timing();
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(cfg(m, me), t)
    })
    .clients(1)
    .shards(4)
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    // Two keys owned by different shard groups: a real cross-group 2PC.
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
    // Linearized reads see both writes (atomicity end-to-end).
    assert_eq!(c.get(k0).expect("read"), Some(10));
    assert_eq!(c.get(k1).expect("read"), Some(20));
    // A SECOND cross-shard transaction from the same handle touches the
    // same shards: it must run under a fresh TxnId (the handle persists
    // the coordinator's sequence across calls), so its writes land
    // instead of the shards echoing the first transaction's recorded
    // outcome while dropping the new fragments.
    assert_eq!(
        c.txn_put(&[(k0, 30), (k1, 40)]).expect("commit"),
        TxnOutcome::Committed
    );
    assert_eq!(c.get(k0).expect("read"), Some(30));
    assert_eq!(c.get(k1).expect("read"), Some(40));
    // A single-shard write set short-circuits to one MultiPut agreement.
    let twin = (1u64..)
        .find(|&k| k != k0 && router.route_key(k) == router.route_key(k0))
        .unwrap();
    assert_eq!(
        c.txn_put(&[(k0, 11), (twin, 12)]).expect("commit"),
        TxnOutcome::Committed
    );
    assert_eq!(c.get(k0).expect("read"), Some(11));
    assert_eq!(c.get(twin).expect("read"), Some(12));
    // Plain traffic keeps working on the same handle afterwards (the
    // request-id counter was resynced through the coordinator).
    assert_eq!(c.put(k1, 21).expect("commit"), Some(40));
    cluster.shutdown();
}

#[test]
fn txn_put_relaxed_reads_wait_out_the_lock_window() {
    use consensus_inside::onepaxos::{ShardRouter, TxnOutcome};
    // 2PC shards support relaxed reads; a transaction's lock window must
    // never show a reader half a write set. After the txn commits, every
    // replica's local copy has BOTH writes — a relaxed read can race the
    // outcome's application (and wait), but never observe a fragment.
    let (cluster, mut clients) =
        ClusterBuilder::new(3, |m: &[NodeId], me| TwoPcNode::new(cfg(m, me)))
            .clients(1)
            .shards(2)
            .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    let router = ShardRouter::new(2);
    let k0 = 0u64;
    let k1 = (1u64..)
        .find(|&k| router.route_key(k) != router.route_key(k0))
        .unwrap();
    assert_eq!(
        c.txn_put(&[(k0, 1), (k1, 2)]).expect("commit"),
        TxnOutcome::Committed
    );
    for n in 0..3u16 {
        assert_eq!(c.get_relaxed(NodeId(n), k0).expect("read"), Some(1));
        assert_eq!(c.get_relaxed(NodeId(n), k1).expect("read"), Some(2));
    }
    cluster.shutdown();
}
