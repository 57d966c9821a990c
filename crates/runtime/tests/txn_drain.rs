//! The commit legs of an early-acked transaction drain on the handle
//! that sent them. With batching on, a leg and the same client's next
//! request to that group often apply in one batch; the replica keeps
//! only the client's latest output, so it must answer the leg without a
//! value rather than hold the reply for an output that never comes.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use onepaxos::onepaxos::{OnePaxosNode, Timing};
use onepaxos::{BatchConfig, ClusterConfig, NodeId, ShardRouter, TxnOutcome};
use onepaxos_runtime::ClusterBuilder;

#[test]
fn back_to_back_cross_shard_txns_drain_under_batching() {
    // Relaxed timeouts: CI machines oversubscribe cores heavily.
    let t = Timing {
        tick: 2_000_000,
        io_timeout: 400_000_000,
        suspect_after: 800_000_000,
    };
    let (cluster, mut clients) = ClusterBuilder::new(3, move |m: &[NodeId], me| {
        OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), t)
    })
    .clients(1)
    .shards(2)
    .batching(BatchConfig::new(8, 200_000))
    .spawn();
    let c = &mut clients[0];
    c.set_timeout(Duration::from_secs(2));
    let router = ShardRouter::new(2);
    let k0 = 0u64;
    let k1 = (1u64..)
        .find(|&k| router.route_key(k) != router.route_key(k0))
        .unwrap();
    // The second transaction's prepares chase the first one's legs into
    // the same groups' batches.
    for v in 1..=2 {
        assert_eq!(
            c.txn_put(&[(k0, v), (k1, v)]).expect("commit"),
            TxnOutcome::Committed
        );
    }
    // Later calls absorb the legs' acknowledgements.
    for key in [k0, k1].into_iter().cycle().take(20) {
        if !c.draining() {
            break;
        }
        assert_eq!(c.get(key).expect("read"), Some(2));
    }
    assert!(!c.draining(), "outcome legs never acknowledged");
    let deadline = Instant::now() + Duration::from_secs(2);
    while let Some(m) = cluster
        .metrics()
        .iter()
        .find(|m| m.deferred_replies.load(Ordering::Relaxed) > 0)
    {
        assert!(
            Instant::now() < deadline,
            "replies still deferred: {}",
            m.deferred_replies.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.shutdown();
}
