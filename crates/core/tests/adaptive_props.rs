//! Property-based tests for the adaptive batch-depth controller
//! (`BatchConfig::Adaptive`), extending the PR 3 `shard_props.rs`
//! pattern: under *any* event sequence the learned depth stays within
//! `[1, max_commands]`, under constant offered load it converges to a
//! fixed point, and an adaptive-batched deployment's final per-key
//! state is indistinguishable from an unbatched one on the same
//! command sequence.

use onepaxos::engine::AdaptiveBatch;
use onepaxos::shard::ShardId;
use onepaxos::testnet::TestNet;
use onepaxos::twopc::TwoPcNode;
use onepaxos::{ClusterConfig, NodeId, Op};
use proptest::prelude::*;

fn make(m: &[NodeId], me: NodeId) -> TwoPcNode {
    TwoPcNode::new(ClusterConfig::new(m.to_vec(), me))
}

// --------------------------------------------------------------------
// Bounds: whatever the schedule does — bursts, trickles, long gaps,
// partial deliveries — every shard's learned depth stays in
// [1, max_commands] at every step.
// --------------------------------------------------------------------

/// One step of an arbitrary load schedule: submit a burst of 0..8
/// requests at some node, advance time by 0..4 flush windows, and
/// sometimes let the network settle.
fn schedule(len: usize) -> impl Strategy<Value = Vec<(u16, u8, u8, bool)>> {
    prop::collection::vec((0u16..3, 0u8..8, 0u8..4, any::<bool>()), 1..=len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
    #[test]
    fn depth_stays_within_bounds_under_any_schedule(
        steps in schedule(30),
        cap in 2usize..12,
        shards in 1u16..4,
    ) {
        const DELAY: u64 = 1_000;
        let mut net = TestNet::builder(3)
            .shards(shards)
            .batching(onepaxos::BatchConfig::adaptive(AdaptiveBatch::new(cap, DELAY)))
            .build(make);
        let mut req = 0u64;
        for &(target, burst, advance, settle) in &steps {
            for b in 0..burst {
                req += 1;
                net.client_request(
                    NodeId(target % 3),
                    NodeId(100 + b as u16),
                    req,
                    Op::Put { key: req % 32, value: req },
                );
            }
            net.advance(u64::from(advance) * DELAY);
            if settle {
                net.run_to_quiescence();
            }
            for node in 0..3u16 {
                for s in (0..shards).map(ShardId) {
                    let d = net.sharded_engine(NodeId(node)).stats(s).depth;
                    prop_assert!(
                        (1..=cap).contains(&d),
                        "node {} shard {} depth {} escaped [1, {}]",
                        node, s, d, cap
                    );
                }
            }
        }
        // Everything submitted eventually commits consistently.
        net.advance(DELAY);
        net.run_to_quiescence();
        net.advance(DELAY);
        net.run_to_quiescence();
        net.assert_consistent();
    }

    // ----------------------------------------------------------------
    // Convergence: constant offered load (a fixed-size burst per flush
    // window) drives the depth to a fixed point — exactly the burst
    // size (capped), with no residual oscillation.
    // ----------------------------------------------------------------

    #[test]
    fn depth_converges_to_a_fixed_point_under_constant_load(
        burst in 1usize..10,
        cap in 2usize..9,
    ) {
        const DELAY: u64 = 1_000;
        // Wider than a window, far under the 16-window idle decay.
        const SPACING: u64 = 5 * DELAY;
        let cfg = AdaptiveBatch::new(cap, DELAY);
        // A single-node group decides every agreement synchronously, so
        // the only dynamics left are the controller's.
        let mut net = TestNet::builder(1).adaptive_batching(cfg).build(make);
        let mut depths = Vec::new();
        for round in 0..30u64 {
            for c in 0..burst {
                net.client_request(
                    NodeId(0),
                    NodeId(100 + c as u16),
                    round + 1,
                    Op::Noop,
                );
            }
            net.advance(DELAY); // flush any partial tail
            net.advance(SPACING - DELAY);
            depths.push(net.engine_stats(NodeId(0)).depth);
        }
        let expect = burst.min(cap);
        prop_assert!(
            depths[20..].iter().all(|&d| d == expect),
            "burst {} cap {}: depths {:?} did not converge to {}",
            burst, cap, depths, expect
        );
        net.run_to_quiescence();
        net.assert_consistent();
    }

    // ----------------------------------------------------------------
    // Adaptive == unbatched: the same command sequence through an
    // adaptive-batched TestNet and a plain one ends in the same per-key
    // KV state with the same replies answered (extends the PR 3
    // sharded-equals-unsharded oracle to the batching dimension).
    // ----------------------------------------------------------------

    #[test]
    fn adaptive_batched_state_matches_unbatched(
        seq in prop::collection::vec((0u16..4, 0u64..16, 0u64..1_000, any::<bool>()), 1..24),
        cap in 2usize..9,
    ) {
        const DELAY: u64 = 1_000;
        let mut plain = TestNet::new(3, make);
        let mut adaptive = TestNet::builder(3)
            .adaptive_batching(AdaptiveBatch::new(cap, DELAY))
            .build(make);
        for (i, &(client, key, value, is_put)) in seq.iter().enumerate() {
            let op = if is_put {
                Op::Put { key, value }
            } else {
                Op::Get { key }
            };
            let req_id = i as u64 + 1;
            let target = NodeId((i % 3) as u16);
            plain.client_request(target, NodeId(100 + client), req_id, op.clone());
            plain.run_to_quiescence();
            adaptive.client_request(target, NodeId(100 + client), req_id, op);
            // Deliver what flushed; partial batches may stay buffered
            // until the deadline — exactly what the next advance covers.
            adaptive.run_to_quiescence();
            if i % 3 == 2 {
                adaptive.advance(DELAY);
                adaptive.run_to_quiescence();
            }
        }
        adaptive.advance(DELAY);
        adaptive.run_to_quiescence();
        plain.assert_consistent();
        adaptive.assert_consistent();
        prop_assert_eq!(plain.replies().len(), adaptive.replies().len());
        for n in 0..3u16 {
            for key in 0..16u64 {
                prop_assert_eq!(
                    plain.state(NodeId(n)).get(key),
                    adaptive.kv_get(NodeId(n), key),
                    "node {} key {} diverged", n, key
                );
            }
        }
    }
}
