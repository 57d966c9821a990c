//! Dedicated `TestNet` harness coverage for the Mencius baseline,
//! mirroring the agreement/consistency suites the 1Paxos protocol has —
//! all driven through the shared replica-engine path (every `TestNet`
//! node is a `ReplicaEngine`).

use onepaxos::mencius::MenciusNode;
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::testnet::TestNet;
use onepaxos::{BatchConfig, ClusterConfig, EngineConfig, NodeId, Op};

fn net(n: u16) -> TestNet<MenciusNode> {
    TestNet::new(n, |m, me| {
        MenciusNode::new(ClusterConfig::new(m.to_vec(), me))
    })
}

fn batched_net(n: u16, cfg: BatchConfig) -> TestNet<MenciusNode> {
    TestNet::builder(n)
        .batching(cfg)
        .build(|m, me| MenciusNode::new(ClusterConfig::new(m.to_vec(), me)))
}

#[test]
fn single_command_reaches_agreement_on_all_nodes() {
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 10 });
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 1);
    let r = net.replies()[0];
    assert_eq!((r.client, r.req_id), (NodeId(9), 1));
    // Every node learned the command in the advocate's slot (slot 0 is
    // owned by n0).
    for n in 0..3u16 {
        let commits = net.commits(NodeId(n));
        assert_eq!(commits.get(0).map(|c| c.req_id), Some(1), "node {n}");
    }
    net.assert_consistent();
}

#[test]
fn concurrent_proposals_from_all_leaders_stay_consistent() {
    // The defining multi-leader property: simultaneous advocacy on every
    // node lands in disjoint slots, so there is nothing to conflict on.
    let mut net = net(3);
    for round in 1..=10u64 {
        for n in 0..3u16 {
            net.client_request(
                NodeId(n),
                NodeId(100 + n),
                round,
                Op::Put {
                    key: u64::from(n),
                    value: round,
                },
            );
        }
    }
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 30);
    net.assert_consistent();
    // All nodes converge to identical commit logs and identical KV state.
    let reference = net.commits(NodeId(0)).clone();
    for n in 1..3u16 {
        assert_eq!(net.commits(NodeId(n)), &reference, "log of node {n}");
        assert_eq!(
            net.state(NodeId(n)).digest(),
            net.state(NodeId(0)).digest(),
            "state of node {n}"
        );
    }
    for n in 0..3u16 {
        assert_eq!(net.state(NodeId(0)).get(u64::from(n)), Some(10));
    }
}

#[test]
fn interleaved_delivery_schedules_preserve_consistency() {
    // Deliver one message at a time, alternating links, asserting the
    // Appendix B consistency property at every step.
    let mut net = net(3);
    for n in 0..3u16 {
        net.client_request(NodeId(n), NodeId(100 + n), 1, Op::Noop);
    }
    let mut guard = 0;
    loop {
        let links = net.deliverable_links();
        if links.is_empty() {
            break;
        }
        // Pick a different link each round (rotating), one delivery only.
        let (from, to) = links[guard % links.len()];
        net.deliver_one(from, to);
        net.assert_consistent();
        guard += 1;
        assert!(guard < 10_000, "schedule did not converge");
    }
    assert_eq!(net.replies().len(), 3);
    net.assert_consistent();
}

#[test]
fn state_machines_apply_in_slot_order_across_leaders() {
    // Writes to one key from different leaders: every replica must apply
    // them in slot order, so all end states agree.
    let mut net = net(3);
    net.client_request(NodeId(0), NodeId(7), 1, Op::Put { key: 5, value: 50 });
    net.client_request(NodeId(1), NodeId(8), 1, Op::Put { key: 5, value: 51 });
    net.client_request(NodeId(2), NodeId(9), 1, Op::Put { key: 5, value: 52 });
    net.run_to_quiescence();
    // Skips may be needed before the log is contiguous everywhere.
    net.advance_and_settle(MenciusNode::DEFAULT_TICK, 3);
    let expected = net.state(NodeId(0)).get(5);
    assert!(expected.is_some());
    for n in 1..3u16 {
        assert_eq!(net.state(NodeId(n)).get(5), expected, "replica {n}");
    }
    net.assert_consistent();
}

#[test]
fn blocked_minority_does_not_stop_agreement() {
    let mut net = net(5);
    net.block(NodeId(3));
    net.block(NodeId(4));
    for n in 0..3u16 {
        net.client_request(NodeId(n), NodeId(100 + n), 1, Op::Noop);
    }
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 3, "majority must still decide");
    net.unblock(NodeId(3));
    net.unblock(NodeId(4));
    net.run_to_quiescence();
    net.assert_consistent();
    // The healed nodes caught up on every decided slot.
    for inst in net.commits(NodeId(0)).keys() {
        assert!(
            net.commits(NodeId(4)).contains_key(inst),
            "n4 missing instance {inst}"
        );
    }
}

#[test]
fn mencius_full_batch_travels_through_one_agreement() {
    let mut net = batched_net(3, BatchConfig::new(4, 1_000_000));
    for c in 0..4u16 {
        net.client_request(
            NodeId(0),
            NodeId(100 + c),
            1,
            Op::Put {
                key: u64::from(c),
                value: 7,
            },
        );
    }
    net.run_to_quiescence();
    // All four clients answered, but only one slot was agreed on.
    assert_eq!(net.replies().len(), 4);
    for n in 0..3u16 {
        let commits = net.commits(NodeId(n));
        assert_eq!(commits.len(), 1, "node {n}");
        assert_eq!(commits.get(0).map(|c| c.command_count()), Some(4));
        for c in 0..4u64 {
            assert_eq!(net.state(NodeId(n)).get(c), Some(7), "node {n} key {c}");
        }
    }
    net.assert_consistent();
}

#[test]
fn mencius_partial_batch_flushes_on_deadline() {
    let mut net = batched_net(3, BatchConfig::new(8, 500_000));
    net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 10 });
    net.client_request(NodeId(0), NodeId(10), 1, Op::Put { key: 2, value: 20 });
    net.run_to_quiescence();
    assert!(net.replies().is_empty(), "batch must still be open");
    // The engine's next_deadline covers the pending flush; advancing past
    // it releases the two-command batch.
    net.advance(500_000);
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 2);
    for n in 0..3u16 {
        assert_eq!(net.state(NodeId(n)).get(1), Some(10));
        assert_eq!(net.state(NodeId(n)).get(2), Some(20));
    }
    net.assert_consistent();
}

#[test]
fn mencius_batched_multi_leader_agreement_matches_unbatched_state() {
    // Every node batches its own clients' commands into its own slots;
    // the end state must equal the unbatched run's.
    let drive = |net: &mut TestNet<MenciusNode>| {
        for round in 1..=4u64 {
            for n in 0..3u16 {
                net.client_request(
                    NodeId(n),
                    NodeId(100 + n),
                    round,
                    Op::Put {
                        key: u64::from(n),
                        value: round,
                    },
                );
            }
        }
        net.run_to_quiescence();
        net.advance_and_settle(MenciusNode::DEFAULT_TICK, 3);
        net.advance_and_settle(1_000_000, 2); // flush any open batches
    };
    let mut plain = net(3);
    drive(&mut plain);
    let mut batched = batched_net(3, BatchConfig::new(4, 1_000_000));
    drive(&mut batched);
    assert_eq!(plain.replies().len(), 12);
    assert_eq!(batched.replies().len(), 12);
    for n in 0..3u16 {
        assert_eq!(
            plain.state(NodeId(n)).digest(),
            batched.state(NodeId(n)).digest(),
            "node {n}"
        );
    }
    batched.assert_consistent();
}

#[test]
fn onepaxos_batched_agreement_including_the_forwarding_path() {
    let mut net = TestNet::builder(3)
        .batching(BatchConfig::new(3, 400_000))
        .build(|m, me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me)));
    net.run_to_quiescence(); // initial leader adoption
                             // Three requests land on the leader (full batch, size flush), two on
                             // a follower (deadline flush, forwarded to the leader as one batch).
    for c in 0..3u16 {
        net.client_request(
            NodeId(0),
            NodeId(100 + c),
            1,
            Op::Put {
                key: u64::from(c),
                value: 1,
            },
        );
    }
    net.client_request(NodeId(1), NodeId(110), 1, Op::Put { key: 10, value: 2 });
    net.client_request(NodeId(1), NodeId(111), 1, Op::Put { key: 11, value: 2 });
    net.run_to_quiescence();
    net.advance_and_settle(400_000, 3);
    assert_eq!(net.replies().len(), 5);
    // The five commands travelled in two agreements.
    assert_eq!(net.commits(NodeId(2)).len(), 2);
    for n in 0..3u16 {
        for key in [0u64, 1, 2] {
            assert_eq!(net.state(NodeId(n)).get(key), Some(1), "node {n}");
        }
        assert_eq!(net.state(NodeId(n)).get(10), Some(2));
        assert_eq!(net.state(NodeId(n)).get(11), Some(2));
    }
    net.assert_consistent();
}

#[test]
fn rebooted_node_batches_again_under_fresh_identities() {
    // A silently rebooted node restarts its engine from scratch. Its
    // batch sequence must land in a fresh epoch: recycling a decided
    // (batch_source, seq) identity would make surviving peers drop the
    // new batch as an already-decided duplicate, stranding its clients.
    // A cold reboot applies nothing until it has the decided prefix, so
    // it answers no client without maintenance: run it, as the runtime
    // does (the threshold is never reached here).
    let config = EngineConfig::new()
        .batching(BatchConfig::new(2, 400_000))
        .truncate_every(1_000);
    let mut net = TestNet::builder(3)
        .config(config)
        .build(|m, me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me)));
    net.run_to_quiescence(); // leader adoption
    net.client_request(NodeId(1), NodeId(100), 1, Op::Put { key: 1, value: 1 });
    net.client_request(NodeId(1), NodeId(101), 1, Op::Put { key: 2, value: 1 });
    net.run_to_quiescence();
    net.advance_and_settle(400_000, 3);
    assert_eq!(net.replies().len(), 2, "first batch answered");
    // n1 reboots, losing all engine state (including its batch counter).
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    net.reset_node(NodeId(1), || {
        OnePaxosNode::new(ClusterConfig::new(members.clone(), NodeId(1)))
    });
    net.run_to_quiescence();
    net.client_request(NodeId(1), NodeId(102), 1, Op::Put { key: 3, value: 2 });
    net.client_request(NodeId(1), NodeId(103), 1, Op::Put { key: 4, value: 2 });
    net.run_to_quiescence();
    net.advance_and_settle(400_000, 5);
    assert_eq!(
        net.replies().len(),
        4,
        "post-reboot batch must not be dropped as a duplicate"
    );
    for n in [0u16, 2] {
        assert_eq!(net.state(NodeId(n)).get(3), Some(2), "node {n}");
        assert_eq!(net.state(NodeId(n)).get(4), Some(2), "node {n}");
    }
    net.assert_consistent();
}

#[test]
fn skips_fill_the_log_and_replies_survive_them() {
    // Skewed load through the engine path: the idle leaders' skip no-ops
    // must not disturb client replies or state.
    let mut net = net(3);
    for req in 1..=6u64 {
        net.client_request(
            NodeId(0),
            NodeId(9),
            req,
            Op::Put {
                key: req,
                value: req * 10,
            },
        );
        net.run_to_quiescence();
    }
    net.advance_and_settle(MenciusNode::DEFAULT_TICK, 4);
    assert_eq!(net.replies().len(), 6);
    for req in 1..=6u64 {
        assert_eq!(net.state(NodeId(1)).get(req), Some(req * 10));
    }
    assert!(net.node(NodeId(1)).skips_proposed() > 0);
    net.assert_consistent();
}
