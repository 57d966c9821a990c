//! Property-based schedule exploration: the Appendix B safety properties
//! must hold under *every* delivery schedule, block/unblock pattern and
//! client behaviour — and liveness must return once the network heals.

use consensus_inside::onepaxos::basic_paxos::BasicPaxosNode;
use consensus_inside::onepaxos::mencius::MenciusNode;
use consensus_inside::onepaxos::multipaxos::MultiPaxosNode;
use consensus_inside::onepaxos::onepaxos::OnePaxosNode;
use consensus_inside::onepaxos::testnet::TestNet;
use consensus_inside::onepaxos::twopc::TwoPcNode;
use consensus_inside::onepaxos::{ClusterConfig, NodeId, Op, Protocol};
use proptest::prelude::*;

const N: u16 = 3;
const TICK: u64 = 100_000;

/// One step of an adversarial schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Deliver the head message of the k-th currently deliverable link.
    Deliver(u8),
    /// Advance virtual time (fires due timers), then settle fully.
    AdvanceAndSettle(u8),
    /// Block a node (slow core).
    Block(u8),
    /// Unblock a node.
    Unblock(u8),
    /// Submit a fresh client request to a node.
    Request { target: u8, client: u8 },
    /// Re-submit the most recent request of a client to another node (a
    /// client retry after timeout).
    Retry { target: u8, client: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u8>().prop_map(Step::Deliver),
        2 => any::<u8>().prop_map(Step::AdvanceAndSettle),
        1 => (0..N as u8).prop_map(Step::Block),
        2 => (0..N as u8).prop_map(Step::Unblock),
        3 => ((0..N as u8), (0..3u8)).prop_map(|(target, client)| Step::Request { target, client }),
        1 => ((0..N as u8), (0..3u8)).prop_map(|(target, client)| Step::Retry { target, client }),
    ]
}

/// Runs a schedule against a fresh cluster of protocol `P`; afterwards
/// heals the network and checks safety plus healed-liveness.
fn explore<P: Protocol>(
    steps: &[Step],
    make: impl FnMut(&[NodeId], NodeId) -> P,
    check_liveness: bool,
) -> Result<(), TestCaseError> {
    let mut net = TestNet::new(N, make);
    net.run_to_quiescence();
    let mut next_req = [0u64; 3];
    let mut issued: Vec<(NodeId, u64)> = Vec::new();
    for step in steps {
        match *step {
            Step::Deliver(k) => {
                let links = net.deliverable_links();
                if !links.is_empty() {
                    let (from, to) = links[k as usize % links.len()];
                    net.deliver_one(from, to);
                }
            }
            Step::AdvanceAndSettle(units) => {
                net.advance(TICK * (1 + units as u64 % 30));
                net.run_to_quiescence();
            }
            Step::Block(node) => {
                net.block(NodeId(node as u16));
            }
            Step::Unblock(node) => {
                net.unblock(NodeId(node as u16));
            }
            Step::Request { target, client } => {
                let c = NodeId(100 + client as u16);
                next_req[client as usize] += 1;
                let r = next_req[client as usize];
                let t = NodeId(target as u16);
                if !net.is_blocked(t) {
                    net.client_request(t, c, r, Op::Noop);
                    issued.push((c, r));
                }
            }
            Step::Retry { target, client } => {
                let c = NodeId(100 + client as u16);
                let r = next_req[client as usize];
                let t = NodeId(target as u16);
                if r > 0 && !net.is_blocked(t) {
                    net.client_request(t, c, r, Op::Noop);
                }
            }
        }
        // Safety must hold at every point of every schedule.
        net.assert_consistent();
    }
    // Heal: unblock everyone, give the timers plenty of rounds.
    for n in 0..N {
        net.unblock(NodeId(n));
    }
    for _ in 0..60 {
        net.advance(TICK * 25);
        net.run_to_quiescence();
    }
    net.assert_consistent();
    if check_liveness {
        // Every issued request commits somewhere once the network heals.
        let committed: std::collections::BTreeSet<(NodeId, u64)> = (0..N)
            .flat_map(|n| net.commits(NodeId(n)).values().map(|c| c.id()))
            .collect();
        for id in &issued {
            prop_assert!(
                committed.contains(id),
                "request {id:?} never committed after healing"
            );
        }
        // All replicas converge to the same committed log.
        let logs: Vec<_> = (0..N).map(|n| net.commits(NodeId(n)).clone()).collect();
        for n in 1..N as usize {
            prop_assert_eq!(&logs[0], &logs[n], "replica logs diverged");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 2_000,
        ..ProptestConfig::default()
    })]

    #[test]
    fn onepaxos_is_safe_and_heals(steps in prop::collection::vec(step_strategy(), 0..80)) {
        explore(
            &steps,
            |m, me| OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me)),
            true,
        )?;
    }

    #[test]
    fn multipaxos_is_safe_and_heals(steps in prop::collection::vec(step_strategy(), 0..80)) {
        explore(
            &steps,
            |m, me| MultiPaxosNode::new(ClusterConfig::new(m.to_vec(), me)),
            true,
        )?;
    }

    #[test]
    fn basic_paxos_is_safe_and_heals(steps in prop::collection::vec(step_strategy(), 0..80)) {
        // One fixed proposer runs both Synod phases per command; a nack
        // restarts phase 1 at once and a lost instance re-queues its
        // command, so every request commits once the network heals.
        explore(
            &steps,
            |m, me| BasicPaxosNode::new(ClusterConfig::new(m.to_vec(), me)),
            true,
        )?;
    }

    #[test]
    fn twopc_is_safe(steps in prop::collection::vec(step_strategy(), 0..80)) {
        // 2PC is blocking: liveness is not guaranteed under this
        // adversary (a request can be stuck behind a round whose
        // participant was blocked at the wrong moment), but safety and
        // replica convergence must hold.
        explore(
            &steps,
            |m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)),
            false,
        )?;
    }

    #[test]
    fn mencius_is_safe_and_heals(steps in prop::collection::vec(step_strategy(), 0..80)) {
        // Multi-leader: every node advocates its own requests in its own
        // slots; skips fill the rest. After healing, every issued request
        // must be decided and all logs agree.
        explore(
            &steps,
            |m, me| MenciusNode::new(ClusterConfig::new(m.to_vec(), me)),
            true,
        )?;
    }
}
