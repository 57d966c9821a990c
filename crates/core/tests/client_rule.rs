//! One client-request rule across the Paxos family: each case runs on a
//! 3-node `TestNet` for every row of the table — 1Paxos, Multi-Paxos,
//! Mencius and Basic-Paxos — and must hold on all four.
//!
//! * (a) A retry of a decided request at another replica is answered at
//!   once, by that replica, with the instance it was first decided in;
//!   nothing is agreed again and no leadership changes.
//! * (b) A decided command forwarded to the leader is dropped there.
//! * (c) A request sent twice to one replica before it is decided is
//!   answered once.

use onepaxos::basic_paxos::BasicPaxosNode;
use onepaxos::mencius::MenciusNode;
use onepaxos::multipaxos::MultiPaxosNode;
use onepaxos::onepaxos::OnePaxosNode;
use onepaxos::testnet::TestNet;
use onepaxos::{ClusterConfig, Nanos, NodeId, Op, Protocol};

/// Leader suspicion timeout of 1Paxos and Multi-Paxos (their default).
const SUSPECT_AFTER: Nanos = 2_000_000;
/// Maintenance tick of every row (their default).
const TICK: Nanos = 100_000;
const CLIENT: NodeId = NodeId(9);

/// Runs `$case(name, make, forwards)` for every row: `forwards` is
/// whether the protocol forwards a request to a leader (Mencius proposes
/// in its own slots instead).
macro_rules! each_row {
    ($case:ident) => {
        $case("1Paxos", OnePaxosNode::new, true);
        $case("Multi-Paxos", MultiPaxosNode::new, true);
        $case("Mencius", MenciusNode::new, false);
        $case("Basic-Paxos", BasicPaxosNode::new, true);
    };
}

fn net<P: Protocol>(make: fn(ClusterConfig) -> P) -> TestNet<P> {
    let mut net = TestNet::new(3, |m, me| make(ClusterConfig::new(m.to_vec(), me)));
    net.run_to_quiescence(); // 1Paxos: the initial leader's adoption
    net
}

fn commits<P: Protocol>(net: &TestNet<P>) -> Vec<usize> {
    (0..3).map(|n| net.commits(NodeId(n)).len()).collect()
}

fn leaders<P: Protocol>(net: &TestNet<P>) -> Vec<bool> {
    (0..3).map(|n| net.node(NodeId(n)).is_leader()).collect()
}

/// Lets every suspicion timeout run out twice, ticking all the way.
fn wait_out_suspicion<P: Protocol>(net: &mut TestNet<P>) {
    net.advance_and_settle(TICK, (2 * SUSPECT_AFTER / TICK) as usize);
}

fn retry_case<P: Protocol>(name: &str, make: fn(ClusterConfig) -> P, _forwards: bool) {
    let mut net = net(make);
    net.client_request(NodeId(0), CLIENT, 1, Op::Noop);
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 1, "{name}: first request unanswered");
    let first = net.replies()[0].instance;
    let (before, lead) = (commits(&net), leaders(&net));

    net.client_request(NodeId(1), CLIENT, 1, Op::Noop);
    net.run_to_quiescence();
    assert_eq!(net.replies().len(), 2, "{name}: one new reply");
    let r = net.replies()[1];
    assert_eq!(
        (r.from, r.client, r.req_id, r.instance),
        (NodeId(1), CLIENT, 1, first),
        "{name}: the retried replica answers with the original instance"
    );
    assert_eq!(commits(&net), before, "{name}: agreed again");

    wait_out_suspicion(&mut net);
    assert_eq!(net.replies().len(), 2, "{name}: a late reply");
    assert_eq!(commits(&net), before, "{name}: agreed again late");
    assert_eq!(leaders(&net), lead, "{name}: the retry changed the leader");
}

fn decided_forward_case<P: Protocol>(name: &str, make: fn(ClusterConfig) -> P, forwards: bool) {
    if !forwards {
        return;
    }
    // n2 misses the decision: its traffic is held, then dropped.
    let mut net = net(make);
    net.block(NodeId(2));
    net.client_request(NodeId(0), CLIENT, 1, Op::Noop);
    net.run_to_quiescence();
    for from in [NodeId(0), NodeId(1)] {
        while net.drop_one(from, NodeId(2)) {}
    }
    net.unblock(NodeId(2));
    assert_eq!(net.replies().len(), 1, "{name}: first request unanswered");
    let before = commits(&net);

    // n2 does not know the command is decided and forwards it to n0.
    net.client_request(NodeId(2), CLIENT, 1, Op::Noop);
    net.run_to_quiescence();
    assert_eq!(
        net.replies().len(),
        1,
        "{name}: a decided forward produced a reply"
    );
    assert_eq!(
        commits(&net),
        before,
        "{name}: a decided forward was agreed again"
    );
}

fn duplicate_case<P: Protocol>(name: &str, make: fn(ClusterConfig) -> P, _forwards: bool) {
    let mut net = net(make);
    net.client_request(NodeId(1), CLIENT, 1, Op::Noop);
    net.client_request(NodeId(1), CLIENT, 1, Op::Noop);
    net.run_to_quiescence();
    wait_out_suspicion(&mut net);
    let replies: Vec<NodeId> = net.replies().iter().map(|r| r.from).collect();
    assert_eq!(replies, vec![NodeId(1)], "{name}: one reply, from n1");
    net.assert_consistent();
}

#[test]
fn a_retry_of_a_decided_request_is_answered_at_once_from_the_decided_table() {
    each_row!(retry_case);
}

#[test]
fn a_decided_forward_is_dropped_by_the_leader() {
    each_row!(decided_forward_case);
}

#[test]
fn a_request_sent_twice_before_its_decision_is_answered_once() {
    each_row!(duplicate_case);
}
