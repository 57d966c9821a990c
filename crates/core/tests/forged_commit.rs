//! The agreement oracle catches a divergence in TestNet: one node's
//! protocol is wrapped so that the command it learns in one instance is
//! replaced by one nobody chose, and the net panics at that learn, naming
//! the shard and both nodes.

use onepaxos::multipaxos::MultiPaxosNode;
use onepaxos::testnet::TestNet;
use onepaxos::{Action, ClusterConfig, Command, Instance, Nanos, NodeId, Op, Outbox, Protocol};

/// The instance whose learn is forged.
const FORGED: Instance = 1;

/// Runs `inner`; when `forge` is set, the command it learns in
/// [`FORGED`] is replaced.
struct Forger<P> {
    inner: P,
    forge: bool,
}

impl<P: Protocol> Forger<P> {
    fn rewrite(&self, out: &mut Outbox<P::Msg>) {
        if !self.forge {
            return;
        }
        for action in out.take() {
            out.push(match action {
                Action::Commit {
                    instance: FORGED, ..
                } => Action::Commit {
                    instance: FORGED,
                    cmd: Command::new(NodeId(77), 1, Op::Noop),
                },
                other => other,
            });
        }
    }
}

impl<P: Protocol> Protocol for Forger<P> {
    type Msg = P::Msg;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn on_start(&mut self, now: Nanos, out: &mut Outbox<P::Msg>) {
        self.inner.on_start(now, out);
        self.rewrite(out);
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, now: Nanos, out: &mut Outbox<P::Msg>) {
        self.inner.on_message(from, msg, now, out);
        self.rewrite(out);
    }

    fn on_tick(&mut self, now: Nanos, out: &mut Outbox<P::Msg>) {
        self.inner.on_tick(now, out);
        self.rewrite(out);
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        out: &mut Outbox<P::Msg>,
    ) {
        self.inner.on_client_request(client, req_id, op, now, out);
        self.rewrite(out);
    }

    fn is_leader(&self) -> bool {
        self.inner.is_leader()
    }
}

#[test]
#[should_panic(
    expected = "shard s0 instance 1: n1 learned Command { client: n9, req_id: 2, \
                op: Put { key: 2, value: 20 } } \
                but n2 learned Command { client: n77, req_id: 1, op: Noop }"
)]
fn testnet_catches_a_node_that_learns_a_forged_command() {
    let mut net = TestNet::new(3, |m, me| Forger {
        inner: MultiPaxosNode::new(ClusterConfig::new(m.to_vec(), me)),
        forge: me == NodeId(2),
    });
    for req in 1..=3 {
        let op = Op::Put {
            key: req,
            value: 10 * req,
        };
        net.client_request(NodeId(0), NodeId(9), req, op);
        net.run_to_quiescence();
    }
}
