//! Basic-Paxos (the Synod protocol), as recalled in §2.3 of the paper.
//!
//! "In the first phase, a proposer attempts to become the leader for a
//! particular instance number by broadcasting a `prepare request` message
//! to the acceptors. Upon receiving a `prepare response` message from a
//! majority of acceptors, the proposer becomes the leader of that instance
//! number. In the second phase, the leader proposes a value to the
//! acceptors and the acceptors broadcast the corresponding message to all
//! the learners. A learner learns the proposal after receiving the message
//! from a majority of acceptors" (§2.3).
//!
//! This module exports the single-decree building blocks
//! ([`InstanceAcceptor`], [`QuorumLearner`]) and a complete collapsed
//! deployment ([`BasicPaxosNode`]) that runs both phases for every
//! command, giving the four server-side message delays the paper
//! attributes to Basic-Paxos (§8).
//!
//! The Synod rules themselves (answer, phase 1 → phase 2, restart,
//! learn) live once in the crate-private `synod.rs`, which 1Paxos's
//! *PaxosUtility* drives too. This node keeps only its policy: the fixed
//! proposer, one fresh instance per command, and an immediate restart
//! under a higher ballot when a nack outbids its proposal.

use crate::advocate::Advocate;
use crate::config::ClusterConfig;
use crate::outbox::Outbox;
use crate::protocol::Protocol;
use crate::synod::{Phase, Synod, SynodMsg};
use crate::types::{Ballot, Command, Instance, Nanos, NodeId, Op};

pub use crate::synod::{InstanceAcceptor, QuorumLearner};

/// Wire messages of the collapsed Basic-Paxos deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Forward a client command to the proposer.
    Forward {
        /// The advocated command.
        cmd: Command,
    },
    /// Phase-1 request for one instance.
    Prepare {
        /// Target instance.
        inst: Instance,
        /// Proposal number.
        bal: Ballot,
    },
    /// Phase-1 response (promise), echoing any accepted proposal.
    Promise {
        /// Target instance.
        inst: Instance,
        /// The promised ballot.
        bal: Ballot,
        /// Previously accepted proposal for this instance, if any.
        accepted: Option<(Ballot, Command)>,
    },
    /// Phase-1 refusal carrying the higher promised ballot.
    PrepareNack {
        /// Target instance.
        inst: Instance,
        /// The acceptor's promised ballot.
        promised: Ballot,
    },
    /// Phase-2 request.
    Accept {
        /// Target instance.
        inst: Instance,
        /// Proposal number.
        bal: Ballot,
        /// Proposed command.
        cmd: Command,
    },
    /// Phase-2 refusal carrying the higher promised ballot.
    AcceptNack {
        /// Target instance.
        inst: Instance,
        /// The acceptor's promised ballot.
        promised: Ballot,
    },
    /// Acceptor → learners broadcast of an acceptance.
    Learn {
        /// Target instance.
        inst: Instance,
        /// Ballot under which the command was accepted.
        bal: Ballot,
        /// Accepted command.
        cmd: Command,
    },
}

impl SynodMsg<Command> for Msg {
    fn prepare(inst: Instance, bal: Ballot) -> Self {
        Msg::Prepare { inst, bal }
    }
    fn promise(inst: Instance, bal: Ballot, accepted: Option<(Ballot, Command)>) -> Self {
        Msg::Promise {
            inst,
            bal,
            accepted,
        }
    }
    fn prepare_nack(inst: Instance, promised: Ballot) -> Self {
        Msg::PrepareNack { inst, promised }
    }
    fn accept(inst: Instance, bal: Ballot, cmd: Command) -> Self {
        Msg::Accept { inst, bal, cmd }
    }
    fn accept_nack(inst: Instance, promised: Ballot) -> Self {
        Msg::AcceptNack { inst, promised }
    }
    fn learn(inst: Instance, bal: Ballot, cmd: Command) -> Self {
        Msg::Learn { inst, bal, cmd }
    }
}

/// A collapsed Basic-Paxos node (proposer + acceptor + learner on every
/// node, §2.3 footnote 5). The configured initial leader advocates all
/// commands; both phases run for every single command.
///
/// # Examples
///
/// ```
/// use onepaxos::basic_paxos::BasicPaxosNode;
/// use onepaxos::testnet::TestNet;
/// use onepaxos::{ClusterConfig, NodeId, Op};
///
/// let mut net = TestNet::new(3, |m, me| {
///     BasicPaxosNode::new(ClusterConfig::new(m.to_vec(), me))
/// });
/// net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
/// net.run_to_quiescence();
/// assert_eq!(net.replies().len(), 1);
/// ```
#[derive(Debug)]
pub struct BasicPaxosNode {
    proposer_node: NodeId,
    next_instance: Instance,
    synod: Synod<Command>,
    /// Owed answers, decided ids and queued commands (forwards are not
    /// tracked: the proposer is fixed, so a stall has nothing to
    /// trigger).
    adv: Advocate,
}

impl BasicPaxosNode {
    /// Default maintenance tick period (100 µs).
    pub const DEFAULT_TICK: Nanos = 100_000;

    /// Creates a node; `cfg.initial_leader()` is the (fixed) proposer.
    pub fn new(cfg: ClusterConfig) -> Self {
        BasicPaxosNode {
            proposer_node: cfg.initial_leader(),
            next_instance: 0,
            synod: Synod::new(cfg),
            adv: Advocate::default(),
        }
    }

    fn me(&self) -> NodeId {
        self.synod.cfg().me()
    }

    fn start_instance(&mut self, cmd: Command, out: &mut Outbox<Msg>) {
        let inst = self.next_instance;
        self.next_instance += 1;
        let chosen = self.synod.propose(inst, cmd, out);
        self.learned(inst, chosen, out);
    }

    /// A nack outbidding our proposal in `phase` means a higher ballot
    /// exists: retry phase 1 at once with a larger round for the same
    /// instance and command.
    fn on_nack(&mut self, inst: Instance, promised: Ballot, phase: Phase, out: &mut Outbox<Msg>) {
        if self.synod.outbid(inst, promised) == Some(phase) {
            let chosen = self.synod.restart(inst, out);
            self.learned(inst, chosen, out);
        }
    }

    /// Decides `chosen`, if the Synod chose a value for `inst`.
    fn learned(&mut self, inst: Instance, chosen: Option<Command>, out: &mut Outbox<Msg>) {
        let Some(cmd) = chosen else {
            return;
        };
        let id = cmd.id();
        self.adv.decide(inst, cmd, out);
        // A competing proposer's value won this instance: advocate our
        // command again in a fresh instance (drained on tick).
        if let Some(want) = self.synod.retire(inst).filter(|w| w.id() != id) {
            self.adv.enqueue(want);
        }
    }
}

impl Protocol for BasicPaxosNode {
    type Msg = Msg;

    fn node_id(&self) -> NodeId {
        self.me()
    }

    fn on_start(&mut self, _now: Nanos, out: &mut Outbox<Msg>) {
        out.set_tick(Self::DEFAULT_TICK);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, _now: Nanos, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Forward { cmd } => {
                if self.is_leader() && !self.adv.is_decided(cmd.id()) {
                    self.start_instance(cmd, out);
                }
            }
            Msg::Prepare { inst, bal } => self.synod.on_prepare(from, inst, bal, out),
            Msg::Promise {
                inst,
                bal,
                accepted,
            } => {
                let chosen = self.synod.on_promise(from, inst, bal, accepted, out);
                self.learned(inst, chosen.chosen(), out);
            }
            Msg::PrepareNack { inst, promised } => self.on_nack(inst, promised, Phase::One, out),
            Msg::Accept { inst, bal, cmd } => {
                let chosen = self.synod.on_accept(from, inst, bal, cmd, out);
                self.learned(inst, chosen, out);
            }
            Msg::AcceptNack { inst, promised } => self.on_nack(inst, promised, Phase::Two, out),
            Msg::Learn { inst, bal, cmd } => {
                let chosen = self.synod.on_learn(from, inst, bal, cmd);
                self.learned(inst, chosen, out);
            }
        }
    }

    fn on_tick(&mut self, _now: Nanos, out: &mut Outbox<Msg>) {
        // Drain queued undecided commands (one instance each).
        while let Some(cmd) = self.adv.next_undecided() {
            self.start_instance(cmd, out);
        }
        out.set_tick(Self::DEFAULT_TICK);
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        _now: Nanos,
        out: &mut Outbox<Msg>,
    ) {
        let Some(cmd) = self.adv.request(Command::new(client, req_id, op), out) else {
            return;
        };
        if self.is_leader() {
            self.start_instance(cmd, out);
        } else {
            out.send(self.proposer_node, Msg::Forward { cmd });
        }
    }

    fn is_leader(&self) -> bool {
        self.me() == self.proposer_node
    }

    fn instance_of(&self, msg: &Msg) -> Option<Instance> {
        match *msg {
            Msg::Prepare { inst, .. } | Msg::Accept { inst, .. } | Msg::Learn { inst, .. } => {
                Some(inst)
            }
            _ => None,
        }
    }

    fn truncate(&mut self, watermark: Instance) {
        // Every instance below `watermark` is decided here, so proposals
        // for those instances are gone (retired on learn) unless a
        // snapshot install skipped the learns. Re-advocate any that
        // survives; the RSM session layer deduplicates.
        for cmd in self.synod.truncate(watermark) {
            self.adv.enqueue(cmd);
        }
        self.adv.prune(watermark);
        self.next_instance = self.next_instance.max(watermark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::TestNet;

    #[test]
    fn acceptor_promises_monotonically() {
        let mut acc: InstanceAcceptor<u32> = InstanceAcceptor::new();
        assert!(acc.on_prepare(Ballot::new(2, NodeId(0))).is_ok());
        assert_eq!(
            acc.on_prepare(Ballot::new(1, NodeId(1))),
            Err(Ballot::new(2, NodeId(0)))
        );
        assert!(acc.on_prepare(Ballot::new(3, NodeId(1))).is_ok());
    }

    #[test]
    fn acceptor_echoes_accepted_in_promise() {
        let mut acc: InstanceAcceptor<u32> = InstanceAcceptor::new();
        acc.on_prepare(Ballot::new(1, NodeId(0))).unwrap();
        acc.on_accept(Ballot::new(1, NodeId(0)), 42).unwrap();
        let echoed = acc.on_prepare(Ballot::new(2, NodeId(1))).unwrap();
        assert_eq!(echoed, Some((Ballot::new(1, NodeId(0)), 42)));
    }

    #[test]
    fn acceptor_rejects_stale_accept() {
        let mut acc: InstanceAcceptor<u32> = InstanceAcceptor::new();
        acc.on_prepare(Ballot::new(5, NodeId(0))).unwrap();
        assert_eq!(
            acc.on_accept(Ballot::new(4, NodeId(1)), 1),
            Err(Ballot::new(5, NodeId(0)))
        );
        // Equal ballot is fine (the promise holder's own accept).
        assert!(acc.on_accept(Ballot::new(5, NodeId(0)), 1).is_ok());
    }

    #[test]
    fn learner_needs_quorum_of_same_ballot() {
        let mut l: QuorumLearner<u32> = QuorumLearner::new();
        let b1 = Ballot::new(1, NodeId(0));
        let b2 = Ballot::new(2, NodeId(1));
        assert_eq!(l.on_learn(0, NodeId(0), b1, 7, 2), None);
        // A vote under a different ballot does not count toward b1.
        assert_eq!(l.on_learn(0, NodeId(1), b2, 7, 2), None);
        assert_eq!(l.on_learn(0, NodeId(2), b1, 7, 2), Some(7));
        assert_eq!(l.chosen(0), Some(&7));
    }

    #[test]
    fn learner_ignores_duplicate_votes() {
        let mut l: QuorumLearner<u32> = QuorumLearner::new();
        let b = Ballot::new(1, NodeId(0));
        assert_eq!(l.on_learn(0, NodeId(0), b, 7, 2), None);
        assert_eq!(l.on_learn(0, NodeId(0), b, 7, 2), None);
        assert_eq!(l.decided_count(), 0);
    }

    #[test]
    fn learner_contiguous_prefix() {
        let mut l: QuorumLearner<u32> = QuorumLearner::new();
        let b = Ballot::new(1, NodeId(0));
        for inst in [1u64, 2] {
            l.on_learn(inst, NodeId(0), b, 1, 2);
            l.on_learn(inst, NodeId(1), b, 1, 2);
        }
        assert_eq!(l.contiguous_prefix(), 0);
        l.on_learn(0, NodeId(0), b, 1, 2);
        l.on_learn(0, NodeId(1), b, 1, 2);
        assert_eq!(l.contiguous_prefix(), 3);
    }

    #[test]
    #[should_panic(expected = "two different values")]
    fn learner_panics_on_equivocation() {
        let mut l: QuorumLearner<u32> = QuorumLearner::new();
        let b = Ballot::new(1, NodeId(0));
        l.on_learn(0, NodeId(0), b, 7, 2);
        l.on_learn(0, NodeId(1), b, 8, 2);
    }

    fn net(n: u16) -> TestNet<BasicPaxosNode> {
        TestNet::new(n, |m, me| {
            BasicPaxosNode::new(ClusterConfig::new(m.to_vec(), me))
        })
    }

    #[test]
    fn commits_on_all_nodes() {
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        for n in 0..3 {
            assert_eq!(net.commits(NodeId(n)).len(), 1);
        }
        assert_eq!(net.replies().len(), 1);
        net.assert_consistent();
    }

    #[test]
    fn tolerates_one_slow_node() {
        let mut net = net(3);
        net.block(NodeId(2));
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        // Non-blocking: majority {n0, n1} suffices.
        assert_eq!(net.replies().len(), 1);
        assert_eq!(net.commits(NodeId(0)).len(), 1);
        net.unblock(NodeId(2));
        net.run_to_quiescence();
        assert_eq!(net.commits(NodeId(2)).len(), 1);
        net.assert_consistent();
    }

    #[test]
    fn many_commands_commit_in_instance_order() {
        let mut net = net(3);
        for req in 1..=10 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        net.run_to_quiescence();
        let commits = net.commits(NodeId(1));
        assert_eq!(commits.len(), 10);
        for (inst, cmd) in commits {
            assert_eq!(cmd.req_id, inst + 1);
        }
        net.assert_consistent();
    }

    #[test]
    fn forwarded_requests_reach_proposer() {
        let mut net = net(3);
        net.client_request(NodeId(1), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        // The node the client contacted routes the reply.
        assert_eq!(net.replies()[0].from, NodeId(1));
    }

    #[test]
    fn five_nodes_tolerate_two_slow() {
        let mut net = net(5);
        net.block(NodeId(3));
        net.block(NodeId(4));
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        net.assert_consistent();
    }
}
