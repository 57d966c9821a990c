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
//! This module provides the reusable single-decree building blocks
//! ([`InstanceAcceptor`], [`QuorumLearner`]) — also the engine behind
//! 1Paxos's *PaxosUtility* — and a complete collapsed deployment
//! ([`BasicPaxosNode`]) that runs both phases for every command, giving
//! the four server-side message delays the paper attributes to
//! Basic-Paxos (§8).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::ClusterConfig;
use crate::outbox::{Outbox, Timer};
use crate::protocol::Protocol;
use crate::types::{Ballot, Command, Instance, Nanos, NodeId, Op};

/// Acceptor state for one Paxos instance: the promise and the accepted
/// proposal. This is the "short-term memory" role of the acceptor (§4.1).
#[derive(Clone, Debug, Default)]
pub struct InstanceAcceptor<V> {
    promised: Ballot,
    accepted: Option<(Ballot, V)>,
}

impl<V: Clone> InstanceAcceptor<V> {
    /// Creates a fresh acceptor (promised = the paper's `-∞`).
    pub fn new() -> Self {
        InstanceAcceptor {
            promised: Ballot::ZERO,
            accepted: None,
        }
    }

    /// Phase-1: handle `prepare(bal)`.
    ///
    /// On success (bal strictly greater than any prior promise) returns the
    /// previously accepted proposal to be echoed in the promise; on failure
    /// returns the higher promised ballot (for a NACK).
    pub fn on_prepare(&mut self, bal: Ballot) -> Result<Option<(Ballot, V)>, Ballot> {
        if bal > self.promised {
            self.promised = bal;
            Ok(self.accepted.clone())
        } else {
            Err(self.promised)
        }
    }

    /// Phase-2: handle `accept(bal, v)`.
    ///
    /// Accepts iff `bal` is at least the promised ballot; returns the
    /// higher promised ballot otherwise.
    pub fn on_accept(&mut self, bal: Ballot, v: V) -> Result<(), Ballot> {
        if bal >= self.promised {
            self.promised = bal;
            self.accepted = Some((bal, v));
            Ok(())
        } else {
            Err(self.promised)
        }
    }

    /// The highest promised ballot.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The accepted proposal, if any.
    pub fn accepted(&self) -> Option<&(Ballot, V)> {
        self.accepted.as_ref()
    }
}

/// Learner that declares a value chosen once a majority of acceptors have
/// reported accepting the *same ballot* for an instance.
#[derive(Clone, Debug)]
pub struct QuorumLearner<V> {
    votes: BTreeMap<Instance, BTreeMap<Ballot, (V, BTreeSet<NodeId>)>>,
    chosen: BTreeMap<Instance, V>,
}

impl<V: Clone + PartialEq + std::fmt::Debug> QuorumLearner<V> {
    /// Creates an empty learner.
    pub fn new() -> Self {
        QuorumLearner {
            votes: BTreeMap::new(),
            chosen: BTreeMap::new(),
        }
    }

    /// Records that acceptor `from` accepted `(bal, v)` for `inst`;
    /// returns the newly chosen value when the `quorum`-th vote arrives
    /// (and `None` on duplicates or if already chosen).
    ///
    /// Votes arriving after the instance is decided are ignored even if
    /// they carry a different value: a *single* stale acceptance under a
    /// lower ballot is legal in Paxos (quorum intersection only forbids a
    /// second majority). End-to-end consistency is asserted at commit
    /// level by the harnesses.
    ///
    /// # Panics
    ///
    /// Panics if two different values gather votes under the *same*
    /// ballot, which only a buggy proposer can produce.
    pub fn on_learn(
        &mut self,
        inst: Instance,
        from: NodeId,
        bal: Ballot,
        v: V,
        quorum: usize,
    ) -> Option<V> {
        if self.chosen.contains_key(&inst) {
            return None;
        }
        let slot = self.votes.entry(inst).or_default();
        let (value, voters) = slot
            .entry(bal)
            .or_insert_with(|| (v.clone(), BTreeSet::new()));
        assert_eq!(
            *value, v,
            "two different values under ballot {bal} for instance {inst}"
        );
        voters.insert(from);
        if voters.len() >= quorum {
            self.chosen.insert(inst, v.clone());
            self.votes.remove(&inst);
            Some(v)
        } else {
            None
        }
    }

    /// The chosen value for `inst`, if decided.
    pub fn chosen(&self, inst: Instance) -> Option<&V> {
        self.chosen.get(&inst)
    }

    /// Number of decided instances.
    pub fn decided_count(&self) -> usize {
        self.chosen.len()
    }

    /// The length of the contiguous decided prefix starting at instance 0.
    pub fn contiguous_prefix(&self) -> Instance {
        let mut n = 0;
        while self.chosen.contains_key(&n) {
            n += 1;
        }
        n
    }

    /// Drops chosen values and pending votes below `floor` (agreed
    /// truncation: everything below is decided, applied and covered by a
    /// snapshot). A truncated instance could gather a quorum a second
    /// time from below-floor votes; inside a replica the engine drops
    /// those before they reach the protocol (see
    /// [`Protocol::instance_of`]).
    pub fn truncate(&mut self, floor: Instance) {
        self.votes = self.votes.split_off(&floor);
        self.chosen = self.chosen.split_off(&floor);
    }
}

impl<V: Clone + PartialEq + std::fmt::Debug> Default for QuorumLearner<V> {
    fn default() -> Self {
        Self::new()
    }
}

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

/// Per-instance proposer bookkeeping.
#[derive(Debug)]
struct ProposerInstance {
    bal: Ballot,
    cmd: Command,
    promises: BTreeSet<NodeId>,
    /// Highest-ballot accepted proposal seen in promises; must be proposed
    /// instead of our own command if present.
    prior: Option<(Ballot, Command)>,
    phase2: bool,
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
    cfg: ClusterConfig,
    proposer_node: NodeId,
    round: u32,
    next_instance: Instance,
    proposing: BTreeMap<Instance, ProposerInstance>,
    queue: VecDeque<Command>,
    acceptors: BTreeMap<Instance, InstanceAcceptor<Command>>,
    learner: QuorumLearner<Command>,
    /// Requests this node received directly from clients, for reply
    /// routing.
    my_clients: BTreeSet<(NodeId, u64)>,
    tick_period: Nanos,
}

impl BasicPaxosNode {
    /// Default maintenance tick period (100 µs).
    pub const DEFAULT_TICK: Nanos = 100_000;

    /// Creates a node; `cfg.initial_leader()` is the (fixed) proposer.
    pub fn new(cfg: ClusterConfig) -> Self {
        let proposer_node = cfg.initial_leader();
        BasicPaxosNode {
            cfg,
            proposer_node,
            round: 0,
            next_instance: 0,
            proposing: BTreeMap::new(),
            queue: VecDeque::new(),
            acceptors: BTreeMap::new(),
            learner: QuorumLearner::new(),
            my_clients: BTreeSet::new(),
            tick_period: Self::DEFAULT_TICK,
        }
    }

    fn me(&self) -> NodeId {
        self.cfg.me()
    }

    fn start_instance(&mut self, cmd: Command, out: &mut Outbox<Msg>) {
        let inst = self.next_instance;
        self.next_instance += 1;
        self.round += 1;
        let bal = Ballot::new(self.round, self.me());
        self.proposing.insert(
            inst,
            ProposerInstance {
                bal,
                cmd,
                promises: BTreeSet::new(),
                prior: None,
                phase2: false,
            },
        );
        // Collapsed roles: prepare locally without a message, remotely via
        // messages.
        for peer in self.cfg.others() {
            out.send(peer, Msg::Prepare { inst, bal });
        }
        self.local_prepare(inst, bal, out);
    }

    fn local_prepare(&mut self, inst: Instance, bal: Ballot, out: &mut Outbox<Msg>) {
        let acc = self
            .acceptors
            .entry(inst)
            .or_insert_with(InstanceAcceptor::new);
        if let Ok(accepted) = acc.on_prepare(bal) {
            let me = self.me();
            self.on_promise(me, inst, bal, accepted, out);
        }
    }

    fn on_promise(
        &mut self,
        from: NodeId,
        inst: Instance,
        bal: Ballot,
        accepted: Option<(Ballot, Command)>,
        out: &mut Outbox<Msg>,
    ) {
        let majority = self.cfg.majority();
        let Some(p) = self.proposing.get_mut(&inst) else {
            return;
        };
        if p.bal != bal || p.phase2 {
            return;
        }
        p.promises.insert(from);
        if let Some((abal, acmd)) = accepted {
            if p.prior.as_ref().is_none_or(|(pb, _)| abal > *pb) {
                p.prior = Some((abal, acmd));
            }
        }
        if p.promises.len() >= majority {
            p.phase2 = true;
            // Non-triviality: propose the highest-ballot accepted value if
            // one exists, else our own command.
            let cmd = p
                .prior
                .clone()
                .map(|(_, c)| c)
                .unwrap_or_else(|| p.cmd.clone());
            let bal = p.bal;
            for peer in self.cfg.others() {
                out.send(
                    peer,
                    Msg::Accept {
                        inst,
                        bal,
                        cmd: cmd.clone(),
                    },
                );
            }
            self.local_accept(inst, bal, cmd, out);
        }
    }

    fn local_accept(&mut self, inst: Instance, bal: Ballot, cmd: Command, out: &mut Outbox<Msg>) {
        let acc = self
            .acceptors
            .entry(inst)
            .or_insert_with(InstanceAcceptor::new);
        if acc.on_accept(bal, cmd.clone()).is_ok() {
            for peer in self.cfg.others() {
                out.send(
                    peer,
                    Msg::Learn {
                        inst,
                        bal,
                        cmd: cmd.clone(),
                    },
                );
            }
            let me = self.me();
            self.on_learn_vote(me, inst, bal, cmd, out);
        }
    }

    fn on_learn_vote(
        &mut self,
        from: NodeId,
        inst: Instance,
        bal: Ballot,
        cmd: Command,
        out: &mut Outbox<Msg>,
    ) {
        let quorum = self.cfg.majority();
        if let Some(chosen) = self.learner.on_learn(inst, from, bal, cmd, quorum) {
            let id = chosen.id();
            out.commit(inst, chosen);
            if let Some(p) = self.proposing.remove(&inst) {
                // A competing proposer's value won this instance: advocate
                // our command again in a fresh instance (drained on tick).
                if p.cmd.id() != id {
                    self.queue.push_back(p.cmd);
                }
            }
            if self.my_clients.remove(&id) {
                out.reply(id.0, id.1, inst);
            }
        }
    }

    fn retry_instance(&mut self, inst: Instance, out: &mut Outbox<Msg>) {
        // A NACK told us a higher ballot exists: retry phase 1 with a
        // larger round for the same instance and command.
        let Some(p) = self.proposing.get_mut(&inst) else {
            return;
        };
        self.round += 1;
        let bal = Ballot::new(self.round, self.cfg.me());
        p.bal = bal;
        p.promises.clear();
        p.prior = None;
        p.phase2 = false;
        for peer in self.cfg.others() {
            out.send(peer, Msg::Prepare { inst, bal });
        }
        self.local_prepare(inst, bal, out);
    }
}

impl Protocol for BasicPaxosNode {
    type Msg = Msg;

    fn node_id(&self) -> NodeId {
        self.cfg.me()
    }

    fn on_start(&mut self, _now: Nanos, out: &mut Outbox<Msg>) {
        out.set_timer(Timer::Tick, self.tick_period);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, _now: Nanos, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Forward { cmd } => {
                if self.me() == self.proposer_node {
                    self.start_instance(cmd, out);
                }
            }
            Msg::Prepare { inst, bal } => {
                let acc = self
                    .acceptors
                    .entry(inst)
                    .or_insert_with(InstanceAcceptor::new);
                match acc.on_prepare(bal) {
                    Ok(accepted) => out.send(
                        from,
                        Msg::Promise {
                            inst,
                            bal,
                            accepted,
                        },
                    ),
                    Err(promised) => out.send(from, Msg::PrepareNack { inst, promised }),
                }
            }
            Msg::Promise {
                inst,
                bal,
                accepted,
            } => {
                self.on_promise(from, inst, bal, accepted, out);
            }
            Msg::PrepareNack { inst, promised } => {
                if self
                    .proposing
                    .get(&inst)
                    .is_some_and(|p| !p.phase2 && promised > p.bal)
                {
                    self.retry_instance(inst, out);
                }
            }
            Msg::Accept { inst, bal, cmd } => {
                let acc = self
                    .acceptors
                    .entry(inst)
                    .or_insert_with(InstanceAcceptor::new);
                match acc.on_accept(bal, cmd.clone()) {
                    Ok(()) => {
                        for peer in self.cfg.others() {
                            out.send(
                                peer,
                                Msg::Learn {
                                    inst,
                                    bal,
                                    cmd: cmd.clone(),
                                },
                            );
                        }
                        let me = self.me();
                        self.on_learn_vote(me, inst, bal, cmd, out);
                    }
                    Err(promised) => out.send(from, Msg::AcceptNack { inst, promised }),
                }
            }
            Msg::AcceptNack { inst, promised } => {
                if self
                    .proposing
                    .get(&inst)
                    .is_some_and(|p| p.phase2 && promised > p.bal)
                {
                    self.retry_instance(inst, out);
                }
            }
            Msg::Learn { inst, bal, cmd } => {
                self.on_learn_vote(from, inst, bal, cmd, out);
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, _now: Nanos, out: &mut Outbox<Msg>) {
        if timer == Timer::Tick {
            // Drain queued commands (one instance each).
            while let Some(cmd) = self.queue.pop_front() {
                self.start_instance(cmd, out);
            }
            out.set_timer(Timer::Tick, self.tick_period);
        }
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        _now: Nanos,
        out: &mut Outbox<Msg>,
    ) {
        let cmd = Command::new(client, req_id, op);
        self.my_clients.insert(cmd.id());
        if self.me() == self.proposer_node {
            self.start_instance(cmd, out);
        } else {
            out.send(self.proposer_node, Msg::Forward { cmd });
        }
    }

    fn is_leader(&self) -> bool {
        self.me() == self.proposer_node
    }

    fn leader_hint(&self) -> Option<NodeId> {
        Some(self.proposer_node)
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
        // Every instance below `watermark` is decided here, so proposer
        // bookkeeping for those instances is gone (removed on learn)
        // unless a snapshot install skipped the learns. Re-advocate any
        // that survives; the RSM session layer deduplicates.
        let keep = self.proposing.split_off(&watermark);
        let orphans = std::mem::replace(&mut self.proposing, keep);
        self.queue.extend(orphans.into_values().map(|p| p.cmd));
        self.acceptors = self.acceptors.split_off(&watermark);
        self.learner.truncate(watermark);
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
        for (&inst, cmd) in commits {
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
