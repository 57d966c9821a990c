//! Single-decree Paxos (the Synod protocol), written once for both places
//! the paper runs it: the Basic-Paxos baseline (§2.3,
//! [`BasicPaxosNode`](crate::basic_paxos::BasicPaxosNode)) and 1Paxos's
//! PaxosUtility, "a separate basic implementation of Paxos" that agrees on
//! the leader and the active acceptor (§5.2).
//!
//! A [`Synod`] is one node's share of every instance it has seen: an
//! [`InstanceAcceptor`] per instance, one [`QuorumLearner`], the ballot
//! round and this node's own open proposals. Roles are collapsed (§2.3
//! footnote 5): the node prepares and accepts locally without a message.
//! Each rule is written here once:
//!
//! * **Answer.** A `Prepare` is answered with a promise that echoes the
//!   accepted proposal, or with a nack carrying the higher promise. An
//!   `Accept` not below the promise is sent as `Learn` to the others and
//!   counted as this node's own vote; otherwise it is nacked.
//! * **Phase 1 → phase 2.** Once a majority promised under a proposal's
//!   ballot, the proposal adopts the highest-ballot prior accepted value
//!   if there is one (Paxos obliges it to finish that value), else keeps
//!   its own; it sends `Accept` to the others and accepts locally.
//! * **Restart.** Phase 1 again for the same instance and wanted value,
//!   under a fresh ballot `(round + 1, me)`; promises and prior are
//!   forgotten.
//! * **Learn.** A value is chosen once a majority accepted it under one
//!   ballot.
//!
//! Each protocol keeps its own policy: which instance to propose in, when
//! a nack or a stall restarts a proposal, and what a chosen value means.
//! Messages are built through [`SynodMsg`], so each protocol keeps its
//! own wire enum.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use crate::config::ClusterConfig;
use crate::outbox::Outbox;
use crate::types::{Ballot, Instance, NodeId};

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

impl<V: Clone + PartialEq + Debug> QuorumLearner<V> {
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
    /// [`Protocol::instance_of`](crate::Protocol::instance_of)).
    pub fn truncate(&mut self, floor: Instance) {
        self.votes = self.votes.split_off(&floor);
        self.chosen = self.chosen.split_off(&floor);
    }
}

impl<V: Clone + PartialEq + Debug> Default for QuorumLearner<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The six Synod messages of one protocol's wire enum.
pub(crate) trait SynodMsg<V> {
    /// Phase-1 request.
    fn prepare(inst: Instance, bal: Ballot) -> Self;
    /// Phase-1 response, echoing any accepted proposal.
    fn promise(inst: Instance, bal: Ballot, accepted: Option<(Ballot, V)>) -> Self;
    /// Phase-1 refusal carrying the higher promised ballot.
    fn prepare_nack(inst: Instance, promised: Ballot) -> Self;
    /// Phase-2 request.
    fn accept(inst: Instance, bal: Ballot, v: V) -> Self;
    /// Phase-2 refusal carrying the higher promised ballot.
    fn accept_nack(inst: Instance, promised: Ballot) -> Self;
    /// Acceptor → learners broadcast of an acceptance.
    fn learn(inst: Instance, bal: Ballot, v: V) -> Self;
}

/// The phase a proposal is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Collecting promises.
    One,
    /// Accept sent.
    Two,
}

/// This node's proposal for one instance.
#[derive(Debug)]
struct Proposal<V> {
    bal: Ballot,
    /// The value this node wants chosen.
    want: V,
    promises: BTreeSet<NodeId>,
    /// Highest-ballot accepted proposal seen in promises; proposed
    /// instead of `want` if present.
    prior: Option<(Ballot, V)>,
    phase: Phase,
}

/// What one delivered promise did.
pub(crate) enum Promised<V> {
    /// No phase-1 proposal of this node under that instance and ballot.
    Stale,
    /// Counted towards phase 1; `Some` when it completed phase 1 and the
    /// local accept then completed a learn quorum.
    Counted(Option<V>),
}

impl<V> Promised<V> {
    /// The value chosen, if any.
    pub(crate) fn chosen(self) -> Option<V> {
        match self {
            Promised::Stale => None,
            Promised::Counted(chosen) => chosen,
        }
    }
}

/// One node's single-decree Paxos state over every instance.
///
/// Each method that can complete a learn quorum returns the chosen value.
#[derive(Debug)]
pub(crate) struct Synod<V> {
    cfg: ClusterConfig,
    round: u32,
    acceptors: BTreeMap<Instance, InstanceAcceptor<V>>,
    learner: QuorumLearner<V>,
    proposals: BTreeMap<Instance, Proposal<V>>,
}

impl<V: Clone + PartialEq + Debug> Synod<V> {
    /// Creates the state of node `cfg.me()`.
    pub(crate) fn new(cfg: ClusterConfig) -> Self {
        Synod {
            cfg,
            round: 0,
            acceptors: BTreeMap::new(),
            learner: QuorumLearner::new(),
            proposals: BTreeMap::new(),
        }
    }

    /// The group this node belongs to.
    pub(crate) fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Proposes `want` for `inst`: phase 1 under a fresh ballot.
    pub(crate) fn propose<M: SynodMsg<V>>(
        &mut self,
        inst: Instance,
        want: V,
        out: &mut Outbox<M>,
    ) -> Option<V> {
        let proposal = Proposal {
            bal: Ballot::ZERO,
            want,
            promises: BTreeSet::new(),
            prior: None,
            phase: Phase::One,
        };
        self.proposals.insert(inst, proposal);
        self.restart(inst, out)
    }

    /// Restarts phase 1 of this node's proposal for `inst`, if it has
    /// one, under a fresh ballot.
    pub(crate) fn restart<M: SynodMsg<V>>(
        &mut self,
        inst: Instance,
        out: &mut Outbox<M>,
    ) -> Option<V> {
        let p = self.proposals.get_mut(&inst)?;
        self.round += 1;
        let bal = Ballot::new(self.round, self.cfg.me());
        p.bal = bal;
        p.promises.clear();
        p.prior = None;
        p.phase = Phase::One;
        for peer in self.cfg.others() {
            out.send(peer, M::prepare(inst, bal));
        }
        let accepted = self.acceptor(inst).on_prepare(bal).ok()?;
        let me = self.cfg.me();
        self.on_promise(me, inst, bal, accepted, out).chosen()
    }

    /// Drops this node's proposal for `inst`, returning the value it
    /// wanted.
    pub(crate) fn retire(&mut self, inst: Instance) -> Option<V> {
        self.proposals.remove(&inst).map(|p| p.want)
    }

    /// The phase of this node's proposal for `inst`, if a nack's
    /// `promised` ballot outbids it.
    pub(crate) fn outbid(&self, inst: Instance, promised: Ballot) -> Option<Phase> {
        let p = self.proposals.get(&inst)?;
        (promised > p.bal).then_some(p.phase)
    }

    /// Raises the ballot round to at least `round`, so the next fresh
    /// ballot clears a ballot a nack reported.
    pub(crate) fn raise_round(&mut self, round: u32) {
        self.round = self.round.max(round);
    }

    /// Acceptor: answers `Prepare(inst, bal)` from `from`.
    pub(crate) fn on_prepare<M: SynodMsg<V>>(
        &mut self,
        from: NodeId,
        inst: Instance,
        bal: Ballot,
        out: &mut Outbox<M>,
    ) {
        let reply = match self.acceptor(inst).on_prepare(bal) {
            Ok(accepted) => M::promise(inst, bal, accepted),
            Err(promised) => M::prepare_nack(inst, promised),
        };
        out.send(from, reply);
    }

    /// Proposer: counts `from`'s promise; a majority moves the proposal
    /// to phase 2.
    pub(crate) fn on_promise<M: SynodMsg<V>>(
        &mut self,
        from: NodeId,
        inst: Instance,
        bal: Ballot,
        accepted: Option<(Ballot, V)>,
        out: &mut Outbox<M>,
    ) -> Promised<V> {
        let majority = self.cfg.majority();
        let Some(p) = self.proposals.get_mut(&inst) else {
            return Promised::Stale;
        };
        if p.bal != bal || p.phase == Phase::Two {
            return Promised::Stale;
        }
        p.promises.insert(from);
        if let Some((abal, v)) = accepted {
            if p.prior.as_ref().is_none_or(|(pb, _)| abal > *pb) {
                p.prior = Some((abal, v));
            }
        }
        if p.promises.len() < majority {
            return Promised::Counted(None);
        }
        p.phase = Phase::Two;
        let v = p.prior.as_ref().map_or(&p.want, |(_, v)| v).clone();
        for peer in self.cfg.others() {
            out.send(peer, M::accept(inst, bal, v.clone()));
        }
        Promised::Counted(self.accept(inst, bal, v, out).unwrap_or(None))
    }

    /// Acceptor: answers `Accept(inst, bal, v)` from `from`.
    pub(crate) fn on_accept<M: SynodMsg<V>>(
        &mut self,
        from: NodeId,
        inst: Instance,
        bal: Ballot,
        v: V,
        out: &mut Outbox<M>,
    ) -> Option<V> {
        self.accept(inst, bal, v, out).unwrap_or_else(|promised| {
            out.send(from, M::accept_nack(inst, promised));
            None
        })
    }

    /// Learner: counts `from`'s acceptance of `(bal, v)` for `inst`.
    pub(crate) fn on_learn(
        &mut self,
        from: NodeId,
        inst: Instance,
        bal: Ballot,
        v: V,
    ) -> Option<V> {
        let quorum = self.cfg.majority();
        self.learner.on_learn(inst, from, bal, v, quorum)
    }

    /// Drops every instance below `floor` (agreed truncation), returning
    /// the wanted values of this node's proposals still open there.
    pub(crate) fn truncate(&mut self, floor: Instance) -> impl Iterator<Item = V> {
        let keep = self.proposals.split_off(&floor);
        let orphans = std::mem::replace(&mut self.proposals, keep);
        self.acceptors = self.acceptors.split_off(&floor);
        self.learner.truncate(floor);
        orphans.into_values().map(|p| p.want)
    }

    fn acceptor(&mut self, inst: Instance) -> &mut InstanceAcceptor<V> {
        self.acceptors
            .entry(inst)
            .or_insert_with(InstanceAcceptor::new)
    }

    /// Accepts `(bal, v)` at the local acceptor: sends `Learn` to the
    /// others and counts this node's own vote. Errs with the higher
    /// promise that refused it.
    fn accept<M: SynodMsg<V>>(
        &mut self,
        inst: Instance,
        bal: Ballot,
        v: V,
        out: &mut Outbox<M>,
    ) -> Result<Option<V>, Ballot> {
        self.acceptor(inst).on_accept(bal, v.clone())?;
        for peer in self.cfg.others() {
            out.send(peer, M::learn(inst, bal, v.clone()));
        }
        let me = self.cfg.me();
        Ok(self.on_learn(me, inst, bal, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;

    /// A test wire enum over `u32` values.
    #[derive(Clone, Debug, PartialEq)]
    enum M {
        Prepare(Instance, Ballot),
        Promise(Instance, Ballot, Option<(Ballot, u32)>),
        PrepareNack(Instance, Ballot),
        Accept(Instance, Ballot, u32),
        AcceptNack(Instance, Ballot),
        Learn(Instance, Ballot, u32),
    }

    impl SynodMsg<u32> for M {
        fn prepare(inst: Instance, bal: Ballot) -> Self {
            M::Prepare(inst, bal)
        }
        fn promise(inst: Instance, bal: Ballot, accepted: Option<(Ballot, u32)>) -> Self {
            M::Promise(inst, bal, accepted)
        }
        fn prepare_nack(inst: Instance, promised: Ballot) -> Self {
            M::PrepareNack(inst, promised)
        }
        fn accept(inst: Instance, bal: Ballot, v: u32) -> Self {
            M::Accept(inst, bal, v)
        }
        fn accept_nack(inst: Instance, promised: Ballot) -> Self {
            M::AcceptNack(inst, promised)
        }
        fn learn(inst: Instance, bal: Ballot, v: u32) -> Self {
            M::Learn(inst, bal, v)
        }
    }

    fn synod(n: u16) -> Synod<u32> {
        Synod::new(ClusterConfig::new((0..n).map(NodeId).collect(), NodeId(0)))
    }

    fn sends(out: &mut Outbox<M>) -> Vec<(u16, M)> {
        out.take()
            .into_iter()
            .map(|a| match a {
                Action::Send { to, msg } => (to.0, msg),
                other => panic!("unexpected action {other:?}"),
            })
            .collect()
    }

    fn b(round: u32, node: u16) -> Ballot {
        Ballot::new(round, NodeId(node))
    }

    #[test]
    fn proposal_prepares_remotely_and_promises_locally() {
        let mut s = synod(3);
        let mut out: Outbox<M> = Outbox::new();
        assert_eq!(s.propose(4, 7, &mut out), None);
        assert_eq!(
            sends(&mut out),
            vec![(1, M::Prepare(4, b(1, 0))), (2, M::Prepare(4, b(1, 0)))]
        );
        // The local promise counted: one more is a majority of three.
        s.on_promise(NodeId(1), 4, b(1, 0), None, &mut out);
        assert_eq!(sends(&mut out)[0], (1, M::Accept(4, b(1, 0), 7)));
    }

    #[test]
    fn phase_two_adopts_the_highest_prior_and_accepts_locally() {
        let mut s = synod(5);
        let mut out: Outbox<M> = Outbox::new();
        s.propose(0, 7, &mut out);
        out.take();
        let bal = b(1, 0);
        let p1 = s.on_promise(NodeId(1), 0, bal, Some((b(1, 1), 5)), &mut out);
        assert!(matches!(p1, Promised::Counted(None)));
        assert!(out.is_empty());
        let p2 = s.on_promise(NodeId(2), 0, bal, Some((b(2, 2), 6)), &mut out);
        assert!(matches!(p2, Promised::Counted(None)));
        let sent = sends(&mut out);
        let accepts: Vec<_> = (1..5).map(|n| (n, M::Accept(0, bal, 6))).collect();
        let learns: Vec<_> = (1..5).map(|n| (n, M::Learn(0, bal, 6))).collect();
        assert_eq!(sent, [accepts, learns].concat());
        // In phase 2 a promise no longer counts.
        assert!(matches!(
            s.on_promise(NodeId(3), 0, bal, None, &mut out),
            Promised::Stale
        ));
        // Two more votes under the same ballot choose the adopted value.
        assert_eq!(s.on_learn(NodeId(1), 0, bal, 6), None);
        assert_eq!(s.on_learn(NodeId(2), 0, bal, 6), Some(6));
        assert_eq!(s.retire(0), Some(7));
    }

    #[test]
    fn restart_uses_a_fresh_ballot_above_a_raised_round() {
        let mut s = synod(3);
        let mut out: Outbox<M> = Outbox::new();
        s.propose(2, 7, &mut out);
        out.take();
        assert_eq!(s.outbid(2, b(1, 0)), None);
        assert_eq!(s.outbid(2, b(9, 1)), Some(Phase::One));
        assert_eq!(s.outbid(3, b(9, 1)), None);
        s.raise_round(9);
        assert_eq!(s.restart(2, &mut out), None);
        assert_eq!(sends(&mut out)[0], (1, M::Prepare(2, b(10, 0))));
        // The old ballot's promises are forgotten.
        assert!(matches!(
            s.on_promise(NodeId(1), 2, b(1, 0), None, &mut out),
            Promised::Stale
        ));
        // No proposal, nothing to restart.
        assert_eq!(s.restart(3, &mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn acceptor_answers_with_a_promise_or_a_nack_and_votes_for_its_accepts() {
        let mut s = synod(3);
        let mut out: Outbox<M> = Outbox::new();
        s.on_prepare(NodeId(1), 0, b(2, 1), &mut out);
        s.on_prepare(NodeId(2), 0, b(1, 2), &mut out);
        assert_eq!(s.on_accept(NodeId(2), 0, b(1, 2), 5, &mut out), None);
        assert_eq!(
            sends(&mut out),
            vec![
                (1, M::Promise(0, b(2, 1), None)),
                (2, M::PrepareNack(0, b(2, 1))),
                (2, M::AcceptNack(0, b(2, 1))),
            ]
        );
        assert_eq!(s.on_accept(NodeId(1), 0, b(2, 1), 6, &mut out), None);
        assert_eq!(
            sends(&mut out),
            vec![(1, M::Learn(0, b(2, 1), 6)), (2, M::Learn(0, b(2, 1), 6))]
        );
        // This node's own vote and one more make a majority of three.
        assert_eq!(s.on_learn(NodeId(1), 0, b(2, 1), 6), Some(6));
        s.on_prepare(NodeId(2), 0, b(3, 2), &mut out);
        assert_eq!(
            sends(&mut out),
            vec![(2, M::Promise(0, b(3, 2), Some((b(2, 1), 6))))]
        );
    }

    #[test]
    fn truncate_hands_back_open_proposals_below_the_floor() {
        let mut s = synod(3);
        let mut out: Outbox<M> = Outbox::new();
        for inst in 0..4 {
            s.propose(inst, 10 + inst as u32, &mut out);
        }
        assert_eq!(s.truncate(2).collect::<Vec<_>>(), vec![10, 11]);
        assert_eq!(s.retire(1), None);
        assert_eq!(s.retire(3), Some(13));
    }
}
