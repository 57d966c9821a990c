//! Collapsed Multi-Paxos, "arguably the most efficient consensus protocol
//! to date" (§7) and the paper's strongest baseline.
//!
//! "After a proposer p takes the leadership position for one instance, it
//! could be more efficient if p assumes this position for the next Paxos
//! instance as well. The other proposers can still try to become leaders
//! when they suspect that the last leader has failed" (§2.3).
//!
//! Every node plays all three roles (proposer, acceptor, learner —
//! "Collapsed Paxos", §2.3 footnote 5). The stable leader skips phase 1
//! and sends one `accept` per command; each acceptor broadcasts a `learn`
//! to every learner, which learns on a majority of same-ballot votes. With
//! three nodes this costs 8 inter-replica messages per command — the count
//! behind Multi-Paxos's early saturation on a many-core (Fig 2, Fig 8).
//!
//! Bootstrap: all nodes start with the configured initial leader already
//! elected at ballot `(1, leader)`, modelling the steady state the paper
//! measures; failover runs a real phase 1.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::basic_paxos::QuorumLearner;
use crate::config::ClusterConfig;
use crate::failure::FailureDetector;
use crate::outbox::{Outbox, Timer};
use crate::protocol::Protocol;
use crate::types::{Ballot, Command, Instance, Nanos, NodeId, Op};

/// Wire messages of collapsed Multi-Paxos.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Forward a client command to the leader.
    Forward {
        /// The advocated command.
        cmd: Command,
    },
    /// Phase-1 request covering all instances at or above `from_inst`.
    Prepare {
        /// The candidate's ballot.
        bal: Ballot,
        /// First instance the candidate needs state for.
        from_inst: Instance,
    },
    /// Phase-1 response carrying the accepted suffix.
    Promise {
        /// The promised ballot.
        bal: Ballot,
        /// Accepted proposals at or above the requested instance.
        accepted: Vec<(Instance, Ballot, Command)>,
    },
    /// Phase-1 refusal with the higher promised ballot.
    PrepareNack {
        /// The acceptor's promised ballot.
        promised: Ballot,
    },
    /// Phase-2 request for one instance.
    Accept {
        /// The leader's ballot.
        bal: Ballot,
        /// Target instance.
        inst: Instance,
        /// Proposed command.
        cmd: Command,
    },
    /// Phase-2 refusal with the higher promised ballot.
    AcceptNack {
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
    /// Leader liveness beacon.
    Heartbeat {
        /// The leader's ballot.
        bal: Ballot,
    },
}

/// Timing knobs (tick period and leader-suspicion timeout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Maintenance tick period.
    pub tick: Nanos,
    /// Silence after which the leader is suspected.
    pub suspect_after: Nanos,
}

impl Default for Timing {
    /// 100 µs tick, 2 ms suspicion — appropriate for the paper's
    /// microsecond-scale network.
    fn default() -> Self {
        Timing {
            tick: 100_000,
            suspect_after: 2_000_000,
        }
    }
}

#[derive(Debug)]
struct Electing {
    bal: Ballot,
    /// The first instance the prepare asked acceptors about.
    from: Instance,
    promises: BTreeSet<NodeId>,
    /// Highest-ballot accepted proposal per instance, from promises.
    prior: BTreeMap<Instance, (Ballot, Command)>,
}

/// A collapsed Multi-Paxos node.
///
/// # Examples
///
/// ```
/// use onepaxos::multipaxos::MultiPaxosNode;
/// use onepaxos::testnet::TestNet;
/// use onepaxos::{ClusterConfig, NodeId, Op};
///
/// let mut net = TestNet::new(3, |m, me| {
///     MultiPaxosNode::new(ClusterConfig::new(m.to_vec(), me))
/// });
/// net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
/// net.run_to_quiescence();
/// assert_eq!(net.replies().len(), 1);
/// net.assert_consistent();
/// ```
#[derive(Debug)]
pub struct MultiPaxosNode {
    cfg: ClusterConfig,
    timing: Timing,
    /// Acceptor: highest promised ballot.
    promised: Ballot,
    /// Acceptor: accepted proposal per instance.
    accepted: BTreeMap<Instance, (Ballot, Command)>,
    /// Learner.
    learner: QuorumLearner<Command>,
    /// Command id → instance for every decided command (re-proposal
    /// dedup for retries and re-forwards).
    decided_ids: BTreeMap<(NodeId, u64), Instance>,
    /// Contiguous chosen prefix (next instance expected to be decided).
    watermark: Instance,
    /// Proposer.
    leading: bool,
    leader: Option<NodeId>,
    next_instance: Instance,
    proposed: BTreeMap<Instance, Command>,
    queue: VecDeque<Command>,
    /// Commands forwarded to the leader with forwarding time: if they are
    /// not decided within the suspicion timeout, the leader is slow even
    /// if its heartbeats still trickle in — the demand-driven detection
    /// of §7.6.
    forwarded: BTreeMap<(NodeId, u64), (Command, Nanos)>,
    electing: Option<Electing>,
    my_clients: BTreeSet<(NodeId, u64)>,
    fd: FailureDetector,
    noop_seq: u64,
}

impl MultiPaxosNode {
    /// Creates a node with [`Timing::default`]; `cfg.initial_leader()`
    /// starts as the established leader.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::with_timing(cfg, Timing::default())
    }

    /// Creates a node with explicit timing knobs.
    pub fn with_timing(cfg: ClusterConfig, timing: Timing) -> Self {
        let leader = cfg.initial_leader();
        let leading = cfg.me() == leader;
        let fd = FailureDetector::new(timing.suspect_after);
        MultiPaxosNode {
            promised: Ballot::new(1, leader),
            accepted: BTreeMap::new(),
            learner: QuorumLearner::new(),
            decided_ids: BTreeMap::new(),
            watermark: 0,
            leading,
            leader: Some(leader),
            next_instance: 0,
            proposed: BTreeMap::new(),
            queue: VecDeque::new(),
            forwarded: BTreeMap::new(),
            electing: None,
            my_clients: BTreeSet::new(),
            fd,
            noop_seq: 0,
            cfg,
            timing,
        }
    }

    fn me(&self) -> NodeId {
        self.cfg.me()
    }

    /// The contiguous decided prefix (all instances below are committed).
    pub fn watermark(&self) -> Instance {
        self.watermark
    }

    /// Number of commands waiting for a leader.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Proposes `cmd` in a fresh instance (leader only). A command that is
    /// already decided is answered (if we owe its client a reply) instead
    /// of being re-proposed.
    fn propose(&mut self, cmd: Command, out: &mut Outbox<Msg>) {
        debug_assert!(self.leading);
        if let Some(&inst) = self.decided_ids.get(&cmd.id()) {
            if self.my_clients.remove(&cmd.id()) {
                out.reply(cmd.client, cmd.req_id, inst);
            }
            return;
        }
        let inst = self.next_instance;
        self.next_instance += 1;
        self.proposed.insert(inst, cmd.clone());
        let bal = self.promised;
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Accept {
                    bal,
                    inst,
                    cmd: cmd.clone(),
                },
            );
        }
        self.accept_locally(inst, bal, cmd, out);
    }

    /// The local acceptor accepts and broadcasts its learn.
    fn accept_locally(&mut self, inst: Instance, bal: Ballot, cmd: Command, out: &mut Outbox<Msg>) {
        self.accepted.insert(inst, (bal, cmd.clone()));
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
        self.on_learn_vote(self.me(), inst, bal, cmd, out);
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
            self.decided_ids.entry(id).or_insert(inst);
            self.forwarded.remove(&id);
            if let Some(pinned) = self.proposed.remove(&inst) {
                // Our proposal lost the slot to another leader's command:
                // re-advocate it instead of dropping it.
                if pinned.id() != id && !self.decided_ids.contains_key(&pinned.id()) {
                    self.queue.push_back(pinned);
                }
            }
            while self.learner.chosen(self.watermark).is_some() {
                self.watermark += 1;
            }
            if self.my_clients.remove(&id) {
                out.reply(id.0, id.1, inst);
            }
        }
    }

    /// Starts phase 1 with a ballot above everything seen.
    fn start_election(&mut self, out: &mut Outbox<Msg>) {
        let bal = self.promised.next_for(self.me());
        let from_inst = self.watermark;
        self.electing = Some(Electing {
            bal,
            from: from_inst,
            promises: BTreeSet::new(),
            prior: BTreeMap::new(),
        });
        for peer in self.cfg.others() {
            out.send(peer, Msg::Prepare { bal, from_inst });
        }
        // Local acceptor promises immediately (bal > promised by
        // construction).
        self.promised = bal;
        let accepted = self.accepted_suffix(from_inst);
        self.on_promise(self.me(), bal, accepted, out);
    }

    fn accepted_suffix(&self, from_inst: Instance) -> Vec<(Instance, Ballot, Command)> {
        self.accepted
            .range(from_inst..)
            .map(|(&i, (b, c))| (i, *b, c.clone()))
            .collect()
    }

    fn on_promise(
        &mut self,
        from: NodeId,
        bal: Ballot,
        accepted: Vec<(Instance, Ballot, Command)>,
        out: &mut Outbox<Msg>,
    ) {
        let majority = self.cfg.majority();
        let Some(e) = self.electing.as_mut() else {
            return;
        };
        if e.bal != bal {
            return;
        }
        e.promises.insert(from);
        for (inst, abal, cmd) in accepted {
            let better = e.prior.get(&inst).is_none_or(|&(pb, _)| abal > pb);
            if better {
                e.prior.insert(inst, (abal, cmd));
            }
        }
        if e.promises.len() < majority {
            return;
        }
        // Elected.
        let e = self.electing.take().expect("checked above");
        self.leading = true;
        self.leader = Some(self.me());
        let max_prior = e.prior.keys().next_back().copied();
        self.next_instance = self
            .next_instance
            .max(self.watermark)
            .max(max_prior.map_or(0, |i| i + 1));
        // Re-propose prior accepted values under the new ballot, filling
        // gaps with no-ops so the log stays contiguous.
        let start = self.watermark;
        let end = max_prior.map_or(start, |i| i + 1);
        for inst in start..end {
            let cmd = match e.prior.get(&inst) {
                Some((_, cmd)) => cmd.clone(),
                None => {
                    self.noop_seq += 1;
                    Command::noop(self.me(), self.noop_seq)
                }
            };
            self.proposed.insert(inst, cmd.clone());
            for peer in self.cfg.others() {
                out.send(
                    peer,
                    Msg::Accept {
                        bal,
                        inst,
                        cmd: cmd.clone(),
                    },
                );
            }
            self.accept_locally(inst, bal, cmd, out);
        }
        // Drain commands that queued up while electing.
        self.propose_queued(out);
    }

    fn step_down(&mut self, higher: Ballot) {
        if higher > self.promised {
            self.promised = higher;
        }
        self.leading = false;
        self.electing = None;
        self.leader = Some(higher.node);
        // Re-advocate proposals that were still in flight: the new leader
        // may not have seen them. The RSM session layer deduplicates the
        // cases where both copies commit.
        let orphans: Vec<Command> = self.proposed.values().cloned().collect();
        self.proposed.clear();
        self.queue.extend(orphans);
    }

    fn leader_suspected(&self, now: Nanos) -> bool {
        match self.leader {
            Some(l) if l != self.me() => self.fd.suspects(l, now),
            Some(_) => false,
            None => true,
        }
    }

    /// Proposes every queued command in a fresh instance (leader only).
    fn propose_queued(&mut self, out: &mut Outbox<Msg>) {
        for cmd in std::mem::take(&mut self.queue) {
            self.propose(cmd, out);
        }
    }
}

impl Protocol for MultiPaxosNode {
    type Msg = Msg;

    fn node_id(&self) -> NodeId {
        self.cfg.me()
    }

    fn on_start(&mut self, now: Nanos, out: &mut Outbox<Msg>) {
        for peer in self.cfg.others() {
            self.fd.reset(peer, now);
        }
        out.set_timer(Timer::Tick, self.timing.tick);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, now: Nanos, out: &mut Outbox<Msg>) {
        self.fd.heard(from, now);
        match msg {
            Msg::Forward { cmd } => {
                // The node the client contacted owns the reply; the leader
                // only advocates the command.
                if self.leading {
                    self.propose(cmd, out);
                } else {
                    // Not the leader (any more): queue; the tick will
                    // re-forward or take over.
                    self.queue.push_back(cmd);
                }
            }
            Msg::Prepare { bal, from_inst } => {
                if bal > self.promised {
                    self.promised = bal;
                    if self.leading || self.electing.is_some() {
                        self.step_down(bal);
                    }
                    self.leader = Some(from);
                    let accepted = self.accepted_suffix(from_inst);
                    out.send(from, Msg::Promise { bal, accepted });
                } else {
                    out.send(
                        from,
                        Msg::PrepareNack {
                            promised: self.promised,
                        },
                    );
                }
            }
            Msg::Promise { bal, accepted } => {
                self.on_promise(from, bal, accepted, out);
            }
            Msg::PrepareNack { promised } | Msg::AcceptNack { promised } => {
                if promised > self.promised {
                    self.step_down(promised);
                }
            }
            Msg::Accept { bal, inst, cmd } => {
                if bal >= self.promised {
                    if self.leading && from != self.me() {
                        self.step_down(bal);
                    }
                    self.promised = bal;
                    self.leader = Some(from);
                    self.accept_locally(inst, bal, cmd, out);
                } else {
                    out.send(
                        from,
                        Msg::AcceptNack {
                            promised: self.promised,
                        },
                    );
                }
            }
            Msg::Learn { inst, bal, cmd } => {
                self.on_learn_vote(from, inst, bal, cmd, out);
            }
            Msg::Heartbeat { bal } => {
                if bal >= self.promised {
                    if self.leading && from != self.me() {
                        self.step_down(bal);
                    }
                    self.promised = bal;
                    self.leader = Some(from);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, now: Nanos, out: &mut Outbox<Msg>) {
        if timer != Timer::Tick {
            return;
        }
        if self.leading {
            let bal = self.promised;
            for peer in self.cfg.others() {
                out.send(peer, Msg::Heartbeat { bal });
            }
            // Commands re-queued while leading (truncated or lost slots).
            self.propose_queued(out);
        } else {
            // Demand-driven suspicion (§7.6): forwarded commands that the
            // leader has not decided within the timeout mean the leader is
            // too slow, even if heartbeats still trickle in.
            let stalled = self
                .forwarded
                .values()
                .any(|&(_, t)| now.saturating_sub(t) > self.timing.suspect_after);
            if stalled {
                let reclaimed: Vec<Command> =
                    self.forwarded.values().map(|(c, _)| c.clone()).collect();
                self.forwarded.clear();
                self.queue.extend(reclaimed);
                if self.electing.is_none() {
                    self.start_election(out);
                }
            } else if !self.queue.is_empty() {
                if self.leader_suspected(now) {
                    if self.electing.is_none() {
                        self.start_election(out);
                    }
                } else if let Some(leader) = self.leader {
                    // Re-forward queued commands to the (new) leader.
                    for cmd in std::mem::take(&mut self.queue) {
                        if self.decided_ids.contains_key(&cmd.id()) {
                            continue;
                        }
                        self.forwarded.insert(cmd.id(), (cmd.clone(), now));
                        out.send(leader, Msg::Forward { cmd });
                    }
                }
            }
        }
        out.set_timer(Timer::Tick, self.timing.tick);
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        out: &mut Outbox<Msg>,
    ) {
        let cmd = Command::new(client, req_id, op);
        self.my_clients.insert(cmd.id());
        if self.leading {
            self.propose(cmd, out);
        } else if !self.leader_suspected(now) {
            if let Some(leader) = self.leader {
                self.forwarded.insert(cmd.id(), (cmd.clone(), now));
                out.send(leader, Msg::Forward { cmd });
                return;
            }
            self.queue.push_back(cmd);
        } else {
            // "After receiving the clients' request, the non-leader node
            // tries to become leader" (§7.6, for 1Paxos; Multi-Paxos
            // behaves identically here).
            self.queue.push_back(cmd);
            if self.electing.is_none() {
                self.start_election(out);
            }
        }
    }

    fn is_leader(&self) -> bool {
        self.leading
    }

    fn leader_hint(&self) -> Option<NodeId> {
        self.leader
    }

    fn instance_of(&self, msg: &Msg) -> Option<Instance> {
        match *msg {
            Msg::Prepare { from_inst, .. } => Some(from_inst),
            Msg::Accept { inst, .. } | Msg::Learn { inst, .. } => Some(inst),
            _ => None,
        }
    }

    /// Drops all per-instance state below `watermark` and fast-forwards
    /// past it. Proposals pinned below the floor that are not known
    /// decided are queued and re-advocated in fresh instances on the
    /// next tick; the RSM session layer deduplicates. An election whose
    /// prepare asked about instances below the floor can no longer
    /// gather promises: it is abandoned, and the tick restarts one from
    /// the new watermark.
    fn truncate(&mut self, watermark: Instance) {
        // Re-advocate pinned-but-undecided proposals from truncated slots
        // *before* pruning the dedup map that filters them.
        let keep = self.proposed.split_off(&watermark);
        let orphans: Vec<Command> = std::mem::replace(&mut self.proposed, keep)
            .into_values()
            .filter(|c| !self.decided_ids.contains_key(&c.id()))
            .collect();
        self.queue.extend(orphans);
        self.accepted = self.accepted.split_off(&watermark);
        self.learner.truncate(watermark);
        self.decided_ids.retain(|_, &mut inst| inst >= watermark);
        self.watermark = self.watermark.max(watermark);
        while self.learner.chosen(self.watermark).is_some() {
            self.watermark += 1;
        }
        self.next_instance = self.next_instance.max(watermark);
        if self.electing.as_ref().is_some_and(|e| e.from < watermark) {
            self.electing = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::TestNet;

    fn net(n: u16) -> TestNet<MultiPaxosNode> {
        TestNet::new(n, |m, me| {
            MultiPaxosNode::new(ClusterConfig::new(m.to_vec(), me))
        })
    }

    #[test]
    fn steady_state_commit() {
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        for n in 0..3 {
            assert_eq!(net.commits(NodeId(n)).len(), 1);
        }
        net.assert_consistent();
    }

    #[test]
    fn message_count_per_commit_matches_paper() {
        // §7.2/§4.3: 2 accepts + 3 acceptors × 2 learn broadcasts = 8
        // inter-replica messages per commit on three nodes.
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.delivered(), 8);
    }

    #[test]
    fn progresses_with_one_slow_node() {
        let mut net = net(3);
        net.block(NodeId(2));
        for req in 1..=5 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 5);
        net.unblock(NodeId(2));
        net.run_to_quiescence();
        assert_eq!(net.commits(NodeId(2)).len(), 5);
        net.assert_consistent();
    }

    #[test]
    fn pipelines_concurrent_instances() {
        let mut net = net(3);
        for req in 1..=10 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        // All accepts are already in flight before any learn returns.
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 10);
        assert_eq!(net.node(NodeId(0)).watermark(), 10);
        net.assert_consistent();
    }

    #[test]
    fn leader_re_advocates_truncated_orphans_on_its_tick() {
        // Nothing of instance 0 lands anywhere (it would have fallen
        // below the acceptors' floor), and the floor rises past it: the
        // leader's next tick must re-propose the command above the floor
        // without waiting for another client request.
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        for peer in [NodeId(1), NodeId(2)] {
            assert!(net.drop_one(NodeId(0), peer)); // Accept
            assert!(net.drop_one(NodeId(0), peer)); // Learn
        }
        net.node_mut(NodeId(0)).truncate(1);
        net.advance_and_settle(Timing::default().tick, 1);
        assert_eq!(net.replies().len(), 1);
        assert_eq!(net.replies()[0].instance, 1);
    }

    #[test]
    fn leader_failover_elects_new_leader_and_preserves_commits() {
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        // Leader becomes slow.
        net.block(NodeId(0));
        // Client re-targets n1; n1 suspects after the timeout and elects
        // itself.
        net.advance(Timing::default().suspect_after + 1);
        net.client_request(NodeId(1), NodeId(9), 2, Op::Noop);
        net.advance_and_settle(Timing::default().tick, 4);
        assert!(net.node(NodeId(1)).is_leader());
        assert_eq!(net.replies().len(), 2);
        // The slow core comes back; it learns the new state.
        net.unblock(NodeId(0));
        net.advance_and_settle(Timing::default().tick, 4);
        assert!(!net.node(NodeId(0)).is_leader());
        assert_eq!(net.commits(NodeId(0)).len(), 2);
        net.assert_consistent();
    }

    #[test]
    fn new_leader_recovers_uncommitted_proposals() {
        let mut net = net(3);
        // The leader's accept reaches n1, but every other protocol message
        // of this instance is delayed indefinitely (slow leader): the
        // command is accepted at n1 yet chosen nowhere.
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        assert!(net.deliver_one(NodeId(0), NodeId(1))); // Accept → n1
        assert!(net.drop_one(NodeId(0), NodeId(1))); // n0's Learn → n1
        assert!(net.drop_one(NodeId(0), NodeId(2))); // Accept → n2
        assert!(net.drop_one(NodeId(0), NodeId(2))); // n0's Learn → n2
        assert!(net.drop_one(NodeId(1), NodeId(2))); // n1's Learn → n2
        assert!(net.drop_one(NodeId(1), NodeId(0))); // n1's Learn → n0
        net.block(NodeId(0));
        assert!(net.commits(NodeId(1)).is_empty());
        // n1 suspects the leader and takes over; phase 1 must surface the
        // accepted-but-unchosen proposal, which n1 re-proposes before its
        // own command (Paxos safety).
        net.advance(Timing::default().suspect_after + 1);
        net.client_request(NodeId(1), NodeId(9), 2, Op::Noop);
        net.advance_and_settle(Timing::default().tick, 6);
        net.assert_consistent();
        let commits = net.commits(NodeId(1));
        let inst_of = |req: u64| {
            commits
                .iter()
                .find(|(_, c)| c.req_id == req && c.client == NodeId(9))
                .map(|(&i, _)| i)
        };
        let (i1, i2) = (inst_of(1).unwrap(), inst_of(2).unwrap());
        assert!(i1 < i2, "recovered proposal must keep its earlier slot");
    }

    #[test]
    fn returning_old_leader_steps_down_on_nack() {
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        net.block(NodeId(0));
        net.advance(Timing::default().suspect_after + 1);
        net.client_request(NodeId(1), NodeId(9), 2, Op::Noop);
        net.advance_and_settle(Timing::default().tick, 4);
        assert!(net.node(NodeId(1)).is_leader());
        // Old leader wakes and tries to propose with its stale ballot.
        net.unblock(NodeId(0));
        net.client_request(NodeId(0), NodeId(9), 3, Op::Noop);
        net.advance_and_settle(Timing::default().tick, 6);
        assert!(!net.node(NodeId(0)).is_leader());
        net.assert_consistent();
        // Request 3 eventually commits via the new leader (re-forwarded).
        assert!(net
            .commits(NodeId(1))
            .values()
            .any(|c| c.req_id == 3 && c.client == NodeId(9)));
    }

    #[test]
    fn five_node_cluster_survives_two_slow() {
        let mut net = net(5);
        net.block(NodeId(3));
        net.block(NodeId(4));
        for req in 1..=3 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 3);
        net.assert_consistent();
    }

    #[test]
    fn forward_to_leader_from_follower() {
        let mut net = net(3);
        net.client_request(NodeId(2), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        assert_eq!(net.replies()[0].from, NodeId(2));
        net.assert_consistent();
    }
}
