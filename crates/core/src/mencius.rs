//! Mencius-style multi-leader consensus (§8 related work), as an
//! extension baseline.
//!
//! "Mencius was derived from Multi-Paxos to distribute the load of client
//! commands among multiple leaders. [...] it partitions the space of
//! Paxos instance numbers among the leaders: each leader proposes the
//! received client commands only for its range of instance numbers.
//! [...] The under-loaded leaders also have to skip their share of the
//! instance space" (§8).
//!
//! This implementation captures exactly the behaviour the paper discusses
//! when comparing Mencius to 1Paxos:
//!
//! * instance `i` is owned by node `members[i mod n]`; the owner proposes
//!   in its slots without a phase 1 (implicitly promised ballots);
//! * balanced client load spreads the leader work over all cores — the
//!   scalability benefit;
//! * under *unbalanced* load the idle leaders must continuously propose
//!   `skip` no-ops to let the log advance, which costs the very messages
//!   the many-core cannot spare — the §8 critique, measurable with the
//!   `ablation_mencius` bench target.
//!
//! Scope: the failure-free path only (no slot revocation); the owner of a
//! slot is its only proposer. This suffices for the paper's
//! throughput-oriented comparison; fault tolerance in Mencius requires
//! the revocation machinery of the original paper and is out of scope.

use std::collections::{BTreeMap, BTreeSet};

use crate::basic_paxos::QuorumLearner;
use crate::config::ClusterConfig;
use crate::outbox::{Outbox, Timer};
use crate::protocol::Protocol;
use crate::types::{Ballot, Command, Instance, Nanos, NodeId, Op};

/// Wire messages of the Mencius-style protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Owner → acceptors proposal for one of its slots.
    Accept {
        /// The slot (owned by the sender).
        inst: Instance,
        /// Proposed command (a no-op for skips).
        cmd: Command,
    },
    /// Acceptor → learners acceptance broadcast.
    Learn {
        /// The slot.
        inst: Instance,
        /// Accepted command.
        cmd: Command,
    },
}

/// A Mencius participant: every node is a leader for its own slot range.
///
/// # Examples
///
/// ```
/// use onepaxos::mencius::MenciusNode;
/// use onepaxos::testnet::TestNet;
/// use onepaxos::{ClusterConfig, NodeId, Op};
///
/// let mut net = TestNet::new(3, |m, me| {
///     MenciusNode::new(ClusterConfig::new(m.to_vec(), me))
/// });
/// // Each node advocates its own clients' commands in its own slots.
/// net.client_request(NodeId(0), NodeId(7), 1, Op::Noop);
/// net.client_request(NodeId(1), NodeId(8), 1, Op::Noop);
/// net.run_to_quiescence();
/// assert_eq!(net.replies().len(), 2);
/// net.assert_consistent();
/// ```
#[derive(Debug)]
pub struct MenciusNode {
    cfg: ClusterConfig,
    /// Next unused own slot.
    next_own: Instance,
    /// Highest slot seen proposed anywhere (drives skip production).
    max_seen: Instance,
    /// Acceptor state: accepted command per slot (the implicit ballot is
    /// `(1, owner)`; without revocation no other ballot ever appears).
    accepted: BTreeMap<Instance, Command>,
    learner: QuorumLearner<Command>,
    watermark: Instance,
    my_clients: BTreeSet<(NodeId, u64)>,
    decided_ids: BTreeMap<(NodeId, u64), Instance>,
    /// Skips this node has proposed (for tests/metrics).
    skips_proposed: u64,
    tick_period: Nanos,
}

impl MenciusNode {
    /// Default maintenance tick (drives skip production): 100 µs.
    pub const DEFAULT_TICK: Nanos = 100_000;

    /// Creates a participant for `cfg`.
    pub fn new(cfg: ClusterConfig) -> Self {
        let my_idx = cfg
            .members()
            .iter()
            .position(|&m| m == cfg.me())
            .expect("validated by ClusterConfig");
        MenciusNode {
            next_own: my_idx as Instance,
            max_seen: 0,
            accepted: BTreeMap::new(),
            learner: QuorumLearner::new(),
            watermark: 0,
            my_clients: BTreeSet::new(),
            decided_ids: BTreeMap::new(),
            skips_proposed: 0,
            tick_period: Self::DEFAULT_TICK,
            cfg,
        }
    }

    /// The owner of slot `inst`.
    pub fn owner(&self, inst: Instance) -> NodeId {
        self.cfg.members()[(inst % self.cfg.len() as Instance) as usize]
    }

    /// Number of skip no-ops this node has proposed so far (§8: the cost
    /// of unbalanced load).
    pub fn skips_proposed(&self) -> u64 {
        self.skips_proposed
    }

    /// Contiguous decided prefix.
    pub fn watermark(&self) -> Instance {
        self.watermark
    }

    fn me(&self) -> NodeId {
        self.cfg.me()
    }

    fn slot_ballot(&self, inst: Instance) -> Ballot {
        Ballot::new(1, self.owner(inst))
    }

    /// Proposes `cmd` in this node's next own slot.
    fn propose_own(&mut self, cmd: Command, out: &mut Outbox<Msg>) {
        let inst = self.next_own;
        self.next_own += self.cfg.len() as Instance;
        self.max_seen = self.max_seen.max(inst);
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Accept {
                    inst,
                    cmd: cmd.clone(),
                },
            );
        }
        self.accept_locally(inst, cmd, out);
    }

    fn accept_locally(&mut self, inst: Instance, cmd: Command, out: &mut Outbox<Msg>) {
        self.accepted.insert(inst, cmd.clone());
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Learn {
                    inst,
                    cmd: cmd.clone(),
                },
            );
        }
        self.on_learn_vote(self.me(), inst, cmd, out);
    }

    fn on_learn_vote(&mut self, from: NodeId, inst: Instance, cmd: Command, out: &mut Outbox<Msg>) {
        let quorum = self.cfg.majority();
        let bal = self.slot_ballot(inst);
        if let Some(chosen) = self.learner.on_learn(inst, from, bal, cmd, quorum) {
            let id = chosen.id();
            out.commit(inst, chosen);
            self.decided_ids.entry(id).or_insert(inst);
            while self.learner.chosen(self.watermark).is_some() {
                self.watermark += 1;
            }
            if self.my_clients.remove(&id) {
                out.reply(id.0, id.1, inst);
            }
        }
    }

    /// Fills this node's owed slots below the frontier with skips, so the
    /// log stays contiguous ("the under-loaded leaders have to skip their
    /// share of the instance space", §8).
    fn produce_skips(&mut self, out: &mut Outbox<Msg>) {
        while self.next_own < self.max_seen {
            self.skips_proposed += 1;
            let skip = Command::new(self.me(), u64::MAX - self.skips_proposed, Op::Noop);
            self.propose_own(skip, out);
        }
    }
}

impl Protocol for MenciusNode {
    type Msg = Msg;

    fn node_id(&self) -> NodeId {
        self.cfg.me()
    }

    fn on_start(&mut self, _now: Nanos, out: &mut Outbox<Msg>) {
        out.set_timer(Timer::Tick, self.tick_period);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, _now: Nanos, out: &mut Outbox<Msg>) {
        match msg {
            Msg::Accept { inst, cmd } => {
                // Only the slot owner may propose (implicit promise).
                if from != self.owner(inst) {
                    return;
                }
                self.max_seen = self.max_seen.max(inst);
                self.accept_locally(inst, cmd, out);
            }
            Msg::Learn { inst, cmd } => {
                self.max_seen = self.max_seen.max(inst);
                self.on_learn_vote(from, inst, cmd, out);
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, _now: Nanos, out: &mut Outbox<Msg>) {
        if timer == Timer::Tick {
            self.produce_skips(out);
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
        if let Some(&inst) = self.decided_ids.get(&cmd.id()) {
            out.reply(client, req_id, inst);
            return;
        }
        self.my_clients.insert(cmd.id());
        // Multi-leader: this node advocates the command in its own slots,
        // no forwarding.
        self.propose_own(cmd, out);
    }

    /// Every Mencius node leads its own slot range.
    fn is_leader(&self) -> bool {
        true
    }

    fn leader_hint(&self) -> Option<NodeId> {
        Some(self.me())
    }

    fn instance_of(&self, msg: &Msg) -> Option<Instance> {
        match *msg {
            Msg::Accept { inst, .. } | Msg::Learn { inst, .. } => Some(inst),
        }
    }

    fn truncate(&mut self, watermark: Instance) {
        self.accepted = self.accepted.split_off(&watermark);
        self.learner.truncate(watermark);
        self.decided_ids.retain(|_, &mut inst| inst >= watermark);
        self.watermark = self.watermark.max(watermark);
        while self.learner.chosen(self.watermark).is_some() {
            self.watermark += 1;
        }
        self.max_seen = self.max_seen.max(watermark);
        // Keep `next_own` on this node's slot residue while jumping past
        // the floor (all own slots below it are decided, hence proposed).
        let n = self.cfg.len() as Instance;
        while self.next_own < watermark {
            self.next_own += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::TestNet;

    fn net(n: u16) -> TestNet<MenciusNode> {
        TestNet::new(n, |m, me| {
            MenciusNode::new(ClusterConfig::new(m.to_vec(), me))
        })
    }

    #[test]
    fn slot_ownership_partitions_the_space() {
        let node = MenciusNode::new(ClusterConfig::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            NodeId(1),
        ));
        assert_eq!(node.owner(0), NodeId(0));
        assert_eq!(node.owner(1), NodeId(1));
        assert_eq!(node.owner(5), NodeId(2));
        assert_eq!(node.next_own, 1);
    }

    #[test]
    fn balanced_load_commits_on_all_nodes() {
        let mut net = net(3);
        for n in 0..3u16 {
            net.client_request(NodeId(n), NodeId(100 + n), 1, Op::Noop);
        }
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 3);
        // Slots 0,1,2 all decided; watermark = 3 everywhere.
        for n in 0..3 {
            assert_eq!(net.node(NodeId(n)).watermark(), 3);
        }
        net.assert_consistent();
    }

    #[test]
    fn unbalanced_load_forces_skips() {
        let mut net = net(3);
        // All traffic at node 0: its slots are 0, 3, 6, ...
        for req in 1..=5 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 5);
        // The log has holes at n1/n2's slots until their ticks skip them.
        assert!(net.node(NodeId(0)).watermark() < 13);
        net.advance_and_settle(MenciusNode::DEFAULT_TICK, 3);
        // Skips filled the gaps: commands sat at slots 0,3,6,9,12.
        assert_eq!(net.node(NodeId(0)).watermark(), 13);
        assert!(net.node(NodeId(1)).skips_proposed() >= 4);
        assert!(net.node(NodeId(2)).skips_proposed() >= 4);
        net.assert_consistent();
    }

    #[test]
    fn skip_messages_are_the_cost_of_imbalance() {
        // §8: balanced load needs no skips; skewed load pays extra
        // messages for every idle leader's slot.
        let mut balanced = net(3);
        for req in 1..=4 {
            for n in 0..3u16 {
                balanced.client_request(NodeId(n), NodeId(100 + n), req, Op::Noop);
            }
            balanced.run_to_quiescence();
        }
        balanced.advance_and_settle(MenciusNode::DEFAULT_TICK, 3);
        let balanced_msgs = balanced.delivered();

        let mut skewed = net(3);
        for req in 1..=12 {
            skewed.client_request(NodeId(0), NodeId(9), req, Op::Noop);
            skewed.run_to_quiescence();
            skewed.advance_and_settle(MenciusNode::DEFAULT_TICK, 1);
        }
        let skewed_msgs = skewed.delivered();
        assert!(
            skewed_msgs as f64 > balanced_msgs as f64 * 1.5,
            "skew must cost messages: {skewed_msgs} vs {balanced_msgs}"
        );
        balanced.assert_consistent();
        skewed.assert_consistent();
    }

    #[test]
    fn commands_commit_in_slot_order_per_owner() {
        let mut net = net(3);
        for req in 1..=3 {
            net.client_request(NodeId(1), NodeId(8), req, Op::Noop);
        }
        net.run_to_quiescence();
        let commits = net.commits(NodeId(0));
        // n1's commands occupy slots 1, 4, 7 in submission order.
        assert_eq!(commits.get(&1).map(|c| c.req_id), Some(1));
        assert_eq!(commits.get(&4).map(|c| c.req_id), Some(2));
        assert_eq!(commits.get(&7).map(|c| c.req_id), Some(3));
    }

    #[test]
    fn tolerates_one_slow_node_for_chosen_slots() {
        // Quorum learning still works with a slow minority; only the slow
        // node's own slots stay unfilled (no revocation — documented).
        let mut net = net(3);
        net.block(NodeId(2));
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.client_request(NodeId(1), NodeId(8), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 2);
        net.unblock(NodeId(2));
        net.run_to_quiescence();
        net.assert_consistent();
    }

    #[test]
    fn duplicate_request_is_answered_from_decided_ids() {
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 2);
        // But it committed only once.
        let all: Vec<_> = net
            .commits(NodeId(0))
            .values()
            .filter(|c| c.client == NodeId(9))
            .collect();
        assert_eq!(all.len(), 1);
    }
}
