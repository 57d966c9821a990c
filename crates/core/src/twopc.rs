//! 2PC in its *agreement* form, as used by Barrelfish and as the blocking
//! baseline of the paper (§2.2).
//!
//! "In the first phase, the coordinator (the leader) sends a `prepare`
//! message to the replicas. Each replica locks its local copy of data and
//! responds with an `ack` message if it is not already locked by another
//! coordinator. The coordinator starts the second phase by broadcasting a
//! `commit` message to the replicas, but only if it receives an ack from
//! all of them. [...] each replica executes the command of the commit
//! message and releases its lock, which is followed by a `commit ack`
//! message back to the coordinator. Otherwise, the coordinator broadcasts
//! a `rollback` message" (§2.2).
//!
//! The protocol is **blocking**: a round completes only with responses from
//! *all* replicas, so a single slow core stalls every update — the
//! behaviour measured in §2.2 and reproduced by the `sec2_2` experiment.

use std::collections::{BTreeSet, VecDeque};

use crate::config::ClusterConfig;
use crate::outbox::{Outbox, Timer};
use crate::protocol::Protocol;
use crate::types::{Command, Instance, Nanos, NodeId, Op};

/// Wire messages of the 2PC agreement protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// A non-coordinator replica forwards a client command to the
    /// coordinator.
    Forward {
        /// The advocated command.
        cmd: Command,
    },
    /// Phase 1: coordinator asks replicas to lock their copy for `round`.
    Prepare {
        /// Round number; doubles as the commit's instance number.
        round: Instance,
        /// The command being agreed on.
        cmd: Command,
    },
    /// Phase 1 response: the replica locked its copy.
    Ack {
        /// Round being acknowledged.
        round: Instance,
    },
    /// Phase 1 response: the replica's copy is locked by another round.
    Nack {
        /// Round being refused.
        round: Instance,
    },
    /// Phase 2: apply the command and release the lock.
    Commit {
        /// Round to commit.
        round: Instance,
        /// The command to execute.
        cmd: Command,
    },
    /// Phase 2 response.
    CommitAck {
        /// Round whose commit was executed.
        round: Instance,
    },
    /// Abort the round; release the lock without executing.
    Rollback {
        /// Round to abort.
        round: Instance,
    },
}

#[derive(Debug)]
enum Phase {
    /// Waiting for `Ack` from every other replica.
    Preparing { acks: BTreeSet<NodeId> },
    /// Waiting for `CommitAck` from every other replica.
    Committing { acks: BTreeSet<NodeId> },
}

#[derive(Debug)]
struct ActiveRound {
    round: Instance,
    cmd: Command,
    phase: Phase,
    nacked: bool,
}

/// One 2PC participant; the configured initial leader acts as the (fixed)
/// coordinator, matching the paper's deployment where Core 0 coordinates.
///
/// # Examples
///
/// ```
/// use onepaxos::testnet::TestNet;
/// use onepaxos::twopc::TwoPcNode;
/// use onepaxos::{ClusterConfig, NodeId, Op};
///
/// let mut net = TestNet::new(3, |m, me| TwoPcNode::new(ClusterConfig::new(m.to_vec(), me)));
/// net.client_request(NodeId(0), NodeId(7), 1, Op::Noop);
/// net.run_to_quiescence();
/// assert_eq!(net.commits(NodeId(2)).len(), 1);
/// net.assert_consistent();
/// ```
#[derive(Debug)]
pub struct TwoPcNode {
    cfg: ClusterConfig,
    coordinator: NodeId,
    /// Commands waiting for the coordinator's next round.
    pending: VecDeque<Command>,
    active: Option<ActiveRound>,
    next_round: Instance,
    /// Replica-side lock: the `(coordinator, round)` currently holding our
    /// copy.
    locked_by: Option<(NodeId, Instance)>,
    /// Ticks to wait before starting a round after an abort. Contending
    /// coordinators back off proportionally to their node id (deterministic
    /// priority), guaranteeing progress between contenders. Unused in the
    /// paper's single-coordinator deployments.
    backoff_ticks: u32,
    tick_period: Nanos,
}

impl TwoPcNode {
    /// Default maintenance tick period (100 µs).
    pub const DEFAULT_TICK: Nanos = 100_000;

    /// Creates a participant for `cfg`; `cfg.initial_leader()` coordinates.
    pub fn new(cfg: ClusterConfig) -> Self {
        let coordinator = cfg.initial_leader();
        TwoPcNode {
            cfg,
            coordinator,
            pending: VecDeque::new(),
            active: None,
            next_round: 0,
            locked_by: None,
            backoff_ticks: 0,
            tick_period: Self::DEFAULT_TICK,
        }
    }

    /// The fixed coordinator.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// Whether the local replica copy is currently locked (i.e. we are in
    /// the gap between the two phases of a round).
    pub fn is_locked(&self) -> bool {
        self.locked_by.is_some()
    }

    /// Number of commands queued at the coordinator.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    fn me(&self) -> NodeId {
        self.cfg.me()
    }

    fn is_coordinator(&self) -> bool {
        self.me() == self.coordinator
    }

    /// Starts the next round if idle and work is queued.
    fn try_start_round(&mut self, out: &mut Outbox<Msg>) {
        if !self.is_coordinator() || self.active.is_some() || self.backoff_ticks > 0 {
            return;
        }
        // The coordinator's own copy must also be lockable.
        if self.locked_by.is_some() {
            return;
        }
        let Some(cmd) = self.pending.pop_front() else {
            return;
        };
        let round = self.next_round;
        self.next_round += 1;
        // Lock the local copy (the coordinator is itself a replica).
        self.locked_by = Some((self.me(), round));
        self.active = Some(ActiveRound {
            round,
            cmd: cmd.clone(),
            phase: Phase::Preparing {
                acks: BTreeSet::new(),
            },
            nacked: false,
        });
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Prepare {
                    round,
                    cmd: cmd.clone(),
                },
            );
        }
        self.maybe_finish_phase1(out);
    }

    fn maybe_finish_phase1(&mut self, out: &mut Outbox<Msg>) {
        let needed = self.cfg.len() - 1;
        let Some(active) = &mut self.active else {
            return;
        };
        let Phase::Preparing { acks } = &active.phase else {
            return;
        };
        if acks.len() < needed {
            return;
        }
        // All replicas locked: broadcast commit, execute locally.
        let round = active.round;
        let cmd = active.cmd.clone();
        active.phase = Phase::Committing {
            acks: BTreeSet::new(),
        };
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Commit {
                    round,
                    cmd: cmd.clone(),
                },
            );
        }
        out.commit(round, cmd);
        self.locked_by = None;
        self.maybe_finish_phase2(out);
    }

    fn maybe_finish_phase2(&mut self, out: &mut Outbox<Msg>) {
        let needed = self.cfg.len() - 1;
        let Some(active) = &self.active else {
            return;
        };
        let Phase::Committing { acks } = &active.phase else {
            return;
        };
        if acks.len() < needed {
            return;
        }
        let round = active.round;
        let (client, req_id) = active.cmd.id();
        self.active = None;
        out.reply(client, req_id, round);
        self.try_start_round(out);
    }

    fn abort_round(&mut self, out: &mut Outbox<Msg>) {
        let Some(active) = self.active.take() else {
            return;
        };
        for peer in self.cfg.others() {
            out.send(
                peer,
                Msg::Rollback {
                    round: active.round,
                },
            );
        }
        if self.locked_by == Some((self.me(), active.round)) {
            self.locked_by = None;
        }
        self.backoff_ticks = self.me().index() as u32 + 1;
        // Re-advocate the command in a later round.
        self.pending.push_front(active.cmd);
    }
}

impl Protocol for TwoPcNode {
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
                if self.is_coordinator() {
                    self.pending.push_back(cmd);
                    self.try_start_round(out);
                }
                // A non-coordinator silently drops a misdirected forward;
                // the client's retry logic re-targets.
            }
            Msg::Prepare { round, cmd } => {
                if self.locked_by.is_some() {
                    out.send(from, Msg::Nack { round });
                } else {
                    self.locked_by = Some((from, round));
                    let _ = cmd; // executed on Commit
                    out.send(from, Msg::Ack { round });
                }
            }
            Msg::Ack { round } => {
                if let Some(active) = &mut self.active {
                    if active.round == round {
                        if let Phase::Preparing { acks } = &mut active.phase {
                            acks.insert(from);
                        }
                        self.maybe_finish_phase1(out);
                    }
                }
            }
            Msg::Nack { round } => {
                let should_abort = self
                    .active
                    .as_mut()
                    .filter(|a| a.round == round && matches!(a.phase, Phase::Preparing { .. }))
                    .map(|a| {
                        a.nacked = true;
                        true
                    })
                    .unwrap_or(false);
                if should_abort {
                    self.abort_round(out);
                }
            }
            Msg::Commit { round, cmd } => {
                if self.locked_by == Some((from, round)) {
                    self.locked_by = None;
                }
                out.commit(round, cmd);
                out.send(from, Msg::CommitAck { round });
                // Lock released: a co-coordinator with queued work must
                // resume *now*, not on its next maintenance tick — lock
                // windows are reused per transaction fragment, so a
                // tick-long stall per release compounds. `try_start_round`
                // re-checks every guard (active round, backoff, lock,
                // queue) and pops at most one command, so a command
                // arriving exactly at lock release is dispatched exactly
                // once even though the tick path will also call this.
                self.try_start_round(out);
            }
            Msg::CommitAck { round } => {
                if let Some(active) = &mut self.active {
                    if active.round == round {
                        if let Phase::Committing { acks } = &mut active.phase {
                            acks.insert(from);
                        }
                        self.maybe_finish_phase2(out);
                    }
                }
            }
            Msg::Rollback { round } => {
                if self.locked_by == Some((from, round)) {
                    self.locked_by = None;
                }
                // Same dispatch-at-release as `Msg::Commit`.
                self.try_start_round(out);
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, _now: Nanos, out: &mut Outbox<Msg>) {
        if timer == Timer::Tick {
            // Blocking protocol: no round timeouts by design. The tick only
            // restarts queued work after an aborted round.
            if self.backoff_ticks > 0 {
                self.backoff_ticks -= 1;
            }
            self.try_start_round(out);
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
        if self.is_coordinator() {
            self.pending.push_back(cmd);
            self.try_start_round(out);
        } else {
            out.send(self.coordinator, Msg::Forward { cmd });
        }
    }

    fn is_leader(&self) -> bool {
        self.is_coordinator()
    }

    /// 2PC serves reads from the local copy (Fig 10's 2PC-Joint).
    fn supports_local_reads(&self) -> bool {
        true
    }

    /// 2PC can answer reads from the local copy whenever it is not locked
    /// "in the gap between two phases of 2PC" (§7.5). This is what gives
    /// 2PC-Joint its read-heavy advantage in Fig 10.
    fn can_read_locally(&self, _key: u64) -> bool {
        self.locked_by.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::TestNet;

    fn net(n: u16) -> TestNet<TwoPcNode> {
        TestNet::new(n, |m, me| {
            TwoPcNode::new(ClusterConfig::new(m.to_vec(), me))
        })
    }

    #[test]
    fn single_command_commits_everywhere() {
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        for n in 0..3 {
            assert_eq!(net.commits(NodeId(n)).len(), 1, "node {n}");
        }
        assert_eq!(net.replies().len(), 1);
        assert_eq!(net.replies()[0].client, NodeId(9));
        net.assert_consistent();
    }

    #[test]
    fn commands_commit_in_submission_order() {
        let mut net = net(3);
        for req in 1..=5 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        net.run_to_quiescence();
        let commits = net.commits(NodeId(1));
        assert_eq!(commits.len(), 5);
        for (i, (&inst, cmd)) in commits.iter().enumerate() {
            assert_eq!(inst, i as Instance);
            assert_eq!(cmd.req_id, i as u64 + 1);
        }
        net.assert_consistent();
    }

    #[test]
    fn forward_reaches_coordinator() {
        let mut net = net(3);
        net.client_request(NodeId(2), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        // Reply comes from the coordinator.
        assert_eq!(net.replies()[0].from, NodeId(0));
    }

    #[test]
    fn message_count_per_commit_matches_paper() {
        // §7.2: 2PC transmits prepare×2 + ack×2 + commit×2 + commit-ack×2
        // = 8 inter-replica messages per commit with 3 replicas (the paper
        // counts 10 including the client request and reply, which the
        // testnet does not model as messages).
        let mut net = net(3);
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert_eq!(net.delivered(), 8);
    }

    #[test]
    fn blocked_replica_blocks_all_updates() {
        // §2.2: "no requests can commit after any replica including the
        // leader is unavailable".
        let mut net = net(3);
        net.block(NodeId(2));
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        net.run_to_quiescence();
        assert!(net.replies().is_empty());
        assert_eq!(net.commits(NodeId(0)).len(), 0);
        // The slow core responds again: the update completes.
        net.unblock(NodeId(2));
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 1);
        net.assert_consistent();
    }

    #[test]
    fn local_reads_allowed_only_outside_lock_window() {
        let mut net = net(3);
        assert!(net.node(NodeId(1)).can_read_locally(1));
        // Put replica 1 inside the lock window: deliver Prepare but block
        // the ack from completing the round.
        net.block(NodeId(0));
        net.client_request(NodeId(0), NodeId(9), 1, Op::Noop);
        // Coordinator is blocked, so unblock to emit prepares, then block
        // again before acks return.
        net.unblock(NodeId(0));
        // Deliver just the prepare to replica 1.
        assert!(net.deliver_one(NodeId(0), NodeId(1)));
        assert!(net.node(NodeId(1)).is_locked());
        assert!(!net.node(NodeId(1)).can_read_locally(1));
        net.run_to_quiescence();
        assert!(!net.node(NodeId(1)).is_locked());
        assert!(net.node(NodeId(1)).can_read_locally(1));
    }

    #[test]
    fn contending_coordinator_gets_nack_and_rolls_back() {
        // Two nodes believe they are coordinators (forced by hand) — the
        // replica's lock makes one of them rollback and retry. The rogue
        // gets a disjoint round space: multi-coordinator 2PC provides
        // mutual exclusion via locks, not a shared log.
        let mut net = net(3);
        net.node_mut(NodeId(1)).coordinator = NodeId(1); // rogue coordinator
        net.node_mut(NodeId(1)).next_round = 1000;
        net.client_request(NodeId(0), NodeId(8), 1, Op::Noop);
        net.client_request(NodeId(1), NodeId(9), 1, Op::Noop);
        // Deliver n0's prepare to n2 first, then n1's prepare to n2 → nack.
        assert!(net.deliver_one(NodeId(0), NodeId(2)));
        assert!(net.deliver_one(NodeId(1), NodeId(2)));
        net.run_to_quiescence();
        // The rogue's round aborted; its command is re-queued.
        assert!(net.node(NodeId(1)).queue_len() >= 1 || !net.replies().is_empty());
        // Ticks let the rogue retry once the lock is free.
        net.advance_and_settle(TwoPcNode::DEFAULT_TICK, 4);
        let committed: usize = (0..3).map(|n| net.commits(NodeId(n)).len()).sum();
        assert!(committed > 0);
        net.assert_consistent();
    }

    #[test]
    fn command_arriving_at_lock_release_is_dispatched_exactly_once_and_immediately() {
        // The latent `is_locked()`/queue interaction surfaced by
        // lock-window reuse: n1 believes it coordinates, but its copy is
        // locked by n0's in-flight round, so its queued command cannot
        // start. When n0's Commit releases the lock, the command must
        // start *immediately* (no tick) and be dispatched exactly once —
        // the release handler and the tick path both call
        // `try_start_round`, and only the pop-once queue discipline
        // keeps that single dispatch.
        let mut net = net(3);
        net.node_mut(NodeId(1)).coordinator = NodeId(1); // co-coordinator
        net.node_mut(NodeId(1)).next_round = 1000;
        // n0 starts a round; deliver its Prepare to n1 so n1 is locked.
        net.client_request(NodeId(0), NodeId(8), 1, Op::Noop);
        assert!(net.deliver_one(NodeId(0), NodeId(1)));
        assert!(net.node(NodeId(1)).is_locked());
        // A command reaches the locked co-coordinator: it must queue.
        net.client_request(NodeId(1), NodeId(9), 1, Op::Noop);
        assert_eq!(net.node(NodeId(1)).queue_len(), 1);
        // Finishing n0's round delivers Commit to n1 — the lock releases
        // and the queued command starts in the same delivery, with NO
        // time advance (the old behaviour stalled it until the tick).
        net.run_to_quiescence();
        assert!(!net.node(NodeId(1)).is_locked());
        assert_eq!(net.node(NodeId(1)).queue_len(), 0, "dispatched at release");
        assert_eq!(net.replies().len(), 2, "both commands answered");
        // Exactly once: n9's command occupies exactly one slot in every
        // replica's log (a double dispatch would commit it twice, in
        // n1's disjoint round space).
        for n in 0..3u16 {
            let hits = net
                .commits(NodeId(n))
                .values()
                .filter(|c| c.client == NodeId(9))
                .count();
            assert_eq!(hits, 1, "node {n} committed the command {hits} times");
        }
        // Ticks afterwards must not re-dispatch anything either.
        net.advance_and_settle(TwoPcNode::DEFAULT_TICK, 4);
        for n in 0..3u16 {
            let hits = net
                .commits(NodeId(n))
                .values()
                .filter(|c| c.client == NodeId(9))
                .count();
            assert_eq!(hits, 1, "tick re-dispatched at node {n}");
        }
        net.assert_consistent();
    }

    #[test]
    fn queue_drains_across_rounds() {
        let mut net = net(5);
        for req in 1..=20 {
            net.client_request(NodeId(0), NodeId(9), req, Op::Noop);
        }
        net.run_to_quiescence();
        assert_eq!(net.replies().len(), 20);
        assert_eq!(net.commits(NodeId(4)).len(), 20);
        net.assert_consistent();
    }
}
