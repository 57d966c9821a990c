//! What a Paxos-family replica does with a client request and with its
//! own proposals, written once for 1Paxos, Multi-Paxos, Mencius and
//! Basic-Paxos. The rules were taken from 1Paxos, whose copy every other
//! protocol now shares:
//!
//! * **The contacted node answers.** The replica a client sent its
//!   request to owes the answer; a leader that merely agrees a forwarded
//!   command answers nobody. A client that times out re-sends to another
//!   replica (§7.6), which then owes the answer too.
//! * **A decided command is never agreed again.** A request whose
//!   command is already decided is answered at once, with the first
//!   instance it was decided in; a forward of a decided command is
//!   dropped (its owner answers it).
//! * **A decision answers what is owed.** Each decision is recorded once
//!   (the first instance wins), clears the command's forward, and
//!   answers the request if this node owes it — right after the commit,
//!   so the action stream keeps commit-then-reply order.
//! * **A stalled forward means a slow leader.** A forward still undecided
//!   after the protocol's suspicion timeout is taken back to be
//!   advocated again (demand-driven detection, §7.6). What the stall
//!   triggers — an election, a takeover — is the protocol's choice.
//! * **The decided table follows the truncation floor.** Ids decided
//!   below the floor are dropped with it; a retry of one is agreed again
//!   and the state machine's session table deduplicates it.
//! * **A leader's proposal stays pinned until its slot is decided.** A
//!   command this node proposed is pinned at its instance (1Paxos's
//!   `proposed[]`, `registerProposals`/`getAny` of Fig 13). It is
//!   advocated again, in a fresh instance, when another command wins
//!   its slot, when the truncation floor passes it undecided, and when
//!   the node stops leading — the next leader may never have seen it.
//!   The state machine's session table deduplicates a command agreed
//!   twice this way. 1Paxos and Multi-Paxos pin; Mencius proposes only
//!   in its own slots, and Basic-Paxos's Synod keeps its own proposal.
//!
//! 2PC answers differently: its coordinator answers every command,
//! forwarded ones included, only after every participant acknowledged
//! the commit (§2.2), so it does not use this table.

use std::collections::{BTreeMap, VecDeque};

use crate::hash::{WordMap, WordSet};
use crate::instance_log::InstanceLog;
use crate::outbox::Outbox;
use crate::types::{Command, Instance, Nanos, NodeId};

/// A command's identity, `(client, req_id)`.
type CmdId = (NodeId, u64);

/// One replica's client-request table: the requests it owes an answer,
/// every decided id, and the commands it advocates — queued, forwarded
/// to the leader, or proposed and pinned at their instance.
#[derive(Debug, Default)]
pub(crate) struct Advocate {
    /// Commands waiting to be proposed or forwarded, in arrival order.
    queue: VecDeque<Command>,
    /// Proposals pinned at their instance until it is decided.
    pinned: InstanceLog<Command>,
    /// Requests this node was sent and has not answered yet.
    owed: WordSet<CmdId>,
    /// Each decided id with the first instance it was decided in.
    decided: WordMap<CmdId, Instance>,
    /// Commands forwarded to the leader, with their send time.
    forwarded: BTreeMap<CmdId, (Command, Nanos)>,
}

impl Advocate {
    /// Takes a client request: answers it from the decided table, or
    /// records that this node owes the answer and hands the command back
    /// to be advocated.
    pub(crate) fn request<M>(&mut self, cmd: Command, out: &mut Outbox<M>) -> Option<Command> {
        let id = cmd.id();
        if let Some(&inst) = self.decided.get(&id) {
            out.reply(id.0, id.1, inst);
            return None;
        }
        self.owed.insert(id);
        Some(cmd)
    }

    /// Whether `id` was decided (at or above the truncation floor): a
    /// forward of it is dropped, a queued copy is not advocated again.
    pub(crate) fn is_decided(&self, id: CmdId) -> bool {
        self.decided.contains_key(&id)
    }

    /// Commits `cmd` in `inst` and notes the decision: records it (the
    /// first instance wins), clears its forward, answers it if owed, and
    /// unpins `inst` — queueing the pinned proposal again if another
    /// command won the slot and it is not decided elsewhere.
    pub(crate) fn decide<M>(&mut self, inst: Instance, cmd: Command, out: &mut Outbox<M>) {
        let id = cmd.id();
        out.commit(inst, cmd);
        self.decided.entry(id).or_insert(inst);
        self.forwarded.remove(&id);
        if self.owed.remove(&id) {
            out.reply(id.0, id.1, inst);
        }
        if let Some(pinned) = self.pinned.remove(inst) {
            if pinned.id() != id && !self.is_decided(pinned.id()) {
                self.queue.push_back(pinned);
            }
        }
    }

    /// Queues `cmd` to be proposed or forwarded.
    pub(crate) fn enqueue(&mut self, cmd: Command) {
        self.queue.push_back(cmd);
    }

    /// Whether a command waits in the queue.
    pub(crate) fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Takes the oldest queued command that is not decided, dropping the
    /// decided ones queued ahead of it.
    pub(crate) fn next_undecided(&mut self) -> Option<Command> {
        while let Some(cmd) = self.queue.pop_front() {
            if !self.is_decided(cmd.id()) {
                return Some(cmd);
            }
        }
        None
    }

    /// Pins `cmd`, proposed by this node, at `inst`.
    pub(crate) fn pin(&mut self, inst: Instance, cmd: Command) {
        self.pinned.insert(inst, cmd);
    }

    /// The pinned proposals, by instance.
    pub(crate) fn pins(&self) -> &InstanceLog<Command> {
        &self.pinned
    }

    /// The node stopped leading: queues every pinned proposal again, in
    /// instance order, and keeps the pins, so a node that leads again
    /// re-proposes each at its own instance.
    pub(crate) fn requeue_pins(&mut self) {
        self.queue.extend(self.pinned.values().cloned());
    }

    /// As [`Self::requeue_pins`], and forgets the pins.
    pub(crate) fn release_pins(&mut self) {
        self.requeue_pins();
        self.pinned.clear();
    }

    /// Forwards the undecided `cmd` to `leader` and stamps the send.
    pub(crate) fn forward<M>(
        &mut self,
        leader: NodeId,
        cmd: Command,
        now: Nanos,
        out: &mut Outbox<M>,
        msg: impl FnOnce(Command) -> M,
    ) {
        self.forwarded.insert(cmd.id(), (cmd.clone(), now));
        out.send(leader, msg(cmd));
    }

    /// Forwards every queued command to `leader`, in queue order,
    /// dropping the decided ones.
    pub(crate) fn forward_queue<M>(
        &mut self,
        leader: NodeId,
        now: Nanos,
        out: &mut Outbox<M>,
        msg: impl Fn(Command) -> M,
    ) {
        while let Some(cmd) = self.next_undecided() {
            self.forward(leader, cmd, now, out, &msg);
        }
    }

    /// If some forward has waited longer than `after`, takes every
    /// forward back (see [`Self::reclaim`]) and returns `true`: the
    /// leader is slow.
    pub(crate) fn reclaim_stalled(&mut self, now: Nanos, after: Nanos) -> bool {
        let stalled = self
            .forwarded
            .values()
            .any(|&(_, t)| now.saturating_sub(t) > after);
        if stalled {
            self.reclaim();
        }
        stalled
    }

    /// Takes every forward back onto the queue, in id order.
    pub(crate) fn reclaim(&mut self) {
        let forwarded = std::mem::take(&mut self.forwarded);
        self.queue
            .extend(forwarded.into_values().map(|(cmd, _)| cmd));
    }

    /// Follows the truncation floor `watermark`: queues again the pinned
    /// proposals below it that are not decided, then drops the pins and
    /// the decided ids below it.
    pub(crate) fn prune(&mut self, watermark: Instance) {
        for cmd in self.pinned.drain_below(watermark) {
            if !self.is_decided(cmd.id()) {
                self.queue.push_back(cmd);
            }
        }
        self.decided.retain(|_, &mut inst| inst >= watermark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;
    use crate::types::Op;

    fn cmd(req: u64) -> Command {
        Command::new(NodeId(9), req, Op::Noop)
    }

    fn fresh() -> (Advocate, Outbox<Command>) {
        (Advocate::default(), Outbox::new())
    }

    /// Commands queued or forwarded and not yet decided.
    fn pending(adv: &Advocate) -> usize {
        adv.queue.len() + adv.forwarded.len()
    }

    fn replies(out: &mut Outbox<Command>) -> Vec<(u64, Instance)> {
        out.take()
            .into_iter()
            .filter_map(|a| match a {
                Action::Reply {
                    req_id, instance, ..
                } => Some((req_id, instance)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_owed_request_is_answered_once_with_its_first_instance() {
        let (mut adv, mut out) = fresh();
        assert_eq!(adv.request(cmd(1), &mut out), Some(cmd(1)));
        assert!(out.is_empty());
        adv.decide(3, cmd(1), &mut out);
        let a = out.take();
        assert!(matches!(a[0], Action::Commit { instance: 3, .. }));
        assert!(matches!(a[1], Action::Reply { instance: 3, .. }));
        adv.decide(5, cmd(1), &mut out);
        assert!(replies(&mut out).is_empty(), "answered twice");
        // A retry is answered from the table, with the first instance.
        assert_eq!(adv.request(cmd(1), &mut out), None);
        assert_eq!(replies(&mut out), vec![(1, 3)]);
    }

    #[test]
    fn a_decision_nobody_owes_answers_nobody() {
        let (mut adv, mut out) = fresh();
        adv.decide(0, cmd(1), &mut out);
        assert!(replies(&mut out).is_empty());
        assert!(adv.is_decided(cmd(1).id()));
        assert!(!adv.is_decided(cmd(2).id()));
    }

    #[test]
    fn queued_forwards_skip_decided_ids_and_a_decision_clears_its_forward() {
        let (mut adv, mut out) = fresh();
        adv.decide(0, cmd(2), &mut out);
        let _ = out.take();
        adv.queue = [cmd(3), cmd(2), cmd(1)].into();
        adv.forward_queue(NodeId(0), 10, &mut out, |c| c);
        assert!(adv.queue.is_empty());
        let sent: Vec<u64> = out
            .take()
            .into_iter()
            .map(|a| match a {
                Action::Send { to, msg } => {
                    assert_eq!(to, NodeId(0));
                    msg.req_id
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sent, vec![3, 1]);
        assert_eq!(pending(&adv), 2);
        adv.decide(1, cmd(3), &mut out);
        assert_eq!(pending(&adv), 1);
    }

    #[test]
    fn a_stalled_forward_takes_every_forward_back_in_id_order() {
        let (mut adv, mut out) = fresh();
        adv.forward(NodeId(0), cmd(2), 100, &mut out, |c| c);
        adv.forward(NodeId(0), cmd(1), 0, &mut out, |c| c);
        assert!(!adv.reclaim_stalled(50, 50), "not yet stalled");
        assert!(adv.reclaim_stalled(51, 50));
        assert_eq!(adv.queue, VecDeque::from([cmd(1), cmd(2)]));
        assert_eq!(pending(&adv), 2, "taken back, still pending");
    }

    #[test]
    fn prune_forgets_ids_decided_below_the_floor() {
        let (mut adv, mut out) = fresh();
        adv.decide(4, cmd(1), &mut out);
        adv.decide(5, cmd(2), &mut out);
        adv.prune(5);
        assert!(!adv.is_decided(cmd(1).id()));
        assert!(adv.is_decided(cmd(2).id()));
        // A retry of the forgotten id is advocated again.
        assert_eq!(adv.request(cmd(1), &mut out), Some(cmd(1)));
    }

    #[test]
    fn a_pin_that_loses_its_slot_is_queued_again_unless_decided() {
        let (mut adv, mut out) = fresh();
        for (inst, req) in [(0, 1), (1, 2), (2, 3)] {
            adv.pin(inst, cmd(req));
        }
        // The pin won its slot: dropped, not advocated again.
        adv.decide(0, cmd(1), &mut out);
        assert!(!adv.has_queued());
        // Lost, but decided elsewhere first: dropped.
        adv.decide(7, cmd(3), &mut out);
        adv.decide(2, cmd(4), &mut out);
        assert!(!adv.has_queued());
        // Lost and undecided: queued again.
        adv.decide(1, cmd(5), &mut out);
        assert_eq!(adv.queue, VecDeque::from([cmd(2)]));
        assert!(adv.pins().is_empty());
    }

    #[test]
    fn prune_requeues_the_undecided_pins_below_the_floor_and_drops_the_decided() {
        let (mut adv, mut out) = fresh();
        adv.decide(0, cmd(2), &mut out);
        for (inst, req) in [(3, 1), (4, 2), (6, 3)] {
            adv.pin(inst, cmd(req));
        }
        adv.prune(5);
        assert_eq!(adv.queue, VecDeque::from([cmd(1)]));
        assert_eq!(adv.pins().keys().collect::<Vec<_>>(), vec![6]);
        assert!(!adv.is_decided(cmd(2).id()), "pruned after the pins");
    }

    #[test]
    fn stepping_down_requeues_every_pin_and_release_also_forgets_them() {
        let (mut adv, _) = fresh();
        adv.pin(2, cmd(1));
        adv.pin(0, cmd(2));
        adv.requeue_pins();
        assert_eq!(adv.queue, VecDeque::from([cmd(2), cmd(1)]));
        assert_eq!(adv.pins().len(), 2, "kept for a later adoption");
        adv.queue.clear();
        adv.release_pins();
        assert_eq!(adv.queue, VecDeque::from([cmd(2), cmd(1)]));
        assert!(adv.pins().is_empty());
    }

    #[test]
    fn next_undecided_skips_decided_ids_in_queue_order() {
        let (mut adv, mut out) = fresh();
        for req in [3, 1, 2, 4] {
            adv.enqueue(cmd(req));
        }
        adv.decide(0, cmd(1), &mut out);
        adv.decide(1, cmd(4), &mut out);
        assert_eq!(adv.next_undecided(), Some(cmd(3)));
        assert_eq!(adv.next_undecided(), Some(cmd(2)));
        assert_eq!(adv.next_undecided(), None);
        assert!(!adv.has_queued());
    }
}
