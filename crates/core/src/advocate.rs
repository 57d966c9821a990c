//! What a Paxos-family replica does with a client request, written once
//! for 1Paxos, Multi-Paxos, Mencius and Basic-Paxos. The rules were
//! taken from 1Paxos, whose copy every other protocol now shares:
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
//!
//! 2PC answers differently: its coordinator answers every command,
//! forwarded ones included, only after every participant acknowledged
//! the commit (§2.2), so it does not use this table.

use std::collections::{BTreeMap, VecDeque};

use crate::hash::{WordMap, WordSet};
use crate::outbox::Outbox;
use crate::types::{Command, Instance, Nanos, NodeId};

/// A command's identity, `(client, req_id)`.
type CmdId = (NodeId, u64);

/// One replica's client-request table: the requests it owes an answer,
/// every decided id, and the commands it advocates — queued, or
/// forwarded to the leader.
#[derive(Debug, Default)]
pub(crate) struct Advocate {
    /// Commands waiting to be proposed or forwarded, in arrival order.
    pub(crate) queue: VecDeque<Command>,
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
    /// first instance wins), clears its forward, and answers it if owed.
    pub(crate) fn decide<M>(&mut self, inst: Instance, cmd: Command, out: &mut Outbox<M>) {
        let id = cmd.id();
        out.commit(inst, cmd);
        self.decided.entry(id).or_insert(inst);
        self.forwarded.remove(&id);
        if self.owed.remove(&id) {
            out.reply(id.0, id.1, inst);
        }
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
        for cmd in std::mem::take(&mut self.queue) {
            if !self.is_decided(cmd.id()) {
                self.forward(leader, cmd, now, out, &msg);
            }
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

    /// Commands queued or forwarded and not yet decided.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.forwarded.len()
    }

    /// Drops the ids decided below the truncation floor `watermark`.
    pub(crate) fn prune(&mut self, watermark: Instance) {
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
        assert_eq!(adv.pending(), 2);
        adv.decide(1, cmd(3), &mut out);
        assert_eq!(adv.pending(), 1);
    }

    #[test]
    fn a_stalled_forward_takes_every_forward_back_in_id_order() {
        let (mut adv, mut out) = fresh();
        adv.forward(NodeId(0), cmd(2), 100, &mut out, |c| c);
        adv.forward(NodeId(0), cmd(1), 0, &mut out, |c| c);
        assert!(!adv.reclaim_stalled(50, 50), "not yet stalled");
        assert!(adv.reclaim_stalled(51, 50));
        assert_eq!(adv.queue, VecDeque::from([cmd(1), cmd(2)]));
        assert_eq!(adv.pending(), 2, "taken back, still pending");
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
}
