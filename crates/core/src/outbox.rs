//! The action buffer through which sans-IO protocol state machines talk to
//! the outside world.
//!
//! Handlers never perform IO; they push [`Action`]s into an [`Outbox`] and
//! the surrounding harness (the `manycore-sim` simulator or the
//! `onepaxos-runtime` threaded deployment) executes them. This is what lets
//! the very same protocol code run on virtual time for the paper's 48-core
//! experiments and on real threads for the examples.

use crate::types::{Command, Instance, Nanos, NodeId};

/// Timers a protocol node can arm.
///
/// All protocols in this crate drive their failure detection from a single
/// periodic [`Timer::Tick`]; the other variants exist for harness-level
/// bookkeeping and tests. `Custom(u8::MAX)` is reserved for the replica
/// engine's batch-flush deadline ([`crate::engine::BATCH_FLUSH`]) and is
/// intercepted before protocol dispatch — protocols must not arm it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Timer {
    /// Periodic maintenance tick (failure detection, retries).
    Tick,
    /// One-shot timer usable by harnesses or extensions.
    Custom(u8),
}

/// One effect requested by a protocol handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<M> {
    /// Send `msg` to node `to`. Sending to oneself is allowed and must be
    /// delivered (harnesses deliver it without transmission cost, modelling
    /// collapsed roles on one core, §2.3 footnote 5).
    Send {
        /// Destination node.
        to: NodeId,
        /// Protocol message.
        msg: M,
    },
    /// Reply to a client: the command `(client, req_id)` has committed in
    /// slot `instance`. In the Paxos family only the node the client sent
    /// the request to emits it, when the command is decided (at once,
    /// with the first instance, if it already was); in 2PC the
    /// coordinator emits it once every participant acknowledged the
    /// commit.
    Reply {
        /// Client to notify.
        client: NodeId,
        /// The client's request id.
        req_id: u64,
        /// Slot in which the command committed.
        instance: Instance,
    },
    /// The local learner learned (decided) `cmd` in `instance`. The harness
    /// applies it, in instance order, to the local state-machine replica.
    Commit {
        /// Decided slot.
        instance: Instance,
        /// Decided command.
        cmd: Command,
    },
    /// Arm (or re-arm) `timer` to fire `after` nanoseconds from now.
    SetTimer {
        /// Which timer.
        timer: Timer,
        /// Delay from now, in nanoseconds.
        after: Nanos,
    },
}

/// Buffer of [`Action`]s produced by one handler invocation.
///
/// # Examples
///
/// ```
/// use onepaxos::{Action, NodeId, Outbox};
///
/// let mut out: Outbox<&'static str> = Outbox::new();
/// out.send(NodeId(1), "hello");
/// let actions = out.take();
/// assert_eq!(actions.len(), 1);
/// assert!(matches!(actions[0], Action::Send { to: NodeId(1), .. }));
/// ```
#[derive(Debug)]
pub struct Outbox<M> {
    actions: Vec<Action<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            actions: Vec::new(),
        }
    }

    /// Queues a raw action (used by harness shims and scripted test
    /// protocols; protocol code prefers the typed helpers below).
    pub fn push(&mut self, action: Action<M>) {
        self.actions.push(action);
    }

    /// Queues a message send.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Queues a client reply.
    pub fn reply(&mut self, client: NodeId, req_id: u64, instance: Instance) {
        self.actions.push(Action::Reply {
            client,
            req_id,
            instance,
        });
    }

    /// Queues a local commit notification.
    pub fn commit(&mut self, instance: Instance, cmd: Command) {
        self.actions.push(Action::Commit { instance, cmd });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, timer: Timer, after: Nanos) {
        self.actions.push(Action::SetTimer { timer, after });
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether no actions are queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Drains and returns all queued actions, leaving the outbox empty and
    /// reusable. Allocates a fresh backing vector on the next push; hot
    /// loops use [`Self::take_into`] instead.
    pub fn take(&mut self) -> Vec<Action<M>> {
        std::mem::take(&mut self.actions)
    }

    /// Moves all queued actions into `buf` by swapping backing vectors:
    /// the outbox adopts `buf`'s (empty) allocation and `buf` receives
    /// the queued actions. Both capacities survive, so a caller that
    /// drains `buf` and hands it back next time never allocates — the
    /// zero-alloc counterpart of [`Self::take`] for per-event hot paths.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `buf` is not empty.
    pub fn take_into(&mut self, buf: &mut Vec<Action<M>>) {
        debug_assert!(buf.is_empty(), "scratch buffer handed back undrained");
        std::mem::swap(&mut self.actions, buf);
    }

    /// Iterates over the queued actions without draining them.
    pub fn iter(&self) -> std::slice::Iter<'_, Action<M>> {
        self.actions.iter()
    }
}

impl<M> IntoIterator for Outbox<M> {
    type Item = Action<M>;
    type IntoIter = std::vec::IntoIter<Action<M>>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Command;

    #[test]
    fn outbox_collects_in_order() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(NodeId(1), 10);
        out.commit(0, Command::noop(NodeId(2), 1));
        out.reply(NodeId(2), 1, 0);
        out.set_timer(Timer::Tick, 100);
        let a = out.take();
        assert_eq!(a.len(), 4);
        assert!(matches!(a[0], Action::Send { .. }));
        assert!(matches!(a[1], Action::Commit { .. }));
        assert!(matches!(a[2], Action::Reply { .. }));
        assert!(matches!(a[3], Action::SetTimer { .. }));
        assert!(out.is_empty());
    }

    #[test]
    fn take_resets_for_reuse() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(NodeId(0), 1);
        assert_eq!(out.len(), 1);
        let _ = out.take();
        out.send(NodeId(0), 2);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn take_into_swaps_and_preserves_capacity() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(NodeId(1), 1);
        out.send(NodeId(2), 2);
        let mut scratch: Vec<Action<u32>> = Vec::with_capacity(64);
        out.take_into(&mut scratch);
        assert_eq!(scratch.len(), 2);
        assert!(out.is_empty());
        // The outbox adopted the scratch allocation: pushing again does
        // not need to grow from zero.
        assert!(out.actions.capacity() >= 64);
        // Drained scratch keeps the actions' old capacity for next time.
        let old_cap = scratch.capacity();
        scratch.clear();
        out.send(NodeId(3), 3);
        out.take_into(&mut scratch);
        assert_eq!(scratch.len(), 1);
        assert!(scratch.capacity() >= old_cap.min(64));
    }

    #[test]
    fn into_iter_yields_actions() {
        let mut out: Outbox<u32> = Outbox::new();
        out.send(NodeId(3), 7);
        out.set_timer(Timer::Tick, 1);
        let v: Vec<_> = out.into_iter().collect();
        assert_eq!(v.len(), 2);
    }
}
