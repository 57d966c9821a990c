//! Replicated-state-machine layer: in-order application of decided
//! commands with at-most-once execution per client.
//!
//! The agreement protocols decide a command per instance; this layer turns
//! the decided log into state-machine transitions. It tolerates commands
//! being decided out of instance order (buffering until the gap fills) and
//! duplicate submissions of the same `(client, req_id)` (a client that
//! timed out and re-sent to another replica may get its command decided
//! twice; only the first decision is applied).
//!
//! A decided [`Op::Batch`] is unpacked here: each constituent command is
//! applied individually, in payload order, under the same per-client
//! at-most-once rule — so a command that travelled in two different
//! batches (a client retry re-coalesced elsewhere) still executes once,
//! and its output is recorded in its own client's session entry for
//! reply routing. Batches themselves are deduplicated only through their
//! constituents: engine batch ids are not session-tracked, because
//! batches from one engine can legally commit out of submission order
//! across leader changes (unlike closed-loop clients).

use std::collections::{btree_map, hash_map, BTreeMap};

use crate::hash::WordMap;
use crate::types::{Command, Instance, NodeId, Op};

/// A deterministic state machine replicated by the agreement protocols.
pub trait StateMachine {
    /// Output of applying one operation (e.g. the value read).
    type Output: Clone + std::fmt::Debug;

    /// Serializable image of the full state at an instance watermark,
    /// sufficient to rebuild an equivalent machine on another replica
    /// ([`Self::install`]). For a 2PC participant this must cover the
    /// in-flight transaction state too (staged fragments, locks, parked
    /// waiters, recorded outcomes), or recovery breaks across a
    /// snapshot boundary.
    type Snapshot: Clone + std::fmt::Debug;

    /// Applies `op` and returns its output. Must be deterministic.
    fn apply(&mut self, op: Op) -> Self::Output;

    /// Captures the current state as a snapshot.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replaces the current state with `snap`. After installing the
    /// snapshot a peer took at watermark `w`, applying the decided log
    /// from `w` onward must yield the same state the peer reaches.
    fn install(&mut self, snap: Self::Snapshot);

    /// Reads `key` from this replica without applying an operation — the
    /// state-machine half of the §7.5 relaxed-read fast path (the
    /// protocol half is [`Protocol::can_read_locally`](crate::Protocol::can_read_locally)).
    fn read_local(&self, key: u64) -> Self::Output;

    /// Whether the state machine itself currently forbids a local read
    /// of `key` — the transactional analogue of the protocol-level 2PC
    /// lock window (§7.5): a key staged by a prepared cross-shard
    /// transaction ([`Op::TxnPrepare`]) must not be read until the
    /// outcome lands, or a reader could assemble a view in which one
    /// shard's fragment is visible and another's is not. Defaults to
    /// `false` (no state-level lock windows).
    fn blocks_local_read(&self, key: u64) -> bool {
        let _ = key;
        false
    }

    /// Transaction-participant counters, for engine stats attribution
    /// (see [`TxnStats`]). State machines that are not 2PC participants
    /// report zeros.
    fn txn_stats(&self) -> TxnStats {
        TxnStats::default()
    }
}

/// Counters a 2PC participant state machine maintains about its prepare
/// traffic (see `KvStore`), surfaced through
/// [`StateMachine::txn_stats`] into `EngineStats` so benches can
/// attribute cross-shard transaction behaviour per shard: how many
/// prepares arrived, how many parked in the lock-wait queue instead of
/// aborting, how deep the queue got, and how many were turned away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Applied `TxnPrepare` commands (coordinator re-probes of a parked
    /// transaction count again — the counter measures prepare traffic,
    /// not distinct transactions).
    pub prepares: u64,
    /// Prepares that parked in the lock-wait queue (`TxnVote::Wait`).
    pub lock_waits: u64,
    /// Prepares refused retryably (`TxnVote::Busy`): younger than a
    /// conflicting holder (wait-die) or the queue was full.
    pub busy_rejects: u64,
    /// Prepares answered with a hard no (`TxnVote::Abort`): the
    /// transaction was already finished as aborted.
    pub vote_aborts: u64,
    /// High-water mark of the lock-wait queue depth.
    pub wait_depth: usize,
    /// Current size of the finished-transaction outcome table — an
    /// RSS proxy: with per-coordinator GC it must stay O(coordinators ×
    /// window) instead of growing with the transaction count.
    pub finished_len: usize,
}

impl TxnStats {
    /// Folds `other` into `self`: counters add, `wait_depth` keeps the
    /// maximum (the aggregate of independent shards has no single
    /// depth; the deepest queue is the one that bounds waiting).
    pub fn absorb(&mut self, other: &TxnStats) {
        self.prepares += other.prepares;
        self.lock_waits += other.lock_waits;
        self.busy_rejects += other.busy_rejects;
        self.vote_aborts += other.vote_aborts;
        self.wait_depth = self.wait_depth.max(other.wait_depth);
        // Shards hold disjoint outcome tables, so the aggregate size is
        // the sum.
        self.finished_len += other.finished_len;
    }
}

/// Applies decided commands to a [`StateMachine`] in instance order,
/// deduplicating per-client request ids.
///
/// One per-client session table serves both the at-most-once check and
/// reply lookup: it holds each client's latest applied `req_id` and that
/// request's output, overwritten in place when the client's next request
/// applies. Applying a command touches the table once.
///
/// # Examples
///
/// ```
/// use onepaxos::rsm::{Applier, StateMachine};
/// use onepaxos::kv::KvStore;
/// use onepaxos::{Command, Instance, NodeId, Op};
///
/// let mut applier: Applier<KvStore> = Applier::new(KvStore::new());
/// // Instance 1 arrives before instance 0: buffered.
/// applier.on_decided(1, Command::new(NodeId(9), 2, Op::Put { key: 1, value: 20 }));
/// assert_eq!(applier.applied_up_to(), None);
/// applier.on_decided(0, Command::new(NodeId(9), 1, Op::Put { key: 1, value: 10 }));
/// assert_eq!(applier.applied_up_to(), Some(1));
/// assert_eq!(applier.state().get(1), Some(20));
/// ```
#[derive(Debug)]
pub struct Applier<S: StateMachine> {
    state: S,
    /// Next instance to apply; everything below has been applied.
    next: Instance,
    /// First instance still retained in `applied_log`: everything below
    /// it was dropped by an agreed [`Op::Truncate`] (or never replayed
    /// here because a snapshot at this watermark was installed).
    log_base: Instance,
    /// Decided but not yet applicable (gap before them).
    pending: BTreeMap<Instance, Command>,
    /// The session table: per client, the highest applied req_id and
    /// its output — the at-most-once check and the reply lookup in one
    /// entry. Only the latest output is kept: the session protocol makes
    /// req_ids monotone per client, so a client never asks about an
    /// older request than its newest, and the table stays O(clients).
    /// Hash table; key order only at `entries`/`digest`/snapshot
    /// ([`Self::snapshot`] sorts it by client).
    sessions: WordMap<NodeId, (u64, S::Output)>,
    /// Applied command log from `log_base` up (cross-replica
    /// consistency checks, duplicate-decision verification).
    applied_log: Vec<Command>,
}

/// Everything a replica needs to adopt a peer's applied prefix without
/// replaying it: the state-machine image plus the at-most-once session
/// table, both taken at `watermark` (see [`Applier::snapshot`]).
#[derive(Debug)]
pub struct ApplierSnapshot<S: StateMachine> {
    /// First instance NOT covered: the installer resumes applying here.
    pub watermark: Instance,
    /// The state machine's own image.
    pub state: S::Snapshot,
    /// The session table: highest applied req_id and its output per
    /// client. Without it an installer would re-apply client retries
    /// the snapshotting replica already executed. Sorted by client: the
    /// live table is a hash table; key order only at
    /// `entries`/`digest`/snapshot, so equal tables give equal bytes.
    pub sessions: Vec<(NodeId, (u64, S::Output))>,
}

impl<S: StateMachine> Clone for ApplierSnapshot<S> {
    fn clone(&self) -> Self {
        ApplierSnapshot {
            watermark: self.watermark,
            state: self.state.clone(),
            sessions: self.sessions.clone(),
        }
    }
}

impl<S: StateMachine> Applier<S> {
    /// Wraps `state`, expecting the decided log to start at instance 0.
    pub fn new(state: S) -> Self {
        Applier {
            state,
            next: 0,
            log_base: 0,
            pending: BTreeMap::new(),
            sessions: WordMap::default(),
            applied_log: Vec::new(),
        }
    }

    /// Records that `cmd` was decided in `instance` and applies every
    /// now-contiguous command. Returns the number of commands applied.
    /// A decision for the next instance applies directly; only one that
    /// arrives ahead of a gap is buffered.
    ///
    /// Deciding the same instance twice with the same command is idempotent;
    /// with a *different* command it panics, because that is precisely the
    /// consistency violation the protocols must rule out (Appendix B).
    /// Below the truncation watermark the retained log is gone, so a
    /// re-decision there is accepted idempotently without the equality
    /// check (harness-level oracles still verify those).
    ///
    /// # Panics
    ///
    /// Panics if `instance` was already decided with a different command
    /// and is still above the truncation watermark.
    pub fn on_decided(&mut self, instance: Instance, cmd: Command) -> usize {
        if instance < self.next {
            if instance >= self.log_base {
                let prior = &self.applied_log[(instance - self.log_base) as usize];
                assert_eq!(
                    *prior, cmd,
                    "consistency violation: instance {instance} decided twice with different commands"
                );
            }
            return 0;
        }
        let mut ready = match self.pending.entry(instance) {
            btree_map::Entry::Occupied(prior) => {
                assert_eq!(
                    *prior.get(),
                    cmd,
                    "consistency violation: instance {instance} decided twice with different commands"
                );
                return 0;
            }
            btree_map::Entry::Vacant(slot) if instance > self.next => {
                slot.insert(cmd);
                self.pending.remove(&self.next)
            }
            btree_map::Entry::Vacant(_) => Some(cmd),
        };
        let mut applied = 0;
        while let Some(cmd) = ready {
            self.apply_one(cmd);
            self.next += 1;
            applied += 1;
            ready = self.pending.remove(&self.next);
        }
        applied
    }

    fn apply_one(&mut self, cmd: Command) {
        // A batch applies its constituents in order; anything else is its
        // own one constituent.
        for inner in cmd.as_batch().unwrap_or(std::slice::from_ref(&cmd)) {
            debug_assert!(
                !matches!(inner.op, Op::Batch(_)),
                "nested batch decided in the log"
            );
            self.apply_single(inner);
        }
        self.applied_log.push(cmd);
    }

    /// Applies one non-batch command under the per-client at-most-once
    /// rule, overwriting the client's session entry with its req_id and
    /// output.
    fn apply_single(&mut self, cmd: &Command) {
        let state = &mut self.state;
        match self.sessions.entry(cmd.client) {
            hash_map::Entry::Occupied(mut session) => {
                if cmd.req_id <= session.get().0 {
                    return;
                }
                *session.get_mut() = (cmd.req_id, state.apply(cmd.op.clone()));
            }
            hash_map::Entry::Vacant(session) => {
                session.insert((cmd.req_id, state.apply(cmd.op.clone())));
            }
        }
        // An agreed truncation point: every replica of this shard
        // applies it at the same instance, so dropping the prefix here
        // keeps replicas byte-identical.
        if let Op::Truncate { watermark } = cmd.op {
            self.truncate(watermark);
        }
    }

    /// Drops the retained log below `watermark` (clamped to the applied
    /// prefix). Invoked by an applied [`Op::Truncate`]; harnesses may
    /// also call it directly in tests. Returns the new log base.
    pub fn truncate(&mut self, watermark: Instance) -> Instance {
        let to = watermark.min(self.next).max(self.log_base);
        self.applied_log.drain(..(to - self.log_base) as usize);
        self.log_base = to;
        to
    }

    /// Captures the applied prefix `[0, watermark)` as an installable
    /// snapshot: state-machine image + session table (sorted by client),
    /// with `watermark = ` the next instance this replica would apply.
    pub fn snapshot(&self) -> ApplierSnapshot<S> {
        let mut sessions: Vec<_> = self.sessions.iter().map(|(&c, s)| (c, s.clone())).collect();
        sessions.sort_unstable_by_key(|&(c, _)| c);
        ApplierSnapshot {
            watermark: self.next,
            state: self.state.snapshot(),
            sessions,
        }
    }

    /// Adopts a peer's snapshot, replacing local state wholesale, and
    /// resumes applying at `snap.watermark`. Decided-but-buffered
    /// commands the snapshot already covers are discarded; later ones
    /// are kept and applied as the live log catches up past them.
    ///
    /// A snapshot at or below what this replica already applied is
    /// ignored (returns `false`): installing it would rewind the
    /// session table and re-apply commands.
    pub fn install_snapshot(&mut self, snap: ApplierSnapshot<S>) -> bool {
        if snap.watermark <= self.next {
            return false;
        }
        self.state.install(snap.state);
        self.sessions = snap.sessions.into_iter().collect();
        self.next = snap.watermark;
        self.log_base = snap.watermark;
        self.applied_log.clear();
        self.pending = self.pending.split_off(&snap.watermark);
        true
    }

    /// The wrapped state machine.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The highest applied instance, or `None` if nothing applied yet.
    pub fn applied_up_to(&self) -> Option<Instance> {
        self.next.checked_sub(1)
    }

    /// Output recorded for `(client, req_id)`: `Some` iff `req_id` is
    /// the client's latest applied request. Only the latest is kept, so
    /// an older request, even one that applied, reads `None`.
    pub fn output_of(&self, client: NodeId, req_id: u64) -> Option<&S::Output> {
        let (last, out) = self.sessions.get(&client)?;
        (*last == req_id).then_some(out)
    }

    /// Whether `client` has applied a request newer than `req_id` — after
    /// which `req_id` never has an output here (see [`Self::output_of`]).
    pub fn applied_past(&self, client: NodeId, req_id: u64) -> bool {
        matches!(self.sessions.get(&client), Some(&(last, _)) if last > req_id)
    }

    /// The retained applied command log, starting at [`Self::log_base`]
    /// (for cross-replica consistency checks).
    pub fn applied_log(&self) -> &[Command] {
        &self.applied_log
    }

    /// First instance still present in [`Self::applied_log`].
    pub fn log_base(&self) -> Instance {
        self.log_base
    }

    /// Number of retained reply outputs: one per session-table entry,
    /// i.e. per client (RSS proxy; O(clients) by construction).
    pub fn outputs_len(&self) -> usize {
        self.sessions.len()
    }

    /// Number of decided-but-unappliable commands (log gaps ahead of them).
    pub fn gap_backlog(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvStore;

    fn cmd(client: u16, req: u64, op: Op) -> Command {
        Command::new(NodeId(client), req, op)
    }

    #[test]
    fn applies_in_order_with_gaps() {
        let mut a = Applier::new(KvStore::new());
        assert_eq!(a.on_decided(2, cmd(1, 3, Op::Noop)), 0);
        assert_eq!(a.on_decided(0, cmd(1, 1, Op::Put { key: 7, value: 1 })), 1);
        assert_eq!(a.gap_backlog(), 1);
        assert_eq!(a.on_decided(1, cmd(1, 2, Op::Put { key: 7, value: 2 })), 2);
        assert_eq!(a.applied_up_to(), Some(2));
        assert_eq!(a.state().get(7), Some(2));
    }

    #[test]
    fn duplicate_decision_same_command_is_idempotent() {
        let mut a = Applier::new(KvStore::new());
        let c = cmd(1, 1, Op::Put { key: 1, value: 9 });
        a.on_decided(0, c.clone());
        assert_eq!(a.on_decided(0, c), 0);
        assert_eq!(a.applied_log().len(), 1);
    }

    #[test]
    fn batch_applies_constituents_in_order_with_outputs() {
        let mut a = Applier::new(KvStore::new());
        let b = Command::batch(
            NodeId(0),
            1,
            vec![
                cmd(1, 1, Op::Put { key: 3, value: 30 }),
                cmd(2, 1, Op::Get { key: 3 }),
                cmd(1, 2, Op::Put { key: 3, value: 31 }),
            ],
        );
        assert_eq!(a.on_decided(0, b), 1);
        // One log slot, three applied operations.
        assert_eq!(a.applied_log().len(), 1);
        assert_eq!(a.state().writes(), 2);
        // The Get inside the batch saw the Put that preceded it.
        assert_eq!(a.output_of(NodeId(2), 1), Some(&Some(30)));
        assert_eq!(a.output_of(NodeId(1), 2), Some(&Some(30)));
        assert_eq!(a.state().get(3), Some(31));
    }

    #[test]
    fn command_retried_across_batches_applies_once() {
        let mut a = Applier::new(KvStore::new());
        let retried = cmd(1, 1, Op::Put { key: 5, value: 50 });
        a.on_decided(0, Command::batch(NodeId(0), 1, vec![retried.clone()]));
        a.on_decided(
            1,
            Command::batch(NodeId(1), 1, vec![retried, cmd(2, 1, Op::Noop)]),
        );
        assert_eq!(a.state().writes(), 1);
        assert_eq!(a.applied_log().len(), 2);
    }

    #[test]
    fn batches_from_one_engine_may_commit_out_of_order() {
        // Engine batch ids are not session-tracked: batch seq 2 deciding
        // before seq 1 (leader churn re-ordering) must not suppress seq 1.
        let mut a = Applier::new(KvStore::new());
        a.on_decided(
            0,
            Command::batch(NodeId(0), 2, vec![cmd(2, 1, Op::Put { key: 1, value: 2 })]),
        );
        a.on_decided(
            1,
            Command::batch(NodeId(0), 1, vec![cmd(3, 1, Op::Put { key: 2, value: 3 })]),
        );
        assert_eq!(a.state().get(1), Some(2));
        assert_eq!(a.state().get(2), Some(3));
        assert_eq!(a.state().writes(), 2);
    }

    #[test]
    #[should_panic(expected = "consistency violation")]
    fn duplicate_decision_different_command_panics() {
        let mut a = Applier::new(KvStore::new());
        a.on_decided(0, cmd(1, 1, Op::Noop));
        a.on_decided(0, cmd(2, 1, Op::Noop));
    }

    #[test]
    fn client_resubmission_applies_once() {
        let mut a = Applier::new(KvStore::new());
        // Client 1's request 1 committed in two instances (client retried).
        a.on_decided(0, cmd(1, 1, Op::Put { key: 5, value: 1 }));
        a.on_decided(1, cmd(1, 1, Op::Put { key: 5, value: 1 }));
        a.on_decided(2, cmd(1, 2, Op::Put { key: 5, value: 2 }));
        assert_eq!(a.state().get(5), Some(2));
        // The duplicate is in the log but was not re-applied.
        assert_eq!(a.applied_log().len(), 3);
        assert_eq!(a.state().writes(), 2);
    }

    #[test]
    fn outputs_are_recorded_per_request() {
        let mut a = Applier::new(KvStore::new());
        a.on_decided(0, cmd(1, 1, Op::Put { key: 3, value: 30 }));
        a.on_decided(1, cmd(2, 1, Op::Get { key: 3 }));
        assert_eq!(a.output_of(NodeId(2), 1), Some(&Some(30)));
        assert_eq!(a.output_of(NodeId(1), 1), Some(&None));
        assert_eq!(a.output_of(NodeId(3), 1), None);
    }

    #[test]
    fn outputs_stay_bounded_by_client_count() {
        // The unbounded-outputs regression: 10 000 requests from one
        // client must retain exactly one reply output — the latest per
        // client — so the map is O(clients), not O(requests).
        let mut a = Applier::new(KvStore::new());
        for i in 0..10_000u64 {
            a.on_decided(
                i,
                cmd(
                    1,
                    i + 1,
                    Op::Put {
                        key: i % 7,
                        value: i,
                    },
                ),
            );
        }
        assert_eq!(a.outputs_len(), 1);
        // The newest request is still answerable; its predecessor is not.
        assert!(a.output_of(NodeId(1), 10_000).is_some());
        assert_eq!(a.output_of(NodeId(1), 9_999), None);
        // A second client adds exactly one more retained output.
        a.on_decided(10_000, cmd(2, 1, Op::Get { key: 0 }));
        assert_eq!(a.outputs_len(), 2);
    }

    #[test]
    fn snapshot_sessions_are_sorted_by_client() {
        let mut a = Applier::new(KvStore::new());
        for (i, client) in [9u16, 2, 700, 5, 41, 3].into_iter().enumerate() {
            a.on_decided(i as Instance, cmd(client, 1, Op::Noop));
        }
        let clients: Vec<u16> = a.snapshot().sessions.iter().map(|(c, _)| c.0).collect();
        assert_eq!(clients, [2, 3, 5, 9, 41, 700]);
    }

    #[test]
    fn old_req_ids_are_stale() {
        let mut a = Applier::new(KvStore::new());
        a.on_decided(0, cmd(1, 5, Op::Put { key: 1, value: 5 }));
        // A very old retry decided later must not clobber newer state.
        a.on_decided(1, cmd(1, 4, Op::Put { key: 1, value: 4 }));
        assert_eq!(a.state().get(1), Some(5));
    }
}
