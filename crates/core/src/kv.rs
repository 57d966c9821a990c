//! A small key/value store used as the replicated state machine in the
//! examples and the read-workload experiment (Fig 10).
//!
//! The paper motivates software-managed replication for "specific
//! application state or configuration information \[that\] need to be shared
//! by multiple cores" (§1); a KV map is the canonical such state.

use std::collections::BTreeMap;

use crate::hash::WordMap;
use crate::rsm::{StateMachine, TxnStats};
use crate::txn::TxnStatus;
use crate::types::{NodeId, Op, TxnId, TxnVote, TxnWrites};

/// Capacity of the per-shard lock-wait queue: a conflicting prepare
/// beyond this parks nowhere and is turned away with [`TxnVote::Busy`].
/// The bound keeps a contention storm from accumulating unbounded parked
/// state in the replicated store (every entry pins its write set until
/// granted or finished).
pub const MAX_PARKED: usize = 32;

/// How many finished-transaction outcomes the store retains per
/// coordinator before GC'ing the oldest. A coordinator runs its
/// transactions sequentially (seq n+1 starts only after n's outcome),
/// so by the time seq n finishes, no correct participant or recovery
/// can still be asking about seqs ≤ n − `FINISHED_WINDOW`; those
/// entries only served to keep stale duplicates idempotent, which the
/// per-coordinator floor now does in O(1) space.
pub const FINISHED_WINDOW: u64 = 64;

/// Deterministic in-memory key/value store.
///
/// Besides plain puts and gets, the store is a 2PC **participant** for
/// cross-shard transactions (see [`crate::txn`]): an applied
/// [`Op::TxnPrepare`] stages the fragment and locks its keys (the vote
/// is the apply output, so it is as durable as the log that carried the
/// command), and the outcome command atomically applies or discards the
/// staged writes. A prepare that conflicts with a held lock does not
/// vote no outright: when wait-die allows (the requester is older than
/// every conflicting holder) it **parks** in a bounded lock-wait queue
/// ([`TxnVote::Wait`]) and is granted, in arrival order, as outcomes
/// release locks; otherwise it is turned away retryably
/// ([`TxnVote::Busy`]). Locks gate only the §7.5 local-read fast path —
/// log-ordered writes to a locked key simply serialize before the staged
/// fragment.
///
/// The key/value map is a hash table; key order only at
/// [`entries`](Self::entries)/[`digest`](Self::digest)/snapshot, which
/// sort at capture. The transaction tables stay ordered: they are
/// range-scanned by coordinator.
///
/// # Examples
///
/// ```
/// use onepaxos::kv::KvStore;
/// use onepaxos::rsm::StateMachine;
/// use onepaxos::Op;
///
/// let mut kv = KvStore::new();
/// assert_eq!(kv.apply(Op::Put { key: 1, value: 10 }), None);
/// assert_eq!(kv.apply(Op::Get { key: 1 }), Some(10));
/// assert_eq!(kv.get(1), Some(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct KvStore {
    map: WordMap<u64, u64>,
    writes: u64,
    reads: u64,
    /// Prepared transactions: fragment staged, keys locked, outcome
    /// pending.
    staged: BTreeMap<TxnId, TxnWrites>,
    /// Key → the prepared transaction holding its lock.
    locks: BTreeMap<u64, TxnId>,
    /// The lock-wait queue, in arrival order: prepares that conflicted
    /// with a holder but were **older** than every conflicting holder
    /// (wait-die), parked here holding *no* locks and staging nothing
    /// until [`Self::finish`]'s grant scan finds their keys free.
    /// Bounded by [`MAX_PARKED`]. Because parked entries hold nothing,
    /// the only wait edges in the system point from a parked (older)
    /// transaction to lock-holding (younger) ones — a cycle would need
    /// an old→young and a young→old edge under one total order, so
    /// deadlock is impossible by construction.
    parked: Vec<(TxnId, TxnWrites)>,
    /// Finished transactions (`true` = committed), so late or duplicate
    /// phase commands stay idempotent and recovery can query the
    /// outcome. Bounded: outcomes older than [`FINISHED_WINDOW`] seqs
    /// behind their coordinator's newest are GC'd, with
    /// [`Self::finished_floor`] preserving the "a finished transaction
    /// can never re-lock" invariant for the dropped prefix.
    finished: BTreeMap<TxnId, bool>,
    /// Per-coordinator GC floor over `finished`: every seq **below**
    /// the recorded value is known finished but its outcome has been
    /// dropped. Prepares below the floor are refused with a hard no
    /// (they can never re-lock); outcome replays below it echo without
    /// re-recording. O(coordinators), never GC'd itself.
    finished_floor: BTreeMap<NodeId, u64>,
    /// Prepare-traffic counters (see [`TxnStats`]).
    txn_stats: TxnStats,
}

/// Serializable image of a [`KvStore`] (see [`StateMachine::Snapshot`]):
/// the map **plus** the in-flight 2PC participant state — staged
/// fragments (locks are rebuilt from them on install), parked waiters,
/// the retained finished-outcome window and its GC floors — so a replica
/// that catches up by snapshot can still vote, grant and recover
/// transactions whose lock window straddles the snapshot boundary.
/// Observability counters ride along so an installed replica reports
/// sensible totals; `TxnStats` stays local (it meters this node's own
/// prepare traffic, not replicated state).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KvSnapshot {
    /// The key/value entries, in key order.
    pub map: Vec<(u64, u64)>,
    /// Applied-write counter at the watermark.
    pub writes: u64,
    /// Applied-read counter at the watermark.
    pub reads: u64,
    /// Prepared transactions: fragment staged, outcome pending.
    pub staged: Vec<(TxnId, TxnWrites)>,
    /// The lock-wait queue, in arrival order.
    pub parked: Vec<(TxnId, TxnWrites)>,
    /// Retained finished-transaction outcomes (`true` = committed).
    pub finished: Vec<(TxnId, bool)>,
    /// Per-coordinator finished-outcome GC floors (exclusive).
    pub finished_floor: Vec<(NodeId, u64)>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Reads `key` without counting it as an applied operation (used for
    /// local reads in 2PC-Joint, §7.5, and for assertions in tests).
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of applied write operations.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of applied read operations.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Iterates the `(key, value)` entries in key order (sorted at the
    /// call). Sharded deployments partition the key space, so merging
    /// per-shard replicas (for oracles and property tests) is a disjoint
    /// union of these.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sorted_entries().into_iter()
    }

    /// The `(key, value)` entries, sorted by key.
    fn sorted_entries(&self) -> Vec<(u64, u64)> {
        let mut entries: Vec<(u64, u64)> = self.map.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// Whether `key` is locked by a prepared (outcome-pending)
    /// transaction — the replica is inside that transaction's lock
    /// window for this key, so the §7.5 local-read fast path must wait
    /// (see [`StateMachine::blocks_local_read`]).
    pub fn txn_locked(&self, key: u64) -> bool {
        self.locks.contains_key(&key)
    }

    /// Number of keys currently locked by prepared transactions (test
    /// oracle: must drain to zero once every transaction has an
    /// outcome).
    pub fn txn_locks(&self) -> usize {
        self.locks.len()
    }

    /// This replica's **locally-applied** view of transaction `txn`
    /// (see [`TxnStatus`]) — a test oracle. A replica lagging its
    /// shard's decided log under-reports (e.g. `Unknown` for a
    /// committed transaction), so coordinator recovery must not read
    /// statuses here: it uses the agreed probe [`Op::TxnStatus`], which
    /// answers through this same method but only *after* the log has
    /// ordered the probe behind every earlier decision (see
    /// [`crate::txn::recover_outcome`]'s freshness contract).
    ///
    /// A transaction whose outcome was GC'd (below the per-coordinator
    /// [`FINISHED_WINDOW`] floor) reports `Unknown`: its coordinator ran
    /// ≥ `FINISHED_WINDOW` later transactions since, so no recovery can
    /// still be pending for it — and even a stale probe's abort decision
    /// is harmless, because prepares below the floor can never re-lock.
    pub fn txn_status(&self, txn: TxnId) -> TxnStatus {
        if self.staged.contains_key(&txn) {
            TxnStatus::Prepared
        } else {
            match self.finished.get(&txn) {
                Some(true) => TxnStatus::Committed,
                Some(false) => TxnStatus::Aborted,
                None => TxnStatus::Unknown,
            }
        }
    }

    /// Votes on `txn`'s fragment: stages it and locks its keys on yes
    /// ([`TxnVote::Commit`]); on a lock conflict, parks it in the
    /// bounded lock-wait queue when wait-die allows ([`TxnVote::Wait`] —
    /// the requester is older than every conflicting holder) and turns
    /// it away retryably otherwise ([`TxnVote::Busy`]). A hard no
    /// ([`TxnVote::Abort`]) only ever echoes an already-recorded abort.
    fn prepare(&mut self, txn: TxnId, writes: &TxnWrites) -> u64 {
        // Below the GC floor the transaction is certainly finished but
        // its outcome is gone: still never re-lock — answer a hard no,
        // which takes no locks and stages nothing. Only a hopelessly
        // stale duplicate (≥ FINISHED_WINDOW transactions behind its
        // own coordinator) can land here.
        if txn.seq < self.floor_of(txn.coordinator) {
            return TxnVote::Abort.as_output();
        }
        // A finished transaction can never re-enter its lock window: a
        // late or re-decided prepare echoes the recorded outcome.
        if let Some(&committed) = self.finished.get(&txn) {
            return if committed {
                TxnVote::Commit.as_output()
            } else {
                TxnVote::Abort.as_output()
            };
        }
        self.txn_stats.prepares += 1;
        if self.staged.contains_key(&txn) {
            // Duplicate prepare (or a re-probe of a since-granted parked
            // one): already locked by us.
            return TxnVote::Commit.as_output();
        }
        if self.parked.iter().any(|&(t, _)| t == txn) {
            // A re-probe of a still-parked transaction: keep waiting.
            return TxnVote::Wait.as_output();
        }
        let conflicted = writes.iter().any(|&(key, _)| self.locks.contains_key(&key));
        if !conflicted {
            for &(key, _) in writes.iter() {
                self.locks.insert(key, txn);
            }
            self.staged.insert(txn, writes.clone());
            return TxnVote::Commit.as_output();
        }
        // Wait-die: only a requester older than EVERY conflicting holder
        // may park (wait edges then all point old→young, so no cycle);
        // a younger requester must die — retryably, from the
        // coordinator's side — rather than wait.
        let older_than_holders = writes
            .iter()
            .all(|&(key, _)| self.locks.get(&key).is_none_or(|&holder| txn < holder));
        if older_than_holders && self.parked.len() < MAX_PARKED {
            self.parked.push((txn, writes.clone()));
            self.txn_stats.lock_waits += 1;
            self.txn_stats.wait_depth = self.txn_stats.wait_depth.max(self.parked.len());
            TxnVote::Wait.as_output()
        } else {
            self.txn_stats.busy_rejects += 1;
            TxnVote::Busy.as_output()
        }
    }

    /// Applies `txn`'s outcome; both directions are idempotent, and the
    /// first outcome to arrive wins forever. Releasing locks re-scans
    /// the lock-wait queue and grants (stages + locks) every parked
    /// prepare whose keys are now free, in arrival order — the granted
    /// coordinator collects its yes vote on the next re-probe.
    fn finish(&mut self, txn: TxnId, commit: bool) -> u64 {
        // A replay below the GC floor: the outcome was recorded and
        // dropped. Echo the requested direction (the coordinator only
        // ever resends the outcome it decided) without resurrecting a
        // map entry below the floor.
        if txn.seq < self.floor_of(txn.coordinator) {
            return if commit {
                TxnVote::Commit.as_output()
            } else {
                TxnVote::Abort.as_output()
            };
        }
        // An outcome reaching a transaction still parked (its
        // coordinator gave up waiting, or crashed and was recovered to
        // abort) must purge the queue entry: a later grant would re-lock
        // keys for a transaction whose fate is already sealed.
        self.parked.retain(|&(t, _)| t != txn);
        if let Some(writes) = self.staged.remove(&txn) {
            for &(key, value) in writes.iter() {
                self.locks.remove(&key);
                if commit {
                    self.writes += 1;
                    self.map.insert(key, value);
                }
            }
            self.grant_parked();
        }
        let recorded = *self.finished.entry(txn).or_insert(commit);
        self.gc_finished(txn.coordinator);
        if recorded {
            TxnVote::Commit.as_output()
        } else {
            TxnVote::Abort.as_output()
        }
    }

    /// The exclusive finished-outcome GC floor for `coordinator`: seqs
    /// below it are finished with their outcome dropped.
    fn floor_of(&self, coordinator: NodeId) -> u64 {
        self.finished_floor.get(&coordinator).copied().unwrap_or(0)
    }

    /// Advances `coordinator`'s GC floor so at most [`FINISHED_WINDOW`]
    /// outcomes stay recorded for it, and drops the entries below. The
    /// floor chases the coordinator's *newest* finished seq, so one
    /// sequential coordinator holds a sliding window regardless of how
    /// many transactions it has ever run.
    fn gc_finished(&mut self, coordinator: NodeId) {
        let newest = self
            .finished
            .range(TxnId::new(coordinator, 0)..=TxnId::new(coordinator, u64::MAX))
            .next_back()
            .map(|(t, _)| t.seq);
        let Some(newest) = newest else { return };
        let floor = (newest + 1).saturating_sub(FINISHED_WINDOW);
        if floor <= self.floor_of(coordinator) {
            return;
        }
        self.finished_floor.insert(coordinator, floor);
        let stale: Vec<TxnId> = self
            .finished
            .range(TxnId::new(coordinator, 0)..TxnId::new(coordinator, floor))
            .map(|(&t, _)| t)
            .collect();
        for t in stale {
            self.finished.remove(&t);
        }
    }

    /// Grants every parked prepare whose keys are all free, oldest
    /// arrival first, repeating until a full pass grants nothing (one
    /// grant can never free keys for another — grants only *take* locks
    /// — but the loop keeps the policy obviously complete).
    fn grant_parked(&mut self) {
        loop {
            let mut granted = false;
            let mut i = 0;
            while i < self.parked.len() {
                let free = self.parked[i]
                    .1
                    .iter()
                    .all(|&(key, _)| !self.locks.contains_key(&key));
                if free {
                    let (txn, writes) = self.parked.remove(i);
                    for &(key, _) in writes.iter() {
                        self.locks.insert(key, txn);
                    }
                    self.staged.insert(txn, writes);
                    granted = true;
                } else {
                    i += 1;
                }
            }
            if !granted {
                break;
            }
        }
    }

    /// Number of prepares currently parked in the lock-wait queue (test
    /// oracle: must drain to zero once every transaction has an
    /// outcome).
    pub fn txn_parked(&self) -> usize {
        self.parked.len()
    }

    /// Number of retained finished-transaction outcomes (RSS proxy:
    /// bounded by coordinators × [`FINISHED_WINDOW`] under GC).
    pub fn finished_len(&self) -> usize {
        self.finished.len()
    }

    /// A digest of the full contents, for cheap cross-replica equality
    /// checks in tests (FNV-1a over the sorted entries).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in self.sorted_entries() {
            for w in [k, v] {
                for b in w.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }
}

impl StateMachine for KvStore {
    /// `Put` returns the previous value; `Get` returns the current value;
    /// `Noop` returns `None`. A `TxnPrepare` returns its vote
    /// ([`TxnVote::as_output`]); outcome phases return the recorded
    /// outcome (`TxnVote::Commit`/`TxnVote::Abort`); `MultiPut` returns
    /// the number of keys written; `TxnStatus` returns the encoded
    /// status ([`TxnStatus::as_output`]).
    type Output = Option<u64>;

    type Snapshot = KvSnapshot;

    fn txn_stats(&self) -> TxnStats {
        TxnStats {
            finished_len: self.finished.len(),
            ..self.txn_stats
        }
    }

    fn read_local(&self, key: u64) -> Self::Output {
        self.get(key)
    }

    /// Keys locked by a prepared transaction are unreadable until its
    /// outcome (see [`crate::txn`]).
    fn blocks_local_read(&self, key: u64) -> bool {
        self.txn_locked(key)
    }

    fn snapshot(&self) -> KvSnapshot {
        KvSnapshot {
            map: self.sorted_entries(),
            writes: self.writes,
            reads: self.reads,
            staged: self.staged.iter().map(|(&t, w)| (t, w.clone())).collect(),
            parked: self.parked.clone(),
            finished: self.finished.iter().map(|(&t, &c)| (t, c)).collect(),
            finished_floor: self.finished_floor.iter().map(|(&c, &f)| (c, f)).collect(),
        }
    }

    fn install(&mut self, snap: KvSnapshot) {
        self.map = snap.map.into_iter().collect();
        self.writes = snap.writes;
        self.reads = snap.reads;
        self.staged = snap.staged.into_iter().collect();
        // Locks are exactly the keys of staged fragments — rebuild
        // rather than ship them.
        self.locks = self
            .staged
            .iter()
            .flat_map(|(&txn, writes)| writes.iter().map(move |&(key, _)| (key, txn)))
            .collect();
        self.parked = snap.parked;
        self.finished = snap.finished.into_iter().collect();
        self.finished_floor = snap.finished_floor.into_iter().collect();
    }

    fn apply(&mut self, op: Op) -> Self::Output {
        match op {
            Op::Noop => None,
            Op::Put { key, value } => {
                self.writes += 1;
                self.map.insert(key, value)
            }
            Op::Get { key } => {
                self.reads += 1;
                self.get(key)
            }
            Op::MultiPut { writes } => {
                // The single-shard transaction short-circuit: one
                // command, all writes — atomic by construction, since a
                // state-machine step is indivisible to every read path.
                for &(key, value) in writes.iter() {
                    self.writes += 1;
                    self.map.insert(key, value);
                }
                Some(writes.len() as u64)
            }
            Op::TxnPrepare { txn, writes } => Some(self.prepare(txn, &writes)),
            Op::TxnCommit { txn, .. } => Some(self.finish(txn, true)),
            Op::TxnAbort { txn, .. } => Some(self.finish(txn, false)),
            Op::TxnStatus { txn, .. } => {
                // The agreed status probe: by the time it applies, this
                // replica has applied the shard's full decided prefix,
                // so the local view it reports is fresh by construction.
                self.reads += 1;
                Some(self.txn_status(txn).as_output())
            }
            // Truncation is log bookkeeping: the Applier drops its
            // retained prefix when this applies; the store itself has
            // nothing to do.
            Op::Truncate { .. } => None,
            // The RSM layer unpacks batches into per-command applications
            // before they reach any state machine.
            Op::Batch(_) => unreachable!("Op::Batch must be unpacked by the Applier"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_returns_previous_value() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(Op::Put { key: 1, value: 1 }), None);
        assert_eq!(kv.apply(Op::Put { key: 1, value: 2 }), Some(1));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn counters_track_op_kinds() {
        let mut kv = KvStore::new();
        kv.apply(Op::Put { key: 1, value: 1 });
        kv.apply(Op::Get { key: 1 });
        kv.apply(Op::Noop);
        assert_eq!(kv.writes(), 1);
        assert_eq!(kv.reads(), 1);
    }

    #[test]
    fn digest_detects_divergence() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.apply(Op::Put { key: 1, value: 1 });
        b.apply(Op::Put { key: 1, value: 1 });
        assert_eq!(a.digest(), b.digest());
        b.apply(Op::Put { key: 2, value: 2 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn prepare_stages_and_locks_without_touching_the_map() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        kv.apply(Op::Put { key: 1, value: 10 });
        let txn = TxnId::new(NodeId(9), 1);
        let writes: TxnWrites = vec![(1, 11), (2, 22)].into();
        assert_eq!(
            kv.apply(Op::TxnPrepare { txn, writes }),
            Some(TxnVote::Commit.as_output())
        );
        // Staged, locked, but not visible.
        assert_eq!(kv.get(1), Some(10));
        assert_eq!(kv.get(2), None);
        assert!(kv.txn_locked(1) && kv.txn_locked(2) && !kv.txn_locked(3));
        assert_eq!(kv.txn_locks(), 2);
        assert_eq!(kv.txn_status(txn), TxnStatus::Prepared);
        // Commit applies atomically and releases the locks.
        assert_eq!(
            kv.apply(Op::TxnCommit { txn, key: 1 }),
            Some(TxnVote::Commit.as_output())
        );
        assert_eq!(kv.get(1), Some(11));
        assert_eq!(kv.get(2), Some(22));
        assert_eq!(kv.txn_locks(), 0);
        assert_eq!(kv.txn_status(txn), TxnStatus::Committed);
    }

    #[test]
    fn conflicting_younger_prepare_is_turned_away_and_takes_no_locks() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        let first = TxnId::new(NodeId(9), 1);
        let second = TxnId::new(NodeId(10), 1); // younger: NodeId(10) > NodeId(9)
        kv.apply(Op::TxnPrepare {
            txn: first,
            writes: vec![(5, 50)].into(),
        });
        // Overlapping fragment from a younger transaction: wait-die says
        // die (retryably), and crucially no partial locks land on the
        // non-conflicting key.
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn: second,
                writes: vec![(5, 99), (6, 60)].into(),
            }),
            Some(TxnVote::Busy.as_output())
        );
        assert!(!kv.txn_locked(6), "losing prepare must not lock anything");
        assert_eq!(kv.txn_parked(), 0, "a Busy reject parks nothing");
        assert_eq!(kv.txn_status(second), TxnStatus::Unknown);
        // Once the holder commits, a retry of the same prepare succeeds.
        kv.apply(Op::TxnCommit { txn: first, key: 5 });
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn: second,
                writes: vec![(5, 99), (6, 60)].into(),
            }),
            Some(TxnVote::Commit.as_output())
        );
    }

    #[test]
    fn conflicting_older_prepare_parks_and_is_granted_on_release() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        let holder = TxnId::new(NodeId(9), 1);
        let older = TxnId::new(NodeId(3), 1); // older: NodeId(3) < NodeId(9)
        kv.apply(Op::TxnPrepare {
            txn: holder,
            writes: vec![(5, 50)].into(),
        });
        // The older requester parks (wait-die): no vote yet, no locks
        // taken, nothing staged — recovery would see Unknown and may
        // safely abort it.
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn: older,
                writes: vec![(5, 99), (6, 60)].into(),
            }),
            Some(TxnVote::Wait.as_output())
        );
        assert_eq!(kv.txn_parked(), 1);
        assert!(!kv.txn_locked(6), "parked prepares hold no locks");
        assert_eq!(kv.txn_status(older), TxnStatus::Unknown);
        // A re-probe while still parked keeps waiting.
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn: older,
                writes: vec![(5, 99), (6, 60)].into(),
            }),
            Some(TxnVote::Wait.as_output())
        );
        // The holder's outcome releases the lock and grants the parked
        // prepare: staged + locked, and the next re-probe collects yes.
        kv.apply(Op::TxnCommit {
            txn: holder,
            key: 5,
        });
        assert_eq!(kv.txn_parked(), 0);
        assert!(kv.txn_locked(5) && kv.txn_locked(6));
        assert_eq!(kv.txn_status(older), TxnStatus::Prepared);
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn: older,
                writes: vec![(5, 99), (6, 60)].into(),
            }),
            Some(TxnVote::Commit.as_output())
        );
        // Its commit applies the fragment over the holder's value.
        kv.apply(Op::TxnCommit { txn: older, key: 5 });
        assert_eq!(kv.get(5), Some(99));
        assert_eq!(kv.get(6), Some(60));
        assert_eq!(kv.txn_locks(), 0);
    }

    #[test]
    fn outcome_for_a_parked_transaction_purges_the_queue_entry() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        let holder = TxnId::new(NodeId(9), 1);
        let parked = TxnId::new(NodeId(3), 1);
        kv.apply(Op::TxnPrepare {
            txn: holder,
            writes: vec![(5, 50)].into(),
        });
        kv.apply(Op::TxnPrepare {
            txn: parked,
            writes: vec![(5, 99)].into(),
        });
        assert_eq!(kv.txn_parked(), 1);
        // The parked transaction's coordinator gives up (or dies and is
        // recovered to abort): the abort must purge the queue entry so a
        // later release cannot re-lock keys for a dead transaction.
        assert_eq!(
            kv.apply(Op::TxnAbort {
                txn: parked,
                key: 5
            }),
            Some(TxnVote::Abort.as_output())
        );
        assert_eq!(kv.txn_parked(), 0);
        kv.apply(Op::TxnCommit {
            txn: holder,
            key: 5,
        });
        assert_eq!(kv.txn_locks(), 0, "no zombie grant after the purge");
        assert_eq!(kv.txn_status(parked), TxnStatus::Aborted);
        // And a late re-probe of the aborted transaction cannot lock.
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn: parked,
                writes: vec![(5, 99)].into(),
            }),
            Some(TxnVote::Abort.as_output())
        );
        assert_eq!(kv.txn_locks(), 0);
    }

    #[test]
    fn abort_discards_the_staged_fragment_and_outcomes_are_idempotent() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        let txn = TxnId::new(NodeId(9), 1);
        kv.apply(Op::TxnPrepare {
            txn,
            writes: vec![(7, 70)].into(),
        });
        assert_eq!(
            kv.apply(Op::TxnAbort { txn, key: 7 }),
            Some(TxnVote::Abort.as_output())
        );
        assert_eq!(kv.get(7), None);
        assert_eq!(kv.txn_locks(), 0);
        assert_eq!(kv.txn_status(txn), TxnStatus::Aborted);
        // A duplicate abort, and even a late commit, echo the recorded
        // outcome instead of resurrecting the transaction.
        assert_eq!(
            kv.apply(Op::TxnAbort { txn, key: 7 }),
            Some(TxnVote::Abort.as_output())
        );
        assert_eq!(
            kv.apply(Op::TxnCommit { txn, key: 7 }),
            Some(TxnVote::Abort.as_output())
        );
        assert_eq!(kv.get(7), None);
        // A late re-prepare of the dead transaction cannot lock.
        assert_eq!(
            kv.apply(Op::TxnPrepare {
                txn,
                writes: vec![(7, 70)].into(),
            }),
            Some(TxnVote::Abort.as_output())
        );
        assert_eq!(kv.txn_locks(), 0);
    }

    #[test]
    fn status_probe_reports_each_phase_without_mutating_state() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        let txn = TxnId::new(NodeId(9), 1);
        let probe = Op::TxnStatus { txn, key: 1 };
        assert_eq!(
            kv.apply(probe.clone()),
            Some(TxnStatus::Unknown.as_output())
        );
        kv.apply(Op::TxnPrepare {
            txn,
            writes: vec![(1, 11)].into(),
        });
        assert_eq!(
            kv.apply(probe.clone()),
            Some(TxnStatus::Prepared.as_output())
        );
        assert_eq!(kv.txn_locks(), 1, "probing must not disturb the window");
        kv.apply(Op::TxnCommit { txn, key: 1 });
        assert_eq!(kv.apply(probe), Some(TxnStatus::Committed.as_output()));
        assert_eq!(kv.get(1), Some(11));
    }

    #[test]
    fn log_ordered_put_on_a_locked_key_serializes_before_the_fragment() {
        use crate::types::NodeId;
        let mut kv = KvStore::new();
        let txn = TxnId::new(NodeId(9), 1);
        kv.apply(Op::TxnPrepare {
            txn,
            writes: vec![(3, 30)].into(),
        });
        // The put lands (the log already ordered it)…
        kv.apply(Op::Put { key: 3, value: 5 });
        assert_eq!(kv.get(3), Some(5));
        // …and the committed fragment overwrites it: a valid serial
        // order (put before transaction).
        kv.apply(Op::TxnCommit { txn, key: 3 });
        assert_eq!(kv.get(3), Some(30));
    }

    #[test]
    fn multiput_applies_every_write_in_one_step() {
        let mut kv = KvStore::new();
        let out = kv.apply(Op::MultiPut {
            writes: vec![(1, 10), (2, 20), (1, 11)].into(),
        });
        assert_eq!(out, Some(3));
        assert_eq!(kv.get(1), Some(11), "in-order application");
        assert_eq!(kv.get(2), Some(20));
        assert_eq!(kv.writes(), 3);
        assert_eq!(kv.txn_locks(), 0, "no lock window for the short-circuit");
    }

    #[test]
    fn digest_is_order_independent_for_same_contents() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.apply(Op::Put { key: 1, value: 10 });
        a.apply(Op::Put { key: 2, value: 20 });
        b.apply(Op::Put { key: 2, value: 20 });
        b.apply(Op::Put { key: 1, value: 10 });
        assert_eq!(a.digest(), b.digest());
        // Enough keys, inserted ascending and descending, that the two
        // hash tables grow through different layouts.
        for key in 3..200 {
            a.apply(Op::Put {
                key,
                value: key * 10,
            });
            b.apply(Op::Put {
                key: 202 - key,
                value: (202 - key) * 10,
            });
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.snapshot(), b.snapshot());
        let entries: Vec<(u64, u64)> = a.entries().collect();
        assert_eq!(entries, b.entries().collect::<Vec<_>>());
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "ascending keys"
        );
        assert_eq!(entries.len(), 199);
        assert_eq!(a.snapshot().map, entries, "snapshot map in key order");
    }
}
