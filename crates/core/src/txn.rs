//! Cross-shard atomic transactions: classic 2PC run **across** the
//! per-shard consensus groups, every phase decision made durable by the
//! participant shard's own replicated log — the "transaction commit over
//! replicated participants" construction the paper's §6 building blocks
//! enable.
//!
//! PR 3 sharded the engine into independent key-hash-routed groups
//! ([`crate::shard`]), which is exactly why a multi-key write spanning
//! groups loses atomicity: each shard's log orders only its own keys.
//! This module restores atomicity with the in-tree 2PC protocol lifted
//! one level: the *participants* of the 2PC round are no longer
//! individual replicas (as in [`crate::twopc`]) but whole **shard
//! groups**, and each phase message is an ordinary client command agreed
//! by the group's [`ReplicaEngine`](crate::engine::ReplicaEngine):
//!
//! * [`Op::TxnPrepare`] — the shard votes on (and stages + locks) its
//!   fragment of the write set. The vote is the command's state-machine
//!   output, so it lives in the shard's log: **a replica crash never
//!   loses a vote**, and any node that replays the log re-derives it.
//! * [`Op::TxnCommit`] / [`Op::TxnAbort`] — the outcome, likewise one
//!   agreed command per touched shard. A shard applies its staged
//!   fragment **atomically in one state-machine step** at commit, which
//!   is what keeps relaxed readers from ever observing half a
//!   transaction.
//!
//! Between prepare and outcome, the touched keys are locked in the
//! [`KvStore`](crate::kv::KvStore) replica; the engine's §7.5 local-read
//! gate is extended to refuse relaxed reads of locked keys (the reader
//! waits the window out, exactly like a 2PC lock window in
//! [`crate::twopc`]).
//!
//! # The coordinator
//!
//! [`TxnCoordinator`] is a **client-side**, sans-IO state machine: it
//! turns a multi-key write set into per-shard [`Fragment`]s and consumes
//! the replies. Its driver owns transport and retries: the
//! [`ClientSession`](crate::client::ClientSession) that the runtime's
//! `ClientHandle::txn_put` and the simulator's `TxnMix` clients both run,
//! or the TestNet driver, whose callers script coordinator crashes and
//! recovery by hand:
//!
//! ```text
//! coordinator                 shard A (Paxos group)    shard B (Paxos group)
//!     | begin(writes)               |                        |
//!     |--- TxnPrepare(frag A) ----->| agree + stage + lock   |
//!     |--- TxnPrepare(frag B) ---------------------------- ->| agree + stage + lock
//!     |<-- reply: vote A -----------|                        |
//!     |<-- reply: vote B ------------------------------------|
//!     | all yes => Decided(Committed): EARLY ACK to caller   |
//!     |--- TxnCommit -------------->| agree + apply + unlock |
//!     |--- TxnCommit ------------------------------------- ->| agree + apply + unlock
//!     |    (acks drain in the background; the caller is      |
//!     |     already preparing its next transaction)          |
//! ```
//!
//! A write set owned by a single shard short-circuits to one
//! [`Op::MultiPut`] — no lock window, no second phase, batch-compatible
//! like any plain put.
//!
//! # The fan-out hot path
//!
//! Two compounding optimizations keep multi-shard transactions off the
//! abort-retry cliff:
//!
//! 1. **Ordered, pipelined lock acquisition + lock-wait queues.**
//!    [`TxnCoordinator::begin`] emits prepare fragments in shard-id
//!    order (pipelined — nothing waits for a vote), and a conflicting
//!    prepare no longer votes no: the `KvStore` participant parks it in
//!    a bounded lock-wait queue when wait-die allows
//!    ([`crate::types::TxnVote::Wait`]) and turns it away retryably
//!    otherwise ([`crate::types::TxnVote::Busy`]). Conflicts become
//!    short serialized waits instead of abort-retry storms.
//! 2. **Pipelined outcome phase (presumed-durability early ack).** Once
//!    the votes force the outcome, [`TxnStep::Decided`] hands the
//!    result to the caller immediately and the commit/abort fan-out
//!    drains asynchronously — safe because [`recover_outcome`]'s
//!    all-prepared-commits rule reconstructs exactly the same decision
//!    if the coordinator dies mid-fan-out.
//!
//! A wait/busy vote queues a re-probe under a fresh request id
//! ([`TxnCoordinator::take_deferred`]); the driver sends it at once, and
//! the shard parks it behind the lock holder.
//!
//! # Failure matrix
//!
//! | failure                                    | consequence |
//! |--------------------------------------------|-------------|
//! | participant **replica** crashes mid-prepare | nothing lost: the vote is a decided command in the shard's log; the group keeps serving (its protocol's own failover) |
//! | coordinator crashes **before any prepare decides** | no shard staged anything; nothing to clean up |
//! | coordinator crashes **after a strict subset prepared** | prepared shards hold locks; recovery (below) queries every shard and aborts — the missing vote proves no commit was ever sent |
//! | coordinator crashes **after all shards prepared** | recovery finds unanimous yes votes and may commit (the coordinator could only ever have decided commit) |
//! | coordinator crashes **mid-outcome**        | recovery finds the outcome on ≥1 shard and replays it to the rest |
//!
//! Recovery ([`recover_outcome`] + [`TxnCoordinator::begin_recovery`])
//! reads per-shard [`TxnStatus`]es and drives the uniquely-safe outcome.
//! Two preconditions make it safe:
//!
//! 1. It must run only once the original coordinator is known dead (the
//!    outcome commands are idempotent per shard, but a *racing* live
//!    coordinator could disagree with recovery — the classic 2PC window
//!    that only a replicated coordinator log would close; see the
//!    README's failure matrix).
//! 2. Each status must reflect its shard's full decided log prefix —
//!    read it with the **agreed probe** [`Op::TxnStatus`], itself a
//!    command ordered by the shard's consensus, never from a replica's
//!    relaxed local state (a lagging replica under-reports and would
//!    steer recovery into a non-atomic abort; see
//!    [`recover_outcome`]'s freshness contract).
//!
//! Locks do **not** block unrelated writes: a plain [`Op::Put`] to a
//! locked key is already serialized by the shard's log and simply lands
//! *before* the staged fragment (which overwrites it at commit) — a
//! valid serial order. Locks exist to gate the §7.5 relaxed-read fast
//! path, whose readers bypass the log.

use std::collections::BTreeMap;

use crate::shard::{ShardId, ShardRouter};
use crate::types::{NodeId, Op, TxnId, TxnVote, TxnWrites};

/// State-machine output of a yes vote ([`Op::TxnPrepare`]) and of an
/// applied [`Op::TxnCommit`] — [`TxnVote::Commit`]'s encoding, kept as a
/// named constant for callers that deal in raw outputs.
pub const TXN_VOTE_COMMIT: u64 = 1;

/// State-machine output of a no vote and of an applied [`Op::TxnAbort`]
/// — [`TxnVote::Abort`]'s encoding.
pub const TXN_VOTE_ABORT: u64 = 0;

/// How many [`TxnVote::Wait`] replies per shard the coordinator absorbs
/// (re-probing with a fresh request id each time) before giving up and
/// aborting the transaction. Parked prepares normally resolve within a
/// couple of re-probes — the holder's outcome releases the locks — so
/// exhausting this patience means the holder is stuck (most likely a
/// dead coordinator whose recovery hasn't run); aborting breaks the
/// cross-shard poll-wait cycle that shard-local wait-die cannot see.
const WAIT_PATIENCE: u32 = 12;

/// How many [`TxnVote::Busy`] replies per shard before aborting. Busy
/// means wait-die made this (younger) transaction die retryably; a few
/// re-probes usually land after the holder finishes.
const BUSY_PATIENCE: u32 = 12;

/// Final fate of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Every touched shard voted yes and applied its fragment.
    Committed,
    /// At least one shard refused (lock conflict) or recovery found the
    /// prepare incomplete; no fragment was applied anywhere.
    Aborted,
}

/// One shard's view of a transaction, as recorded by its replicated
/// [`KvStore`](crate::kv::KvStore) — what a recovering coordinator
/// queries to re-derive the outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// No prepare for this transaction has been applied here.
    Unknown,
    /// Voted yes; fragment staged, locks held, awaiting the outcome.
    Prepared,
    /// Outcome applied: the fragment's writes landed.
    Committed,
    /// Outcome applied: the fragment was discarded.
    Aborted,
}

impl TxnStatus {
    /// Encodes this status as the state-machine output of an applied
    /// [`Op::TxnStatus`] probe (the agreed status read recovery uses).
    pub fn as_output(self) -> u64 {
        match self {
            TxnStatus::Unknown => 0,
            TxnStatus::Prepared => 1,
            TxnStatus::Committed => 2,
            TxnStatus::Aborted => 3,
        }
    }

    /// Decodes a probe's output; `None` for values no probe produces.
    pub fn from_output(v: u64) -> Option<TxnStatus> {
        match v {
            0 => Some(TxnStatus::Unknown),
            1 => Some(TxnStatus::Prepared),
            2 => Some(TxnStatus::Committed),
            3 => Some(TxnStatus::Aborted),
            _ => None,
        }
    }
}

/// One per-shard request the harness must submit on the coordinator's
/// behalf (as an ordinary client command of the coordinator's identity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// The shard group this request belongs to.
    pub shard: ShardId,
    /// The coordinator-client's request id for it.
    pub req_id: u64,
    /// The command (prepare, commit, abort or single-shard multi-put).
    pub op: Op,
}

/// What the coordinator wants next after consuming a reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnStep {
    /// Nothing yet: the reply was stale, valueless, or votes are still
    /// outstanding. (A wait/busy vote also lands here — it queues a
    /// re-probe, see [`TxnCoordinator::take_deferred`].)
    Pending,
    /// Phase transition: submit these outcome fragments and keep feeding
    /// replies (recovery drives its outcome this way and waits for the
    /// acknowledgements before reporting [`TxnStep::Done`]).
    Submit(Vec<Fragment>),
    /// The outcome is **forced** — unanimous yes votes can only ever
    /// become a commit (exactly the decision [`recover_outcome`]'s
    /// all-prepared rule reconstructs), a no vote can only become an
    /// abort — so the harness reports `outcome` to the caller *now* and
    /// fans `submit` out asynchronously: the outcome phase of this
    /// transaction overlaps the prepare phase of the next one (early
    /// ack). The coordinator tracks the fan-out in its drain queue
    /// ([`TxnCoordinator::draining`]) and absorbs the acknowledgements
    /// as [`TxnStep::Pending`].
    Decided {
        /// The transaction's (already decided) fate.
        outcome: TxnOutcome,
        /// One commit/abort fragment per touched shard, to submit
        /// asynchronously.
        submit: Vec<Fragment>,
    },
    /// The transaction finished (single-shard short-circuit, or a
    /// recovery's outcome fan-out fully acknowledged).
    Done(TxnOutcome),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Single-shard short-circuit: one [`Op::MultiPut`] in flight.
    Single,
    /// Waiting for every touched shard's vote.
    Preparing,
    /// Waiting for every touched shard to acknowledge the outcome.
    Outcome(TxnOutcome),
}

#[derive(Debug)]
struct Active {
    txn: TxnId,
    phase: Phase,
    /// Fragments awaiting a reply: req_id → (shard, op) — the op kept
    /// for retransmission.
    outstanding: BTreeMap<u64, (ShardId, Op)>,
    /// Votes collected so far (prepare phase).
    votes: BTreeMap<ShardId, bool>,
    /// The per-shard write-set fragments (outcome routing keys come from
    /// here).
    fragments: BTreeMap<ShardId, TxnWrites>,
    /// Per-shard count of `Wait` votes absorbed (parked behind a
    /// holder); exhausting [`WAIT_PATIENCE`] aborts the transaction.
    waits: BTreeMap<ShardId, u32>,
    /// Per-shard count of `Busy` votes absorbed (wait-die retryable
    /// die); exhausting [`BUSY_PATIENCE`] aborts the transaction.
    busys: BTreeMap<ShardId, u32>,
}

/// One early-acked transaction's outcome legs still awaiting shard
/// acknowledgements, by request id. The client already has the outcome;
/// these exist so the harness can keep retransmitting until every shard
/// has applied it (the commands are idempotent and log-driven, so
/// duplicates are free).
type Drain = BTreeMap<u64, (ShardId, Op)>;

/// Client-side 2PC-over-Paxos coordinator; see the [module docs](self)
/// for the protocol and failure story.
///
/// One coordinator per client, living as long as the client: it owns the
/// client's transaction sequence numbers and request ids (a
/// [`ClientSession`](crate::client::ClientSession) draws its plain
/// commands' ids from the same counter), both strictly increasing —
/// which is what keeps the per-shard [`Applier`](crate::rsm::Applier)
/// sessions' at-most-once dedup sound for fragments, and what keeps
/// [`TxnId`]s unique (shards remember finished ids forever, so a reused
/// id would make a new prepare echo the old outcome without staging
/// anything).
///
/// # Examples
///
/// ```
/// use onepaxos::shard::ShardRouter;
/// use onepaxos::txn::TxnCoordinator;
/// use onepaxos::NodeId;
///
/// let mut coord = TxnCoordinator::new(NodeId(9), ShardRouter::new(4));
/// let frags = coord.begin(&[(1, 10), (2, 20), (3, 30)]);
/// // One fragment per touched shard, ready for the harness to submit.
/// assert!(!frags.is_empty() && coord.in_flight());
/// ```
#[derive(Debug)]
pub struct TxnCoordinator {
    client: NodeId,
    router: ShardRouter,
    next_req: u64,
    next_seq: u64,
    active: Option<Active>,
    /// Outcome fan-outs of early-acked transactions still collecting
    /// shard acknowledgements; a new transaction may begin while these
    /// drain (phase 2 of txn *n* overlaps phase 1 of txn *n+1*).
    draining: Vec<Drain>,
    /// Re-probe fragments produced by wait/busy votes, for the driver
    /// to send ([`Self::take_deferred`]).
    deferred: Vec<Fragment>,
    /// Cumulative re-probe fragments issued (bench: the `retries`
    /// column).
    reprobes: u64,
}

impl TxnCoordinator {
    /// Creates a coordinator for `client` over `router`'s shard space,
    /// with request ids and transaction sequence numbers starting at 1.
    pub fn new(client: NodeId, router: ShardRouter) -> Self {
        TxnCoordinator {
            client,
            router,
            next_req: 1,
            next_seq: 1,
            active: None,
            draining: Vec::new(),
            deferred: Vec::new(),
            reprobes: 0,
        }
    }

    /// The client identity fragments are submitted under.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// Allocates the next request id of the client's one counter — for a
    /// driver that sends plain commands under the same identity (the
    /// [`ClientSession`](crate::client::ClientSession)), so a command
    /// and a fragment never share an id.
    pub(crate) fn alloc_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// Whether a transaction is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.active.is_some()
    }

    /// The id of the in-flight transaction, if any (single-shard
    /// short-circuits have none — they are plain commands).
    pub fn current_txn(&self) -> Option<TxnId> {
        self.active
            .as_ref()
            .filter(|a| a.phase != Phase::Single)
            .map(|a| a.txn)
    }

    /// Every still-unanswered fragment, in request-id order (for bulk
    /// retransmission): the drain queues oldest first, whose ids were
    /// all drawn before the active transaction's, then that one's.
    pub fn outstanding_fragments(&self) -> Vec<Fragment> {
        let active = self.active.iter().flat_map(|a| a.outstanding.iter());
        let drains = self.draining.iter().flatten();
        drains
            .chain(active)
            .map(|(&req_id, (shard, op))| Fragment {
                shard: *shard,
                req_id,
                op: op.clone(),
            })
            .collect()
    }

    /// Whether any early-acked transaction's outcome fan-out is still
    /// collecting acknowledgements.
    pub fn draining(&self) -> bool {
        !self.draining.is_empty()
    }

    /// Takes the re-probe fragments queued by wait/busy votes, for the
    /// driver to send at once: the shard parks a `Wait` re-probe behind
    /// the lock holder, and a `Busy` one is re-evaluated on arrival.
    pub fn take_deferred(&mut self) -> Vec<Fragment> {
        std::mem::take(&mut self.deferred)
    }

    /// Drops the in-flight transaction undecided — for a driver that
    /// gave up on it (its retry budget ran out). Its [`TxnId`] stays
    /// burned, and late replies to its fragments read as unknown ids.
    /// Shards it prepared on keep their locks until a recovery pass
    /// resolves it, as after a coordinator crash (see the failure
    /// matrix). Outcome legs still draining are kept.
    pub(crate) fn abandon(&mut self) {
        self.active = None;
        self.deferred.clear();
    }

    /// Cumulative re-probe fragments issued after wait/busy votes (the
    /// bench's `retries` column).
    pub fn reprobes(&self) -> u64 {
        self.reprobes
    }

    /// Partitions `writes` by owning shard, in shard order.
    fn partition(&self, writes: &[(u64, u64)]) -> BTreeMap<ShardId, Vec<(u64, u64)>> {
        let mut by_shard: BTreeMap<ShardId, Vec<(u64, u64)>> = BTreeMap::new();
        for &(key, value) in writes {
            by_shard
                .entry(self.router.route_key(key))
                .or_default()
                .push((key, value));
        }
        by_shard
    }

    /// Starts a transaction writing `writes` and returns the phase-1
    /// fragments to submit: one [`Op::TxnPrepare`] per touched shard, or
    /// a single [`Op::MultiPut`] when one shard owns every key (the
    /// short-circuit — no lock window, no second phase).
    ///
    /// Fragments come back in **shard-id order** (the partition is a
    /// `BTreeMap`), and the harness should emit them in that order:
    /// every coordinator acquiring locks along the same global shard
    /// order keeps lock-intent ordering consistent across the per-link
    /// FIFO transports, which combines with the participant's wait-die
    /// queue to make conflicting prepares serialize instead of storming.
    /// Emission is pipelined, not serialized — the next fragment goes
    /// out as soon as the previous one is handed to its (ordered) link,
    /// never waiting for a vote.
    ///
    /// A new transaction may begin while earlier early-acked
    /// transactions are still [`Self::draining`] their outcome fan-outs.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already in flight or `writes` is
    /// empty.
    pub fn begin(&mut self, writes: &[(u64, u64)]) -> Vec<Fragment> {
        assert!(self.active.is_none(), "a transaction is already in flight");
        assert!(!writes.is_empty(), "a transaction writes at least one key");
        let by_shard = self.partition(writes);
        let txn = TxnId::new(self.client, self.next_seq);
        self.next_seq += 1;
        let mut active = Active {
            txn,
            phase: if by_shard.len() == 1 {
                Phase::Single
            } else {
                Phase::Preparing
            },
            outstanding: BTreeMap::new(),
            votes: BTreeMap::new(),
            fragments: BTreeMap::new(),
            waits: BTreeMap::new(),
            busys: BTreeMap::new(),
        };
        let mut out = Vec::with_capacity(by_shard.len());
        for (shard, frag) in by_shard {
            let writes: TxnWrites = frag.into();
            active.fragments.insert(shard, writes.clone());
            let op = if active.phase == Phase::Single {
                Op::MultiPut { writes }
            } else {
                Op::TxnPrepare { txn, writes }
            };
            let req_id = self.alloc_req();
            active.outstanding.insert(req_id, (shard, op.clone()));
            out.push(Fragment { shard, req_id, op });
        }
        self.active = Some(active);
        out
    }

    /// Resumes a transaction whose coordinator died: builds the outcome
    /// fragments (`outcome` as decided by [`recover_outcome`] from the
    /// shards' statuses) for every shard `writes` touches, and arms the
    /// coordinator to collect their acknowledgements. `writes` must be
    /// the original write set (the recovering coordinator replays its
    /// client's request); `txn` the original id.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already in flight, `writes` is empty,
    /// or the write set is single-shard (nothing to recover — a
    /// [`Op::MultiPut`] either committed atomically or never existed).
    pub fn begin_recovery(
        &mut self,
        txn: TxnId,
        writes: &[(u64, u64)],
        outcome: TxnOutcome,
    ) -> Vec<Fragment> {
        assert!(self.active.is_none(), "a transaction is already in flight");
        assert!(!writes.is_empty(), "a transaction writes at least one key");
        let by_shard = self.partition(writes);
        assert!(
            by_shard.len() > 1,
            "single-shard transactions have no prepare window to recover"
        );
        self.active = Some(Active {
            txn,
            phase: Phase::Preparing, // placeholder; outcome_fragments sets it
            outstanding: BTreeMap::new(),
            votes: BTreeMap::new(),
            fragments: by_shard
                .into_iter()
                .map(|(shard, frag)| (shard, frag.into()))
                .collect(),
            waits: BTreeMap::new(),
            busys: BTreeMap::new(),
        });
        self.outcome_fragments(outcome)
    }

    /// Moves the active transaction into its outcome phase and builds
    /// one commit/abort fragment per touched shard — the single place
    /// outcome routing and request-id allocation happen, shared by the
    /// live path ([`Self::decide`]) and recovery
    /// ([`Self::begin_recovery`]).
    fn outcome_fragments(&mut self, outcome: TxnOutcome) -> Vec<Fragment> {
        let a = self.active.as_mut().expect("no transaction to conclude");
        a.phase = Phase::Outcome(outcome);
        // Unanswered prepares (and queued re-probes) are moot once the
        // outcome is decided: drop them so their late replies read as
        // unknown ids and the drain queue tracks outcome acks only. The
        // outcome command itself finishes the transaction at a shard
        // whose prepare never landed.
        a.outstanding.clear();
        let txn = a.txn;
        let shards: Vec<(ShardId, u64)> = a
            .fragments
            .iter()
            .map(|(&shard, writes)| (shard, writes[0].0))
            .collect();
        let mut out = Vec::with_capacity(shards.len());
        for (shard, key) in shards {
            let op = match outcome {
                TxnOutcome::Committed => Op::TxnCommit { txn, key },
                TxnOutcome::Aborted => Op::TxnAbort { txn, key },
            };
            let req_id = self.alloc_req();
            self.active
                .as_mut()
                .expect("still active")
                .outstanding
                .insert(req_id, (shard, op.clone()));
            out.push(Fragment { shard, req_id, op });
        }
        out
    }

    /// Forces the active transaction's outcome **now**: builds the
    /// outcome fragments, moves their acknowledgement tracking into the
    /// drain queue, and frees the coordinator for the next transaction.
    /// Safe because the decision is already immutable — unanimous yes
    /// votes can only ever be driven to commit ([`recover_outcome`]'s
    /// all-prepared rule reconstructs exactly this if we die before the
    /// fan-out lands) and a no vote (or given-up wait) can only be
    /// driven to abort, since this coordinator stops issuing prepares
    /// and no shard re-votes a finished transaction.
    fn force(&mut self, outcome: TxnOutcome) -> TxnStep {
        let submit = self.outcome_fragments(outcome);
        let a = self.active.take().expect("forcing without a txn");
        // Queued re-probes are for the now-decided prepares: drop them.
        self.deferred.clear();
        self.draining.push(a.outstanding);
        TxnStep::Decided { outcome, submit }
    }

    /// Decides once every vote is in: commit everywhere on unanimous
    /// yes, abort everywhere otherwise (a no-voting shard staged
    /// nothing, but the abort still records the txn as finished there,
    /// so a late or duplicate prepare can never lock keys for a dead
    /// transaction).
    fn decide(&mut self) -> TxnStep {
        let a = self.active.as_ref().expect("deciding without a txn");
        let outcome = if a.votes.values().all(|&yes| yes) {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Aborted
        };
        self.force(outcome)
    }

    /// Queues a re-probe of `shard`'s prepare under a fresh request id
    /// (the appliers' sessions dedup by `(client, req_id)`, so re-asking
    /// under the old id would echo the old vote instead of re-evaluating
    /// the locks).
    fn reprobe(&mut self, shard: ShardId, op: Op) {
        let req_id = self.alloc_req();
        let a = self.active.as_mut().expect("re-probing without a txn");
        a.outstanding.insert(req_id, (shard, op.clone()));
        self.reprobes += 1;
        self.deferred.push(Fragment { shard, req_id, op });
    }

    /// Consumes one client reply. `value` is the reply's state-machine
    /// output (the vote, for a prepare). Replies leave only after their
    /// command applied, so a valueless reply means only that the client
    /// had already superseded the request at that shard; a valueless
    /// prepare reply carries no vote and leaves the fragment outstanding
    /// for the session's retry.
    ///
    /// Replies for unknown request ids (stale, duplicate, or other
    /// traffic of the same client) return [`TxnStep::Pending`] and
    /// change nothing. Acknowledgements of an early-acked transaction's
    /// outcome fan-out also return [`TxnStep::Pending`] — the caller
    /// already has that outcome.
    pub fn on_reply(&mut self, req_id: u64, value: Option<u64>) -> TxnStep {
        // Drain acknowledgements first: they may interleave with the
        // next transaction's prepare replies.
        for i in 0..self.draining.len() {
            if self.draining[i].remove(&req_id).is_some() {
                if self.draining[i].is_empty() {
                    self.draining.remove(i);
                }
                return TxnStep::Pending;
            }
        }
        let Some(a) = self.active.as_mut() else {
            return TxnStep::Pending;
        };
        if !a.outstanding.contains_key(&req_id) {
            return TxnStep::Pending;
        }
        match a.phase {
            Phase::Single => {
                // The reply means the MultiPut decided: atomicity came
                // from the single agreement, nothing else to do.
                a.outstanding.remove(&req_id);
                self.active = None;
                TxnStep::Done(TxnOutcome::Committed)
            }
            Phase::Preparing => {
                let Some(raw) = value else {
                    return TxnStep::Pending; // superseded: no vote to read
                };
                let (shard, op) = a.outstanding.remove(&req_id).expect("checked");
                // Unknown encodings count as a no vote (defensive; the
                // participant only emits the four TxnVote values).
                match TxnVote::from_output(raw).unwrap_or(TxnVote::Abort) {
                    TxnVote::Commit => {
                        a.votes.insert(shard, true);
                        if a.votes.len() == a.fragments.len() {
                            self.decide()
                        } else {
                            TxnStep::Pending
                        }
                    }
                    TxnVote::Abort => {
                        // Early abort: one no vote forces the outcome;
                        // still-unanswered prepares are moot (their
                        // shards get the abort too).
                        a.votes.insert(shard, false);
                        self.force(TxnOutcome::Aborted)
                    }
                    TxnVote::Wait => {
                        let waits = a.waits.entry(shard).or_insert(0);
                        *waits += 1;
                        if *waits > WAIT_PATIENCE {
                            // The holder is stuck (dead coordinator, or
                            // a cross-shard poll-wait cycle): give up.
                            // The abort purges our parked queue entry.
                            a.votes.insert(shard, false);
                            self.force(TxnOutcome::Aborted)
                        } else {
                            self.reprobe(shard, op);
                            TxnStep::Pending
                        }
                    }
                    TxnVote::Busy => {
                        let busys = a.busys.entry(shard).or_insert(0);
                        *busys += 1;
                        if *busys > BUSY_PATIENCE {
                            a.votes.insert(shard, false);
                            self.force(TxnOutcome::Aborted)
                        } else {
                            self.reprobe(shard, op);
                            TxnStep::Pending
                        }
                    }
                }
            }
            Phase::Outcome(outcome) => {
                // Only recovery drives an outcome through the active
                // slot (the live path early-acks into the drain queue):
                // report Done once every shard acknowledged.
                a.outstanding.remove(&req_id);
                if a.outstanding.is_empty() {
                    self.active = None;
                    TxnStep::Done(outcome)
                } else {
                    TxnStep::Pending
                }
            }
        }
    }
}

/// The uniquely safe outcome a recovering coordinator must drive, given
/// every touched shard's [`TxnStatus`]:
///
/// * any shard already **Committed** → the dead coordinator had decided
///   commit: finish the job.
/// * any shard already **Aborted** → likewise abort.
/// * all shards **Prepared** → unanimous yes votes are in the logs; the
///   coordinator could only ever have decided commit, so commit.
/// * otherwise (some shard **Unknown**) → the coordinator cannot have
///   assembled unanimous votes: abort. The abort lands on the unknown
///   shard too, so a prepare still in flight finds the transaction
///   finished and refuses to lock.
///
/// # Status freshness
///
/// Each input must reflect its shard's **full decided log prefix**:
/// obtain it with the agreed probe ([`Op::TxnStatus`], an ordinary
/// command ordered through the shard's consensus — e.g.
/// `TestNet::txn_status_agreed`), *not* from an arbitrary replica's
/// locally-applied state. A lagging replica under-reports: it answers
/// `Unknown` (or `Prepared`) for a transaction its shard has already
/// committed, which steers this function to `Aborted` — recovery then
/// aborts the other shards while the committed fragment stands, and
/// atomicity is broken. The relaxed accessors (`KvStore::txn_status`,
/// `ShardedEngine::txn_status`, `TestNet::txn_status`) are per-replica
/// test oracles, safe as recovery input only when the queried replica
/// is known to have applied everything its shards decided (e.g. a
/// deterministic harness at quiescence).
pub fn recover_outcome(statuses: &[TxnStatus]) -> TxnOutcome {
    assert!(!statuses.is_empty(), "recovery needs at least one shard");
    if statuses.contains(&TxnStatus::Committed) {
        return TxnOutcome::Committed;
    }
    if statuses.contains(&TxnStatus::Aborted) {
        return TxnOutcome::Aborted;
    }
    if statuses.iter().all(|&s| s == TxnStatus::Prepared) {
        TxnOutcome::Committed
    } else {
        TxnOutcome::Aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(shards: u16) -> TxnCoordinator {
        TxnCoordinator::new(NodeId(9), ShardRouter::new(shards))
    }

    /// Keys that land on `n` distinct shards of a `shards`-way router.
    fn spanning_keys(shards: u16, n: usize) -> Vec<u64> {
        let r = ShardRouter::new(shards);
        let mut seen = std::collections::BTreeSet::new();
        let mut keys = Vec::new();
        for k in 0.. {
            if seen.insert(r.route_key(k)) {
                keys.push(k);
                if keys.len() == n {
                    return keys;
                }
            }
        }
        unreachable!()
    }

    #[test]
    fn single_shard_write_set_short_circuits_to_multiput() {
        let mut c = coord(4);
        let r = ShardRouter::new(4);
        let s0 = r.route_key(0);
        let twin = (1u64..).find(|&k| r.route_key(k) == s0).unwrap();
        let frags = c.begin(&[(0, 1), (twin, 2)]);
        assert_eq!(frags.len(), 1);
        assert!(matches!(frags[0].op, Op::MultiPut { .. }));
        assert_eq!(frags[0].shard, s0);
        assert_eq!(c.current_txn(), None, "short-circuit has no txn id");
        // Any reply (valueless included) completes it.
        assert_eq!(
            c.on_reply(frags[0].req_id, None),
            TxnStep::Done(TxnOutcome::Committed)
        );
        assert!(!c.in_flight());
    }

    #[test]
    fn unanimous_votes_commit_on_every_touched_shard() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 3);
        let writes: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 100)).collect();
        let frags = c.begin(&writes);
        assert_eq!(frags.len(), 3);
        assert!(frags.iter().all(|f| matches!(f.op, Op::TxnPrepare { .. })));
        let txn = c.current_txn().expect("multi-shard txn has an id");
        // Two yes votes: still pending.
        assert_eq!(
            c.on_reply(frags[0].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Pending
        );
        assert_eq!(
            c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Pending
        );
        // Third vote forces the outcome: early ack, commits everywhere.
        let TxnStep::Decided {
            outcome: fate,
            submit,
        } = c.on_reply(frags[2].req_id, Some(TXN_VOTE_COMMIT))
        else {
            panic!("expected the forced outcome");
        };
        assert_eq!(fate, TxnOutcome::Committed);
        assert_eq!(submit.len(), 3);
        for f in &submit {
            match &f.op {
                Op::TxnCommit { txn: t, key } => {
                    assert_eq!(*t, txn);
                    assert_eq!(c.router.route_key(*key), f.shard, "outcome mis-routed");
                }
                other => panic!("expected TxnCommit, got {other:?}"),
            }
        }
        // The caller already has the outcome; the fan-out drains in the
        // background while the coordinator is free for the next txn.
        assert!(!c.in_flight());
        assert!(c.draining());
        assert_eq!(c.on_reply(submit[0].req_id, None), TxnStep::Pending);
        assert_eq!(c.on_reply(submit[1].req_id, None), TxnStep::Pending);
        assert_eq!(c.on_reply(submit[2].req_id, None), TxnStep::Pending);
        assert!(!c.draining());
    }

    #[test]
    fn one_no_vote_aborts_everywhere() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let frags = c.begin(&[(keys[0], 1), (keys[1], 2)]);
        // The FIRST no vote forces the outcome — no waiting for the
        // other shard's vote (it can no longer change anything).
        let TxnStep::Decided {
            outcome: fate,
            submit,
        } = c.on_reply(frags[0].req_id, Some(TXN_VOTE_ABORT))
        else {
            panic!("expected the forced outcome");
        };
        assert_eq!(fate, TxnOutcome::Aborted);
        // The abort reaches BOTH shards — the no-voter records the txn
        // as finished so a late duplicate prepare cannot lock, and the
        // other shard's stage (if its prepare landed) is discarded.
        assert_eq!(submit.len(), 2);
        assert!(submit.iter().all(|f| matches!(f.op, Op::TxnAbort { .. })));
        // The second shard's late vote reply is moot: its request id was
        // dropped when the outcome was forced.
        assert_eq!(
            c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Pending
        );
        c.on_reply(submit[0].req_id, None);
        assert_eq!(c.on_reply(submit[1].req_id, None), TxnStep::Pending);
        assert!(!c.draining(), "acks drained");
    }

    #[test]
    fn valueless_prepare_reply_keeps_the_fragment_outstanding() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let frags = c.begin(&[(keys[0], 1), (keys[1], 2)]);
        assert_eq!(c.on_reply(frags[0].req_id, None), TxnStep::Pending);
        // The fragment is still retransmittable…
        assert_eq!(c.outstanding_fragments(), frags);
        // …and a later valued reply counts.
        c.on_reply(frags[0].req_id, Some(TXN_VOTE_COMMIT));
        assert!(matches!(
            c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Decided {
                outcome: TxnOutcome::Committed,
                ..
            }
        ));
    }

    #[test]
    fn stale_and_duplicate_replies_are_ignored() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let frags = c.begin(&[(keys[0], 1), (keys[1], 2)]);
        assert_eq!(c.on_reply(9999, Some(1)), TxnStep::Pending, "unknown id");
        c.on_reply(frags[0].req_id, Some(TXN_VOTE_COMMIT));
        // A duplicate reply for a resolved fragment changes nothing.
        assert_eq!(
            c.on_reply(frags[0].req_id, Some(TXN_VOTE_ABORT)),
            TxnStep::Pending
        );
        assert!(matches!(
            c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Decided { .. }
        ));
    }

    #[test]
    fn req_ids_stay_strictly_increasing_across_transactions() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let mut last = 0;
        for round in 0..3 {
            let frags = c.begin(&[(keys[0], round), (keys[1], round)]);
            for f in &frags {
                assert!(f.req_id > last, "req ids must increase");
                last = f.req_id;
            }
            c.on_reply(frags[0].req_id, Some(TXN_VOTE_COMMIT));
            let TxnStep::Decided { submit, .. } =
                c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT))
            else {
                panic!("expected the forced outcome");
            };
            for f in &submit {
                assert!(f.req_id > last);
                last = f.req_id;
            }
            c.on_reply(submit[0].req_id, None);
            assert_eq!(c.on_reply(submit[1].req_id, None), TxnStep::Pending);
            assert!(!c.draining());
        }
    }

    #[test]
    fn status_output_encoding_roundtrips() {
        use TxnStatus::*;
        for s in [Unknown, Prepared, Committed, Aborted] {
            assert_eq!(TxnStatus::from_output(s.as_output()), Some(s));
        }
        assert_eq!(TxnStatus::from_output(17), None);
    }

    #[test]
    fn recovery_outcomes_follow_the_matrix() {
        use TxnStatus::*;
        assert_eq!(
            recover_outcome(&[Prepared, Prepared]),
            TxnOutcome::Committed
        );
        assert_eq!(recover_outcome(&[Prepared, Unknown]), TxnOutcome::Aborted);
        assert_eq!(recover_outcome(&[Unknown, Unknown]), TxnOutcome::Aborted);
        assert_eq!(
            recover_outcome(&[Committed, Prepared]),
            TxnOutcome::Committed
        );
        assert_eq!(recover_outcome(&[Aborted, Prepared]), TxnOutcome::Aborted);
        // An outcome found anywhere wins over everything else.
        assert_eq!(
            recover_outcome(&[Committed, Unknown]),
            TxnOutcome::Committed
        );
    }

    #[test]
    fn wait_vote_defers_a_fresh_req_id_reprobe() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let frags = c.begin(&[(keys[0], 1), (keys[1], 2)]);
        // Shard 0 parks us behind a holder: Pending now, and a re-probe
        // under a FRESH request id is queued for the driver to send
        // (the appliers dedup by req_id, so re-asking under the old one
        // would echo the old Wait instead of re-evaluating the locks).
        assert_eq!(
            c.on_reply(frags[0].req_id, Some(TxnVote::Wait.as_output())),
            TxnStep::Pending
        );
        let deferred = c.take_deferred();
        assert_eq!(deferred.len(), 1);
        assert!(deferred[0].req_id > frags[1].req_id, "fresh req id");
        assert_eq!(deferred[0].shard, frags[0].shard);
        assert_eq!(deferred[0].op, frags[0].op, "same prepare, re-asked");
        assert!(
            c.outstanding_fragments()
                .iter()
                .all(|f| f.req_id != frags[0].req_id),
            "the old req id is dead; its late replies are ignored"
        );
        assert_eq!(c.reprobes(), 1);
        // The other shard's yes plus the granted re-probe's yes commit.
        assert_eq!(
            c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Pending
        );
        assert!(matches!(
            c.on_reply(deferred[0].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Decided {
                outcome: TxnOutcome::Committed,
                ..
            }
        ));
    }

    #[test]
    fn busy_patience_exhausts_to_an_abort() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let frags = c.begin(&[(keys[0], 1), (keys[1], 2)]);
        assert_eq!(
            c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Pending
        );
        let mut req = frags[0].req_id;
        for _ in 0..BUSY_PATIENCE {
            assert_eq!(
                c.on_reply(req, Some(TxnVote::Busy.as_output())),
                TxnStep::Pending
            );
            let deferred = c.take_deferred();
            assert_eq!(deferred.len(), 1);
            req = deferred[0].req_id;
        }
        // One Busy beyond the patience budget forces the abort; the
        // queued re-probe dies with the decision.
        let step = c.on_reply(req, Some(TxnVote::Busy.as_output()));
        let TxnStep::Decided {
            outcome: TxnOutcome::Aborted,
            submit,
        } = step
        else {
            panic!("expected a forced abort, got {step:?}");
        };
        assert_eq!(submit.len(), 2);
        assert!(c.take_deferred().is_empty(), "no zombie re-probes");
    }

    #[test]
    fn early_ack_overlaps_the_next_transaction() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let frags = c.begin(&[(keys[0], 1), (keys[1], 2)]);
        c.on_reply(frags[0].req_id, Some(TXN_VOTE_COMMIT));
        let TxnStep::Decided { submit, .. } = c.on_reply(frags[1].req_id, Some(TXN_VOTE_COMMIT))
        else {
            panic!("expected the forced outcome");
        };
        // Phase 2 of txn n overlaps phase 1 of txn n+1: begin() while
        // the fan-out drains.
        assert!(c.draining() && !c.in_flight());
        let next = c.begin(&[(keys[0], 3), (keys[1], 4)]);
        assert_eq!(next.len(), 2);
        // Interleaved replies resolve to the right transaction.
        assert_eq!(c.on_reply(submit[0].req_id, None), TxnStep::Pending);
        assert_eq!(
            c.on_reply(next[0].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Pending
        );
        assert_eq!(c.on_reply(submit[1].req_id, None), TxnStep::Pending);
        assert!(!c.draining());
        assert!(matches!(
            c.on_reply(next[1].req_id, Some(TXN_VOTE_COMMIT)),
            TxnStep::Decided {
                outcome: TxnOutcome::Committed,
                ..
            }
        ));
    }

    #[test]
    fn begin_recovery_builds_outcome_fragments_for_every_shard() {
        let mut c = coord(4);
        let keys = spanning_keys(4, 2);
        let writes = [(keys[0], 1), (keys[1], 2)];
        let txn = TxnId::new(NodeId(7), 42);
        let frags = c.begin_recovery(txn, &writes, TxnOutcome::Aborted);
        assert_eq!(frags.len(), 2);
        for f in &frags {
            match &f.op {
                Op::TxnAbort { txn: t, key } => {
                    assert_eq!(*t, txn);
                    assert_eq!(c.router.route_key(*key), f.shard);
                }
                other => panic!("expected TxnAbort, got {other:?}"),
            }
        }
        c.on_reply(frags[0].req_id, None);
        assert_eq!(
            c.on_reply(frags[1].req_id, None),
            TxnStep::Done(TxnOutcome::Aborted)
        );
    }
}
