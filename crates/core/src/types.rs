//! Fundamental identifiers and value types shared by every protocol.
//!
//! The paper views each core of a many-core machine as a node of a
//! distributed system; [`NodeId`] names such a core. Clients are cores too
//! (cores 3..47 in the paper's 48-core setup), so they are also identified
//! by [`NodeId`].

use std::fmt;
use std::sync::Arc;

/// Virtual or real time in nanoseconds.
///
/// The sans-IO protocol state machines never read a clock themselves; the
/// surrounding harness (simulator or threaded runtime) passes `now` into
/// every handler.
pub type Nanos = u64;

/// One nanosecond expressed in [`Nanos`] (for readability in cost tables).
pub const NANOS_PER_MICRO: Nanos = 1_000;
/// One millisecond expressed in [`Nanos`].
pub const NANOS_PER_MILLI: Nanos = 1_000_000;
/// One second expressed in [`Nanos`].
pub const NANOS_PER_SEC: Nanos = 1_000_000_000;

/// Identifier of a core/node participating in the system.
///
/// In the paper's deployments, cores 0..R-1 host replicas (core 0 is the
/// initial leader/coordinator) and the remaining cores host clients.
///
/// # Examples
///
/// ```
/// use onepaxos::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// First id of the synthetic batch-source namespace (see
    /// [`Self::batch_source`]). Real cores live far below it.
    pub const BATCH_SOURCE_BASE: u16 = 0x8000;

    /// The node id as a zero-based index (useful for vector indexing).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The synthetic client id under which the replica engine on this
    /// node advocates the batches it coalesces ([`Op::Batch`]). Batches
    /// need their own client identity for at-most-once execution and
    /// reply routing, and it must not collide with real clients (cores)
    /// or with the protocols' internal no-op commands (which use the
    /// replica's own id) — so each node owns one id mirrored into the
    /// top half of the [`NodeId`] space.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if the node id itself already lies in the
    /// reserved namespace.
    pub fn batch_source(self) -> NodeId {
        debug_assert!(
            self.0 < Self::BATCH_SOURCE_BASE,
            "node id {self} collides with the batch-source namespace"
        );
        NodeId(u16::MAX - self.0)
    }

    /// Whether this id is a synthetic batch source rather than a real
    /// core. Engines use it to keep batch bookkeeping out of the
    /// client-visible reply stream.
    pub fn is_batch_source(self) -> bool {
        self.0 >= Self::BATCH_SOURCE_BASE
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// A Paxos instance number: the slot in the totally ordered command log.
///
/// "The ultimate goal of Basic-Paxos is to assign totally ordered instance
/// numbers to client commands" (§2.3).
pub type Instance = u64;

/// A proposal number ("ballot"): totally ordered and unique per proposer.
///
/// Ordered first by `round` then by `node`, so two proposers can never draw
/// the same ballot. `Ballot::ZERO` is smaller than any ballot a proposer
/// generates and plays the role of the paper's initial `hpn = -∞`.
///
/// # Examples
///
/// ```
/// use onepaxos::{Ballot, NodeId};
/// let b1 = Ballot::new(1, NodeId(0));
/// let b2 = Ballot::new(1, NodeId(1));
/// let b3 = Ballot::new(2, NodeId(0));
/// assert!(b1 < b2 && b2 < b3);
/// assert!(Ballot::ZERO < b1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    /// Monotonically increasing round chosen by the proposer.
    pub round: u32,
    /// Tie-breaker: the proposer's node id.
    pub node: NodeId,
}

impl Ballot {
    /// The smallest possible ballot; models the pseudocode's `-∞`.
    pub const ZERO: Ballot = Ballot {
        round: 0,
        node: NodeId(0),
    };

    /// Creates a ballot for `node` at `round`.
    pub fn new(round: u32, node: NodeId) -> Self {
        Ballot { round, node }
    }

    /// The next ballot for `node` that is strictly greater than `self`
    /// (implements the pseudocode's `new_pn()`).
    pub fn next_for(self, node: NodeId) -> Ballot {
        Ballot {
            round: self.round + 1,
            node,
        }
    }

    /// Whether this ballot is the initial `-∞` placeholder.
    pub fn is_zero(self) -> bool {
        self == Ballot::ZERO
    }
}

impl fmt::Debug for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.node.0)
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.node.0)
    }
}

/// Globally unique identifier of a cross-shard transaction (see
/// [`crate::txn`]): the coordinating client plus a coordinator-local
/// sequence number. Every shard the transaction touches agrees on this
/// id, which is what lets a recovering coordinator replay the outcome
/// from the shards' logs.
///
/// # Examples
///
/// ```
/// use onepaxos::{NodeId, TxnId};
/// let t = TxnId::new(NodeId(9), 3);
/// assert_eq!(format!("{t}"), "t9.3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// The client acting as 2PC coordinator.
    pub coordinator: NodeId,
    /// Coordinator-local transaction sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Creates the id of `coordinator`'s `seq`-th transaction.
    pub fn new(coordinator: NodeId, seq: u64) -> Self {
        TxnId { coordinator, seq }
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.coordinator.0, self.seq)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.coordinator.0, self.seq)
    }
}

/// One shard's fragment of a transaction's write set: `(key, value)`
/// pairs, behind an [`Arc`] so retransmissions and log replication bump
/// a reference count instead of copying the payload (the same economy as
/// [`BatchPayload`]). All keys of one fragment are owned by one shard —
/// the coordinator partitions the write set before building fragments.
pub type TxnWrites = Arc<[(u64, u64)]>;

/// A participant shard's vote on an applied [`Op::TxnPrepare`] fragment,
/// carried as the command's state-machine output (see [`crate::txn`]).
///
/// Beyond the classic yes/no, two *retryable* votes implement the
/// bounded lock-wait queue of the `KvStore` participant: instead of
/// turning every lock conflict into an abort, a conflicting prepare may
/// **park** behind the holder ([`TxnVote::Wait`] — wait-die: only a
/// requester older than every conflicting holder parks, so wait edges
/// always point old→young and can never form a cycle) or be told to
/// retry from the coordinator's side ([`TxnVote::Busy`] — the requester
/// is younger than a holder, or the queue is full). Both leave the
/// shard entirely untouched: a parked prepare holds no locks and stages
/// nothing, so recovery sees it as `Unknown` and may safely abort it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnVote {
    /// No: the transaction is already finished as aborted (late or
    /// duplicate prepare), or the coordinator decided abort.
    Abort,
    /// Yes: fragment staged, keys locked.
    Commit,
    /// Not yet: parked in the shard's lock-wait queue behind the current
    /// holder(s); a later re-probe (fresh request id) collects the real
    /// vote once the holder's outcome releases the locks.
    Wait,
    /// Not now: the requester is younger than a conflicting holder (it
    /// must die rather than wait, or wait-die's cycle-freedom breaks) or
    /// the wait queue is at capacity. The coordinator may re-probe after
    /// a backoff window or give up and abort.
    Busy,
}

impl TxnVote {
    /// Encodes this vote as a prepare's state-machine output.
    pub fn as_output(self) -> u64 {
        match self {
            TxnVote::Abort => 0,
            TxnVote::Commit => 1,
            TxnVote::Wait => 2,
            TxnVote::Busy => 3,
        }
    }

    /// Decodes a prepare's output; `None` for values no prepare produces.
    pub fn from_output(v: u64) -> Option<TxnVote> {
        match v {
            0 => Some(TxnVote::Abort),
            1 => Some(TxnVote::Commit),
            2 => Some(TxnVote::Wait),
            3 => Some(TxnVote::Busy),
            _ => None,
        }
    }
}

/// The payload of an [`Op::Batch`]: the coalesced commands, behind an
/// [`Arc`] so cloning a batched command (broadcasts, retries, value
/// pinning across role switches) bumps a reference count instead of
/// copying the payload — the whole point of batching is to keep per-copy
/// cost off the hot cores.
pub type BatchPayload = Arc<[Command]>;

/// The operation a client asks the replicated state machine to perform.
///
/// The paper's experiments use commands with no payload ([`Op::Noop`]);
/// the key/value operations exist for the examples and the read-workload
/// experiment (Fig 10). [`Op::Batch`] carries several client commands
/// through a single agreement, amortising the per-message tx/rx CPU cost
/// that §3 identifies as the bottleneck inside a machine.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Op {
    /// A command with no effect, as in the paper's benchmarks.
    #[default]
    Noop,
    /// Write `value` under `key`.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Read the value under `key`.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Several client commands travelling through one agreement. Built by
    /// the replica engine's accumulator, never submitted by clients, and
    /// never nested.
    Batch(BatchPayload),
    /// Write several keys atomically **within one shard**: the
    /// short-circuit a single-shard transaction takes (see
    /// [`crate::txn`]). Unlike a 2PC fragment it needs no lock window —
    /// the shard's log already serializes it — and unlike [`Op::Batch`]
    /// it is an ordinary client command, so it rides the batch
    /// accumulator like any [`Op::Put`]. All keys must be owned by one
    /// shard (the coordinator partitions; the router debug-checks).
    MultiPut {
        /// The `(key, value)` pairs to write, applied in order.
        writes: TxnWrites,
    },
    /// 2PC phase 1 at one participant shard: vote on (and, on a yes
    /// vote, lock and stage) this shard's fragment of transaction
    /// `txn`'s write set. The vote is the command's state-machine
    /// output (`TXN_VOTE_COMMIT`/`TXN_VOTE_ABORT` in [`crate::txn`]),
    /// durable in the shard's log like any decided command.
    TxnPrepare {
        /// The transaction being prepared.
        txn: TxnId,
        /// This shard's fragment of the write set.
        writes: TxnWrites,
    },
    /// 2PC phase 2, commit: apply `txn`'s staged fragment and release
    /// its locks. `key` is any key of the fragment — it only routes the
    /// command to the owning shard.
    TxnCommit {
        /// The transaction to commit.
        txn: TxnId,
        /// Routing key (one key of this shard's fragment).
        key: u64,
    },
    /// 2PC phase 2, abort: discard `txn`'s staged fragment (if any) and
    /// release its locks. `key` routes like in [`Op::TxnCommit`].
    TxnAbort {
        /// The transaction to abort.
        txn: TxnId,
        /// Routing key (one key of this shard's fragment).
        key: u64,
    },
    /// Log-ordered probe of one shard's view of transaction `txn` — the
    /// status read coordinator **recovery** feeds to
    /// `txn::recover_outcome`. Because the probe is an ordinary command
    /// agreed by the shard's consensus, the replying replica has
    /// applied every command decided before it, so the answer can never
    /// under-report a transaction the shard already prepared or
    /// finished. (A relaxed read of a replica's local state can: a
    /// lagging replica answers `Unknown` about a committed transaction,
    /// which would steer recovery into a non-atomic abort.) The
    /// command's output encodes the status
    /// (`txn::TxnStatus::as_output`); `key` routes like in
    /// [`Op::TxnCommit`].
    TxnStatus {
        /// The transaction being queried.
        txn: TxnId,
        /// Routing key (any key of this shard's fragment).
        key: u64,
    },
    /// Log-ordered truncation point for one shard's replicas (the
    /// "agree on everything" move, like [`Op::TxnStatus`]): once this
    /// command applies, every replica of the shard has applied the full
    /// prefix below `watermark` and may drop it — the `Applier`'s
    /// retained log, stale reply outputs, and the protocol learner's
    /// per-instance state. Keyless: truncation is per shard group, so
    /// the submitter addresses the shard directly rather than routing
    /// by key. The watermark is a *floor* a replica proposes from its
    /// own applied prefix; because the command is ordered through the
    /// shard's log, it can only apply after every instance below it.
    Truncate {
        /// Drop everything below this instance (exclusive).
        watermark: Instance,
    },
}

impl Op {
    /// Whether this operation is a read (serviceable locally by 2PC-Joint,
    /// §7.5).
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Get { .. })
    }

    /// The key this operation addresses, if it addresses one. Shard
    /// routing partitions the key space on it; keyless commands
    /// ([`Op::Noop`], [`Op::Batch`]) route by other identity (see
    /// `shard::ShardRouter::route`). Multi-key operations route by their
    /// first key — the coordinator guarantees every key of a fragment is
    /// owned by the same shard.
    pub fn key(&self) -> Option<u64> {
        match *self {
            Op::Put { key, .. } | Op::Get { key } => Some(key),
            Op::TxnCommit { key, .. } | Op::TxnAbort { key, .. } | Op::TxnStatus { key, .. } => {
                Some(key)
            }
            Op::MultiPut { ref writes } | Op::TxnPrepare { ref writes, .. } => {
                writes.first().map(|&(key, _)| key)
            }
            Op::Noop | Op::Batch(_) | Op::Truncate { .. } => None,
        }
    }
}

/// A client command: the value agreed upon by the consensus protocols.
///
/// Identified by `(client, req_id)`, which the replicated-state-machine
/// layer uses for at-most-once execution and reply routing. For a batch,
/// `(client, req_id)` identifies the batch itself (the advocating
/// engine's [`NodeId::batch_source`] and its batch sequence number); the
/// constituent commands keep their own identities inside the payload.
///
/// Two copies of one batch decision share their payload, so equality
/// compares a batch's payload by pointer before it compares it command
/// by command (`Arc`'s own `==` cannot, for an unsized payload).
#[derive(Clone, Debug)]
pub struct Command {
    /// The client that issued the command.
    pub client: NodeId,
    /// Client-local sequence number, unique per client.
    pub req_id: u64,
    /// The operation to execute.
    pub op: Op,
}

impl Command {
    /// Creates a new command.
    pub fn new(client: NodeId, req_id: u64, op: Op) -> Self {
        Command { client, req_id, op }
    }

    /// A no-op command, as used by the paper's throughput experiments.
    pub fn noop(client: NodeId, req_id: u64) -> Self {
        Command::new(client, req_id, Op::Noop)
    }

    /// A batch command advocated by the engine on `node`: `seq` is the
    /// engine's batch sequence number, `cmds` the coalesced commands.
    pub fn batch(node: NodeId, seq: u64, cmds: Vec<Command>) -> Self {
        debug_assert!(
            cmds.iter().all(|c| !matches!(c.op, Op::Batch(_))),
            "nested batches are not allowed"
        );
        Command::new(node.batch_source(), seq, Op::Batch(cmds.into()))
    }

    /// The `(client, req_id)` pair identifying this command.
    pub fn id(&self) -> (NodeId, u64) {
        (self.client, self.req_id)
    }

    /// The batched commands, if this is a batch.
    pub fn as_batch(&self) -> Option<&[Command]> {
        match &self.op {
            Op::Batch(cmds) => Some(cmds),
            _ => None,
        }
    }

    /// How many client commands this command carries: the batch size for
    /// a batch, `1` otherwise. Harnesses use it to price the per-command
    /// apply cost of a committed batch (one agreement, many applies).
    pub fn command_count(&self) -> usize {
        self.as_batch().map_or(1, <[Command]>::len)
    }
}

impl PartialEq for Command {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
            && match (&self.op, &other.op) {
                (Op::Batch(a), Op::Batch(b)) => Arc::ptr_eq(a, b) || a == b,
                (a, b) => a == b,
            }
    }
}

impl Eq for Command {}

/// Hashes what [`PartialEq`] compares, so equal commands hash equally.
impl std::hash::Hash for Command {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id().hash(state);
        self.op.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(values: &[u64]) -> Command {
        let cmds = values
            .iter()
            .map(|&v| Command::noop(NodeId(9), v))
            .collect();
        Command::batch(NodeId(0), 1, cmds)
    }

    /// `c`'s hash under one fixed-key hasher.
    fn hash_of(c: &Command) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_batch_equals_its_clone_by_pointer() {
        let b = batch(&[1, 2]);
        let copy = b.clone();
        let (Op::Batch(x), Op::Batch(y)) = (&b.op, &copy.op) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(x, y), "a clone shares its payload");
        assert_eq!(b, copy);
    }

    #[test]
    fn batches_with_equal_content_in_two_allocations_are_equal() {
        assert_eq!(batch(&[1, 2]), batch(&[1, 2]));
    }

    #[test]
    fn batches_with_unequal_content_differ() {
        assert_ne!(batch(&[1, 2]), batch(&[1, 3]));
        assert_ne!(batch(&[1, 2]), batch(&[1]));
        let mut other = batch(&[1, 2]);
        other.req_id = 2;
        assert_ne!(batch(&[1, 2]), other, "same payload, another batch");
    }

    #[test]
    fn equal_commands_hash_equally() {
        let b = batch(&[1, 2]);
        assert_eq!(hash_of(&b), hash_of(&b.clone()));
        assert_eq!(hash_of(&b), hash_of(&batch(&[1, 2])));
        let put = |v| Command::new(NodeId(9), 1, Op::Put { key: 1, value: v });
        assert_eq!(hash_of(&put(3)), hash_of(&put(3)));
    }

    #[test]
    fn ballot_ordering_is_round_then_node() {
        let a = Ballot::new(1, NodeId(5));
        let b = Ballot::new(2, NodeId(0));
        assert!(a < b);
        let c = Ballot::new(1, NodeId(6));
        assert!(a < c);
        assert_eq!(a, Ballot::new(1, NodeId(5)));
    }

    #[test]
    fn ballot_zero_is_minimum() {
        for round in 1..4u32 {
            for node in 0..4u16 {
                assert!(Ballot::ZERO < Ballot::new(round, NodeId(node)));
            }
        }
        assert!(Ballot::ZERO.is_zero());
        assert!(!Ballot::new(1, NodeId(0)).is_zero());
    }

    #[test]
    fn next_for_is_strictly_greater_for_any_node() {
        let b = Ballot::new(3, NodeId(7));
        for node in 0..10u16 {
            assert!(b.next_for(NodeId(node)) > b);
        }
    }

    #[test]
    fn op_read_classification() {
        assert!(Op::Get { key: 1 }.is_read());
        assert!(!Op::Put { key: 1, value: 2 }.is_read());
        assert!(!Op::Noop.is_read());
    }

    #[test]
    fn command_identity() {
        let c = Command::noop(NodeId(9), 42);
        assert_eq!(c.id(), (NodeId(9), 42));
        assert_eq!(c.op, Op::Noop);
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(12).index(), 12);
        assert_eq!(format!("{:?}", NodeId(12)), "n12");
    }

    #[test]
    fn batch_source_namespace_is_disjoint_and_per_node() {
        let a = NodeId(0).batch_source();
        let b = NodeId(7).batch_source();
        assert_ne!(a, b);
        assert!(a.is_batch_source() && b.is_batch_source());
        assert!(!NodeId(0).is_batch_source() && !NodeId(47).is_batch_source());
    }

    #[test]
    fn batch_command_counts_and_exposes_its_payload() {
        let inner = vec![Command::noop(NodeId(9), 1), Command::noop(NodeId(10), 1)];
        let b = Command::batch(NodeId(0), 3, inner.clone());
        assert_eq!(b.id(), (NodeId(0).batch_source(), 3));
        assert_eq!(b.command_count(), 2);
        assert_eq!(b.as_batch(), Some(&inner[..]));
        assert_eq!(Command::noop(NodeId(9), 1).command_count(), 1);
        assert_eq!(Command::noop(NodeId(9), 1).as_batch(), None);
    }

    #[test]
    fn batch_equality_is_structural() {
        let mk = || {
            Command::batch(
                NodeId(1),
                5,
                vec![Command::new(NodeId(9), 2, Op::Put { key: 1, value: 2 })],
            )
        };
        assert_eq!(mk(), mk());
        assert_ne!(mk(), Command::batch(NodeId(1), 5, vec![]));
    }
}
