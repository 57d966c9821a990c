//! Wire format between processes: protocol messages plus the client
//! request/reply traffic that the paper treats as ordinary messages.

use onepaxos::{wire_enum, Instance, NodeId, Op};

/// A message travelling over a qc-channel queue between two processes.
#[derive(Clone, Debug, PartialEq)]
pub enum Wire<M> {
    /// A protocol message between replicas.
    Peer(M),
    /// A client command submitted to a replica.
    Request {
        /// Originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// Operation to replicate.
        op: Op,
    },
    /// A relaxed read (§7.5), carried to the replica engine's
    /// `ReadRelaxed` event: served from the replica's local copy when
    /// the protocol allows it, bypassing consensus entirely. A read
    /// arriving inside a 2PC lock window waits in the engine until the
    /// window closes; protocols whose reads must be ordered (the Paxos
    /// family) answer it through consensus instead. Either way the
    /// answer is a [`Wire::Reply`].
    ReadRelaxed {
        /// Originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// Key to read.
        key: u64,
    },
    /// A commit acknowledgement back to a client, carrying the
    /// state-machine output (the read value for `Get`s and relaxed
    /// reads).
    Reply {
        /// The request being acknowledged.
        req_id: u64,
        /// The slot the command committed in (the applied watermark
        /// for a relaxed read served locally).
        instance: Instance,
        /// State-machine output (previous/read value).
        value: Option<u64>,
    },
    /// Stops the receiving replica: fault injection a client carries
    /// ([`ClientHandle::stop_replica`](crate::ClientHandle::stop_replica)).
    /// A cluster stops its replicas through their stop flags instead.
    Shutdown,
    /// A lagging replica asking a peer for a state snapshot of one shard
    /// group — the catch-up path once agreed truncation has dropped the
    /// log entries replay would need. `have` is the requester's applied
    /// watermark; the peer answers with a [`Wire::Snapshot`] only when
    /// it can offer a strictly newer one.
    SnapshotRequest {
        /// The shard group to snapshot.
        shard: u16,
        /// The requester's applied watermark (instances below it are
        /// already applied there).
        have: Instance,
    },
    /// A state snapshot of one shard group, answering a
    /// [`Wire::SnapshotRequest`]: the `onepaxos::wire` encoding of an
    /// `ApplierSnapshot` at `watermark`, carried opaquely so the wire
    /// enum stays independent of the state-machine type.
    Snapshot {
        /// The shard group the snapshot belongs to.
        shard: u16,
        /// The instance watermark the snapshot covers up to
        /// (exclusive); duplicated from the payload so a receiver can
        /// discard stale offers without decoding them.
        watermark: Instance,
        /// The encoded `ApplierSnapshot`.
        bytes: Vec<u8>,
    },
}

// The envelope's wire schema: one row per arm, tag and field order
// stated once (see `onepaxos::wire`, "Adding a message"; the golden
// frames are in `tests/wire_props.rs`). Append-only: released tags never
// change meaning. Tag 4 is retired (a separate answer to `ReadRelaxed`,
// which `Reply` now carries) and never reused: it decodes as a bad tag.
wire_enum!(Wire<M> as "Wire" {
    0 => Peer(msg: M),
    1 => Request { client: NodeId, req_id: u64, op: Op },
    2 => ReadRelaxed { client: NodeId, req_id: u64, key: u64 },
    3 => Reply { req_id: u64, instance: Instance, value: Option<u64> },
    5 => Shutdown,
    6 => SnapshotRequest { shard: u16, have: Instance },
    7 => Snapshot { shard: u16, watermark: Instance, bytes: Vec<u8> },
});
