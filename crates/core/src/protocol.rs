//! The sans-IO protocol interface implemented by every agreement protocol
//! in this crate (1Paxos, Multi-Paxos, Basic-Paxos, Mencius, 2PC).

use crate::outbox::{Outbox, Timer};
use crate::types::{Instance, Nanos, NodeId, Op};

/// A deterministic, event-driven agreement protocol node.
///
/// Implementations are pure state machines: given the same sequence of
/// `on_*` invocations they produce the same actions. All IO — message
/// transport, timers, state-machine application, client replies — is
/// performed by the harness that owns the node (the `manycore-sim`
/// discrete-event simulator or the `onepaxos-runtime` threaded runtime).
///
/// The paper's observation that protocols built on the QC-libtask
/// interfaces "can be easily ported to a network system with no change"
/// (§6.2) maps here to: the same `Protocol` value runs unchanged on either
/// harness.
pub trait Protocol {
    /// The protocol's wire message type.
    type Msg: Clone + std::fmt::Debug + Send + 'static;

    /// This node's id.
    fn node_id(&self) -> NodeId;

    /// Invoked once before any other handler; protocols arm their periodic
    /// tick and perform bootstrap sends here.
    fn on_start(&mut self, now: Nanos, out: &mut Outbox<Self::Msg>);

    /// A message from `from` has been delivered.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, now: Nanos, out: &mut Outbox<Self::Msg>);

    /// A previously armed timer fired.
    fn on_timer(&mut self, timer: Timer, now: Nanos, out: &mut Outbox<Self::Msg>);

    /// A client submitted operation `op` with id `(client, req_id)` to this
    /// node. The node advocates the command (possibly forwarding it to the
    /// current leader) and eventually some node emits
    /// [`Action::Reply`](crate::Action::Reply) for it.
    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        out: &mut Outbox<Self::Msg>,
    );

    /// Whether this node currently believes itself to be the leader
    /// (coordinator). Used by harnesses for metrics and by tests.
    fn is_leader(&self) -> bool;

    /// The node this one currently believes to be the leader, if any.
    fn leader_hint(&self) -> Option<NodeId>;

    /// Whether this protocol ever serves reads from the local replica
    /// without agreement traffic (§7.5). The Paxos family defaults to
    /// `false`: reads are ordered through consensus. 2PC overrides it.
    fn supports_local_reads(&self) -> bool {
        false
    }

    /// Attempt to service a read of `key` locally without any agreement
    /// traffic *right now*. For 2PC this is allowed exactly when the
    /// local copy is not locked "in the gap between two phases of 2PC"
    /// (§7.5); a read arriving inside the gap waits for the lock window
    /// to close.
    fn can_read_locally(&self, key: u64) -> bool {
        let _ = key;
        false
    }

    /// The instance `msg` promises, accepts or learns a value at, if it
    /// is instance-scoped (`None` for forwards, elections, heartbeats and
    /// other traffic). The engine drops a message whose instance is below
    /// its truncation floor before [`Self::on_message`] runs, so a
    /// protocol never sees per-instance traffic for a slot it has
    /// truncated and needs no floor of its own.
    fn instance_of(&self, msg: &Self::Msg) -> Option<Instance> {
        let _ = msg;
        None
    }

    /// The engine's truncation floor rose to `watermark` — an agreed
    /// [`Op::Truncate`] applied here or a peer's snapshot was installed.
    /// Called once per strict rise, so `watermark` is always larger than
    /// the previous call's. Every instance below it is decided, applied
    /// and covered by the replica's snapshot, so per-instance protocol
    /// state below it (learned values, acceptor votes, proposer
    /// bookkeeping) may be dropped. Protocols without per-instance
    /// history ignore it.
    fn truncate(&mut self, watermark: Instance) {
        let _ = watermark;
    }
}

/// Convenience: a boxed protocol is also a protocol (enables heterogeneous
/// harness code and trait-object deployments).
impl<P: Protocol + ?Sized> Protocol for Box<P> {
    type Msg = P::Msg;

    fn node_id(&self) -> NodeId {
        (**self).node_id()
    }

    fn on_start(&mut self, now: Nanos, out: &mut Outbox<Self::Msg>) {
        (**self).on_start(now, out)
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        now: Nanos,
        out: &mut Outbox<Self::Msg>,
    ) {
        (**self).on_message(from, msg, now, out)
    }

    fn on_timer(&mut self, timer: Timer, now: Nanos, out: &mut Outbox<Self::Msg>) {
        (**self).on_timer(timer, now, out)
    }

    fn on_client_request(
        &mut self,
        client: NodeId,
        req_id: u64,
        op: Op,
        now: Nanos,
        out: &mut Outbox<Self::Msg>,
    ) {
        (**self).on_client_request(client, req_id, op, now, out)
    }

    fn is_leader(&self) -> bool {
        (**self).is_leader()
    }

    fn leader_hint(&self) -> Option<NodeId> {
        (**self).leader_hint()
    }

    fn supports_local_reads(&self) -> bool {
        (**self).supports_local_reads()
    }

    fn can_read_locally(&self, key: u64) -> bool {
        (**self).can_read_locally(key)
    }

    fn instance_of(&self, msg: &Self::Msg) -> Option<Instance> {
        (**self).instance_of(msg)
    }

    fn truncate(&mut self, watermark: Instance) {
        (**self).truncate(watermark)
    }
}
