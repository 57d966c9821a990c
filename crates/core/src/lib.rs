//! Agreement protocols for many-core machines viewed as distributed
//! systems — a reproduction of *"Consensus Inside"* (Tudor David, Rachid
//! Guerraoui, Maysam Yabandeh; MIDDLEWARE 2014).
//!
//! The paper studies message-passing agreement **inside** a many-core
//! machine, where the cores replicate shared data and keep the replicas
//! consistent by running an agreement protocol — the approach pioneered by
//! the Barrelfish multikernel. Its contribution is **1Paxos**, a
//! non-blocking consensus protocol built around a *single active acceptor*
//! whose availability comes from backup acceptors rather than replication,
//! roughly halving the number of messages per agreement.
//!
//! # What this crate provides
//!
//! * [`onepaxos`](crate::onepaxos#) — the 1Paxos protocol (§4–§5,
//!   Appendix A), including acceptor switching, leader switching and the
//!   embedded *PaxosUtility* log.
//! * [`multipaxos`] — collapsed Multi-Paxos, the strongest practical
//!   baseline (§2.3).
//! * [`basic_paxos`] — single-decree Basic-Paxos (Synod); its Synod core
//!   also runs PaxosUtility.
//! * [`twopc`] — 2PC in its agreement form, the blocking baseline used by
//!   Barrelfish (§2.2).
//! * [`mencius`] — Mencius-style multi-leader consensus (§8), the
//!   extension baseline.
//! * [`engine`] — the shared replica-engine layer: one [`ReplicaEngine`]
//!   per deployed node owns timers, the applied state machine and the
//!   client replies, so every harness is only a transport of
//!   [`EngineEffect`]s.
//! * [`shard`] — key-hash-routed multi-group consensus: a
//!   [`ShardedEngine`] runs S independent engines per node and routes
//!   every command to its owning group, multiplying throughput with
//!   cores while protocol code stays untouched.
//! * [`txn`] — cross-shard atomic transactions: a client-side 2PC
//!   coordinator spanning shard groups, every phase decision agreed by
//!   the participant shard's own log (classic 2PC-over-Paxos).
//! * [`rsm`]/[`kv`] — a replicated-state-machine layer and a key/value
//!   state machine.
//! * [`instance_log`] — the dense instance-indexed table behind every
//!   per-instance table on the commit path.
//! * [`testnet`] — a deterministic harness for driving the protocols in
//!   tests.
//! * [`oracle`] — the one agreement check the harnesses feed every
//!   commit to (Appendix B *consistency*).
//!
//! All protocols are **sans-IO state machines** implementing [`Protocol`]:
//! handlers consume events and emit [`Action`]s into an [`Outbox`]. The
//! same state machine runs unchanged on the `manycore-sim` discrete-event
//! simulator (which reproduces the paper's 48-core experiments) and on the
//! `onepaxos-runtime` threaded runtime (real shared-memory message passing
//! over `qc-channel`).
//!
//! # Quickstart
//!
//! Drive three 1Paxos replicas to agreement with the deterministic
//! test harness:
//!
//! ```
//! use onepaxos::onepaxos::OnePaxosNode;
//! use onepaxos::testnet::TestNet;
//! use onepaxos::{ClusterConfig, NodeId, Op};
//!
//! let mut net = TestNet::new(3, |members, me| {
//!     OnePaxosNode::new(ClusterConfig::new(members.to_vec(), me))
//! });
//! net.run_to_quiescence(); // leader adoption
//! net.client_request(NodeId(0), NodeId(9), 1, Op::Put { key: 1, value: 7 });
//! net.run_to_quiescence();
//! assert_eq!(net.replies().len(), 1);
//! net.assert_consistent();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod advocate;
pub mod basic_paxos;
pub mod client;
mod config;
pub mod engine;
pub mod failure;
mod hash;
pub mod instance_log;
pub mod kv;
pub mod mencius;
pub mod multipaxos;
pub mod onepaxos;
pub mod oracle;
mod outbox;
mod protocol;
pub mod rsm;
pub mod shard;
mod synod;
pub mod testnet;
pub mod twopc;
pub mod txn;
mod types;
pub mod wire;

pub use config::ClusterConfig;
pub use engine::{
    AdaptiveBatch, BatchConfig, EngineConfig, EngineEffect, EngineEvent, EngineStats, ReplicaEngine,
};
pub use outbox::{Action, Outbox};
pub use protocol::Protocol;
pub use shard::{ShardId, ShardRouter, ShardedEngine};
pub use txn::{TxnCoordinator, TxnOutcome, TxnStatus};
pub use types::{
    Ballot, BatchPayload, Command, Instance, Nanos, NodeId, Op, TxnId, TxnVote, TxnWrites,
    NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC,
};
