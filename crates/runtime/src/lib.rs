//! Threaded deployment of the *"Consensus Inside"* protocols over
//! [`qc_channel`] shared-memory message passing.
//!
//! One OS thread per replica, a pair of lock-free SPSC queues between
//! every two processes (§6.1), optional `core_affinity` pinning (the
//! paper's `taskset`, §7.1), and synchronous client handles running the
//! paper's closed loop.
//!
//! # Example
//!
//! ```
//! use onepaxos::onepaxos::{OnePaxosNode, Timing};
//! use onepaxos::{ClusterConfig, Op};
//! use onepaxos_runtime::ClusterBuilder;
//!
//! // Relaxed timeouts: CI machines oversubscribe their cores.
//! let timing = Timing { tick: 2_000_000, io_timeout: 200_000_000, suspect_after: 400_000_000 };
//! let (cluster, mut clients) = ClusterBuilder::new(3, move |m, me| {
//!     OnePaxosNode::with_timing(ClusterConfig::new(m.to_vec(), me), timing)
//! })
//! .clients(1)
//! .spawn();
//! let c = &mut clients[0];
//! assert_eq!(c.put(7, 42).unwrap(), None);
//! assert_eq!(c.get(7).unwrap(), Some(42));
//! cluster.shutdown();
//! ```
//!
//! Swap `.spawn()` for `.spawn_tcp()` and the same replicas, engines and
//! client loop run over loopback TCP sockets instead, every message a
//! length-prefixed [`onepaxos::wire`] frame — see [`Transport`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod affinity;
mod cluster;
mod fault;
mod poll;
mod transport;
mod wire;

pub use cluster::{
    ClientHandle, Cluster, ClusterBuilder, NodeMetrics, RetryPolicy, SubmitTimeout, QUEUE_SLOTS,
};
pub use fault::{FaultPlan, FaultStats, FaultTransport, Partition};
pub use transport::{MemTransport, Peer, TcpTransport, Transport, TransportStats};
pub use wire::Wire;
