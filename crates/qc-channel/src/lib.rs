//! Lock-free shared-memory message passing for many-core machines — the
//! QC-libtask analogue from *"Consensus Inside"* (MIDDLEWARE 2014), §6.
//!
//! What is here is what the rest of the workspace calls:
//!
//! * **Message queuing** ([`spsc`]): per-pair unidirectional queues of
//!   128-byte cache-aligned slots (seven per queue by default), with the
//!   head pointer moved by the reader and the tail by the writer — no
//!   locks, no system calls on the fast path (§6.1, Fig 6). The queue
//!   counters double as the measurement hooks of the §3
//!   transmission/propagation-delay experiments (`tab_net` in the bench
//!   crate).
//! * **Message delivery** ([`mailbox`]): a process talking to *n* peers
//!   polls *n* read queues, round-robin (§6.2) — the receive side of the
//!   runtime's shared-memory transport.
//!
//! Unicast only: the ZIMP-style one-to-many ring the paper weighs as
//! the road not taken (§8) is not implemented — the runtime never
//! broadcasts through shared memory, and no benchmark row measures it.
//!
//! # Quickstart
//!
//! ```
//! use qc_channel::spsc;
//!
//! // One queue per direction per pair of cores (Fig 6).
//! let (to_core1, at_core1) = spsc::channel::<u64>(qc_channel::DEFAULT_SLOTS);
//! to_core1.try_send(42).unwrap();
//! assert_eq!(at_core1.try_recv(), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod crossbeam;

pub mod mailbox;
pub mod spsc;

pub use mailbox::Mailbox;
pub use spsc::{channel, Full, Receiver, Sender, DEFAULT_SLOTS, SLOT_BYTES};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Sender<u64>>();
        assert_send::<Receiver<u64>>();
    }

    #[test]
    fn slot_constants_match_paper() {
        assert_eq!(DEFAULT_SLOTS, 7);
        assert_eq!(SLOT_BYTES, 128);
    }
}
