//! Timeout-based failure suspicion.
//!
//! The paper models faults as *slow* cores: "The notion of 'crash' used
//! here does not necessarily mean the cores stopping any activities
//! forever. It simply models slow ones" (§1, footnote 3). Accordingly,
//! suspicion is never permanent — a node is suspected while it has been
//! silent longer than a timeout and trusted again as soon as it is heard
//! from.

use std::collections::BTreeMap;

use crate::types::{Nanos, NodeId};

/// Per-peer last-heard tracking with a fixed suspicion timeout.
///
/// # Examples
///
/// ```
/// use onepaxos::failure::FailureDetector;
/// use onepaxos::NodeId;
///
/// let mut fd = FailureDetector::new(1_000);
/// fd.heard(NodeId(1), 0);
/// assert!(!fd.suspects(NodeId(1), 500));
/// assert!(fd.suspects(NodeId(1), 2_000));
/// fd.heard(NodeId(1), 2_000);
/// assert!(!fd.suspects(NodeId(1), 2_500));
/// ```
#[derive(Clone, Debug)]
pub struct FailureDetector {
    timeout: Nanos,
    last_heard: BTreeMap<NodeId, Nanos>,
}

impl FailureDetector {
    /// Creates a detector that suspects a peer after `timeout` nanoseconds
    /// of silence.
    pub fn new(timeout: Nanos) -> Self {
        FailureDetector {
            timeout,
            last_heard: BTreeMap::new(),
        }
    }

    /// Records that a message from `peer` was received at `now`.
    pub fn heard(&mut self, peer: NodeId, now: Nanos) {
        let e = self.last_heard.entry(peer).or_insert(now);
        if *e < now {
            *e = now;
        }
    }

    /// Treat `peer` as alive as of `now` without having heard from it
    /// (used when this node first learns of a peer, so that the grace
    /// period starts from discovery rather than from time zero).
    pub fn reset(&mut self, peer: NodeId, now: Nanos) {
        self.last_heard.insert(peer, now);
    }

    /// Whether `peer` has been silent for longer than the timeout.
    ///
    /// A peer never heard from is given the benefit of the doubt starting
    /// at time zero.
    pub fn suspects(&self, peer: NodeId, now: Nanos) -> bool {
        let last = self.last_heard.get(&peer).copied().unwrap_or(0);
        now.saturating_sub(last) > self.timeout
    }

    /// When `peer` was last heard from (or `None` if never).
    pub fn last_heard(&self, peer: NodeId) -> Option<Nanos> {
        self.last_heard.get(&peer).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_peer_uses_time_zero() {
        let fd = FailureDetector::new(100);
        assert!(!fd.suspects(NodeId(3), 100));
        assert!(fd.suspects(NodeId(3), 101));
    }

    #[test]
    fn hearing_clears_suspicion() {
        let mut fd = FailureDetector::new(100);
        fd.heard(NodeId(1), 0);
        assert!(fd.suspects(NodeId(1), 500));
        fd.heard(NodeId(1), 500);
        assert!(!fd.suspects(NodeId(1), 550));
    }

    #[test]
    fn heard_is_monotonic() {
        let mut fd = FailureDetector::new(100);
        fd.heard(NodeId(1), 500);
        fd.heard(NodeId(1), 200); // stale timestamp must not regress
        assert_eq!(fd.last_heard(NodeId(1)), Some(500));
    }

    #[test]
    fn reset_starts_grace_period() {
        let mut fd = FailureDetector::new(100);
        assert!(fd.suspects(NodeId(2), 1_000));
        fd.reset(NodeId(2), 1_000);
        assert!(!fd.suspects(NodeId(2), 1_050));
    }
}
