//! Fair polling over many peer queues.
//!
//! "A process that communicates with n other processes must check for new
//! messages from n separate read queues" (§6.2). The mailbox polls them
//! round-robin, resuming after the last served peer so a chatty neighbour
//! cannot starve the others.

use crate::spsc::Receiver;

/// A set of receive queues polled fairly, each tagged with a peer id.
#[derive(Debug)]
pub struct Mailbox<P, T> {
    peers: Vec<(P, Receiver<T>)>,
    /// Index after the peer served last, for round-robin fairness.
    cursor: usize,
}

impl<P: Copy, T> Default for Mailbox<P, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy, T> Mailbox<P, T> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            peers: Vec::new(),
            cursor: 0,
        }
    }

    /// Registers the receive queue from `peer`.
    pub fn add_peer(&mut self, peer: P, rx: Receiver<T>) {
        self.peers.push((peer, rx));
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether no peers are registered.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Polls all queues once, round-robin, returning the first message
    /// found together with its sender.
    pub fn poll(&mut self) -> Option<(P, T)> {
        let n = self.peers.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if let Some(v) = self.peers[i].1.try_recv() {
                self.cursor = i + 1;
                return Some((self.peers[i].0, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc;

    #[test]
    fn round_robin_is_fair() {
        let mut mb: Mailbox<u8, u32> = Mailbox::new();
        let (tx0, rx0) = spsc::channel(8);
        let (tx1, rx1) = spsc::channel(8);
        mb.add_peer(0, rx0);
        mb.add_peer(1, rx1);
        // Both peers have two messages; fairness interleaves them.
        for i in 0..2 {
            tx0.try_send(i).unwrap();
            tx1.try_send(100 + i).unwrap();
        }
        let order: Vec<(u8, u32)> = std::iter::from_fn(|| mb.poll()).collect();
        assert_eq!(order, vec![(0, 0), (1, 100), (0, 1), (1, 101)]);
    }

    #[test]
    fn poll_empty_returns_none() {
        let mut mb: Mailbox<u8, u32> = Mailbox::new();
        let (_tx, rx) = spsc::channel::<u32>(1);
        mb.add_peer(0, rx);
        assert_eq!(mb.poll(), None);
    }
}
