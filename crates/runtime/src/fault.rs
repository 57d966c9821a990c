//! Deterministic, seeded fault injection at the transport boundary.
//!
//! [`FaultTransport`] wraps any [`Transport`] and perturbs its traffic
//! from a seeded schedule: per-message drops, bounded FIFO-preserving
//! delays, timed partition windows, and connection-kill triggers that
//! fire the inner transport's [`Transport::kill_peer_link`] (a real
//! socket teardown on TCP, exercising the reconnect lifecycle). Every
//! decision comes from a SplitMix64 stream, so a fault scenario is a
//! *reproducible seed* instead of a flaky sleep: the same seed makes
//! the same drop/delay choices in the same order, run after run.
//!
//! Everything injected here stays inside the [`Transport`] delivery
//! contract — drops and kills are what the contract already allows, and
//! delays preserve per-peer FIFO order (a delayed message blocks the
//! messages queued behind it rather than being overtaken) — so the
//! protocols above need no special cases: their retransmission timers
//! absorb whatever this module throws at them. That is the point: a
//! chaos run that finds a safety violation has found a real bug, not an
//! artifact of the harness breaking its own contract.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use onepaxos::NodeId;

use crate::transport::{splitmix64, Peer, Transport, TransportStats};
use crate::wire::Wire;

/// A timed window during which traffic to and from a peer (or every
/// peer) is silently dropped — the schedule-driven analogue of a
/// network partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Window start, measured from the transport's creation.
    pub start: Duration,
    /// Window length.
    pub duration: Duration,
    /// The peer cut off, or `None` to isolate this endpoint entirely.
    pub peer: Option<NodeId>,
}

impl Partition {
    /// Whether `peer` is unreachable at `elapsed` since transport start.
    fn cuts(&self, peer: NodeId, elapsed: Duration) -> bool {
        (self.peer.is_none() || self.peer == Some(peer))
            && elapsed >= self.start
            && elapsed < self.start + self.duration
    }
}

/// The seeded schedule a [`FaultTransport`] injects.
///
/// Probabilities are per-message permille (0–1000); the RNG stream is
/// consumed one draw per decision, so two runs with the same seed and
/// the same message sequence make identical choices.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Per-message probability (‰) of silently dropping an outbound
    /// message.
    pub drop_permille: u32,
    /// Per-message probability (‰) of delaying an outbound message.
    pub delay_permille: u32,
    /// Upper bound on an injected delay; actual delays are drawn
    /// uniformly from `(0, max_delay]`.
    pub max_delay: Duration,
    /// Timed partition windows.
    pub partitions: Vec<Partition>,
    /// Connection-kill triggers: at each offset from transport start,
    /// sever the link to the named peer via the inner transport's
    /// [`Transport::kill_peer_link`]. Must be sorted by offset.
    pub conn_kills: Vec<(Duration, NodeId)>,
}

impl FaultPlan {
    /// A quiet plan with the given seed: no faults until the knobs are
    /// raised.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_permille: 0,
            delay_permille: 0,
            max_delay: Duration::from_millis(1),
            partitions: Vec::new(),
            conn_kills: Vec::new(),
        }
    }

    /// Sets the per-message drop probability in permille.
    pub fn drops(mut self, permille: u32) -> Self {
        self.drop_permille = permille;
        self
    }

    /// Sets the per-message delay probability and the delay cap.
    pub fn delays(mut self, permille: u32, max: Duration) -> Self {
        self.delay_permille = permille;
        self.max_delay = max;
        self
    }

    /// Adds a partition window.
    pub fn partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Adds a connection-kill trigger (keep them sorted by offset).
    pub fn kill_at(mut self, at: Duration, peer: NodeId) -> Self {
        self.conn_kills.push((at, peer));
        self
    }

    /// Derives a per-node plan: same knobs, decorrelated seed — so
    /// every process of a cluster runs its own independent decision
    /// stream from one cluster-level seed.
    pub fn for_node(&self, node: NodeId) -> Self {
        let mut p = self.clone();
        let mut s = self.seed ^ ((node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        p.seed = splitmix64(&mut s);
        p
    }
}

/// Counters of what a [`FaultTransport`] actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Outbound messages silently dropped by the drop dice.
    pub dropped: u64,
    /// Outbound messages held back by the delay dice.
    pub delayed: u64,
    /// Messages (both directions) discarded inside partition windows.
    pub partitioned: u64,
    /// Connection-kill triggers fired into the inner transport.
    pub kills: u64,
}

/// A [`Transport`] decorator injecting faults from a [`FaultPlan`].
///
/// Delayed messages are held in a single release queue whose release
/// times are monotone — a delayed message delays everything queued
/// after it, which is exactly what preserves the per-peer FIFO
/// contract. Held messages re-enter the inner transport from
/// [`flush`](Transport::flush)/[`pump`](Transport::pump), which every
/// event loop already calls each iteration.
pub struct FaultTransport<M, T> {
    inner: T,
    plan: FaultPlan,
    rng: u64,
    start: Instant,
    /// Held-back outbound messages, release times nondecreasing.
    held: VecDeque<(Instant, NodeId, u16, Wire<M>)>,
    next_kill: usize,
    stats: FaultStats,
}

impl<M, T: std::fmt::Debug> std::fmt::Debug for FaultTransport<M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTransport")
            .field("inner", &self.inner)
            .field("held", &self.held.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<M, T: Transport<M>> FaultTransport<M, T> {
    /// Wraps `inner`, injecting faults according to `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let rng = plan.seed;
        FaultTransport {
            inner,
            plan,
            rng,
            start: Instant::now(),
            held: VecDeque::new(),
            next_kill: 0,
            stats: FaultStats::default(),
        }
    }

    /// What has been injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// One draw from the decision stream in `0..1000`.
    fn roll(&mut self) -> u32 {
        (splitmix64(&mut self.rng) % 1000) as u32
    }

    /// Fires due conn-kill triggers and releases due delayed messages
    /// into the inner transport.
    fn advance(&mut self) {
        let now = Instant::now();
        let elapsed = now - self.start;
        while let Some(&(at, peer)) = self.plan.conn_kills.get(self.next_kill) {
            if elapsed < at {
                break;
            }
            self.inner.kill_peer_link(peer);
            self.stats.kills += 1;
            self.next_kill += 1;
        }
        while let Some(&(release, ..)) = self.held.front() {
            if release > now {
                break;
            }
            let (_, to, topic, msg) = self.held.pop_front().expect("checked front");
            self.inner.send(to, topic, msg);
        }
    }

    /// Whether a message to/from `peer` falls inside a partition window.
    fn partitioned(&self, peer: NodeId) -> bool {
        let elapsed = self.start.elapsed();
        self.plan.partitions.iter().any(|p| p.cuts(peer, elapsed))
    }
}

impl<M: Send, T: Transport<M>> Transport<M> for FaultTransport<M, T> {
    fn send(&mut self, to: NodeId, topic: u16, msg: Wire<M>) {
        self.advance();
        if self.partitioned(to) {
            self.stats.partitioned += 1;
            return;
        }
        // One decision draw per knob per message, taken unconditionally
        // so the stream stays aligned across runs even when a knob is 0.
        let drop_roll = self.roll();
        let delay_roll = self.roll();
        let delay_len = splitmix64(&mut self.rng);
        if drop_roll < self.plan.drop_permille {
            self.stats.dropped += 1;
            return;
        }
        if !self.held.is_empty() || delay_roll < self.plan.delay_permille {
            // FIFO preservation: anything behind a held message queues
            // behind it; release times are clamped monotone.
            let max = self.plan.max_delay.as_nanos().max(1) as u64;
            let extra = if delay_roll < self.plan.delay_permille {
                Duration::from_nanos(delay_len % max + 1)
            } else {
                Duration::ZERO
            };
            let mut release = Instant::now() + extra;
            if let Some(&(last, ..)) = self.held.back() {
                release = release.max(last);
            }
            self.stats.delayed += u64::from(extra > Duration::ZERO);
            self.held.push_back((release, to, topic, msg));
            return;
        }
        self.inner.send(to, topic, msg);
    }

    fn flush(&mut self) -> bool {
        self.advance();
        self.inner.flush() || !self.held.is_empty()
    }

    fn recv(&mut self) -> Option<(Peer, Wire<M>)> {
        self.advance();
        while let Some(((from, topic), msg)) = self.inner.recv() {
            if self.partitioned(from) {
                self.stats.partitioned += 1;
                continue;
            }
            return Some(((from, topic), msg));
        }
        None
    }

    fn pump(&mut self) {
        self.advance();
        self.inner.pump();
    }

    fn recv_ready(&mut self) -> Option<(Peer, Wire<M>)> {
        while let Some(((from, topic), msg)) = self.inner.recv_ready() {
            if self.partitioned(from) {
                self.stats.partitioned += 1;
                continue;
            }
            return Some(((from, topic), msg));
        }
        None
    }

    /// Forwards to the inner transport's policy, with `until` pulled in
    /// to the next thing this schedule owes — a held message's release,
    /// a connection kill — so a blocking inner wait cannot sleep through
    /// it.
    fn idle_wait(&mut self, empty_turns: u32, until: Option<Instant>) -> bool {
        let release = self.held.front().map(|&(at, ..)| at);
        let kill = self.plan.conn_kills.get(self.next_kill);
        let kill = kill.map(|&(at, _)| self.start + at);
        let until = until.into_iter().chain(release).chain(kill).min();
        self.inner.idle_wait(empty_turns, until)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn kill_peer_link(&mut self, peer: NodeId) {
        self.stats.kills += 1;
        self.inner.kill_peer_link(peer);
    }
}
