//! `engine_burst`: the sans-IO cost of engine + batch accumulator +
//! shard + protocol + rsm at real batch depth. One thread, no IO,
//! virtual time: each round submits 64 puts from 64 virtual clients to
//! node 0 of a 3-node, 4-shard `TestNet` batching 16 deep, then lets
//! the 20 µs flush deadline pass. Two blocking clients can never fill a
//! batch through the threaded runtime; this can.
//!
//! `TestNet` records every reply and commit it ever saw, so a
//! repetition is cut into segments, each on a fresh net: memory stays
//! flat however long the run, and every segment start is one more
//! set-up sample.

use std::time::{Duration, Instant};

use onepaxos::engine::BatchConfig;
use onepaxos::testnet::TestNet;
use onepaxos::{NodeId, Op, Protocol};

use crate::gen::{lane, Rng};
use crate::hist::Hist;
use crate::procstat;
use crate::trace::RootSpan;

pub const NODES: u16 = 3;
pub const SHARDS: u16 = 4;
pub const BATCH: usize = 16;
pub const FLUSH_NS: u64 = 20_000;
/// Commands per round, one per virtual client.
pub const BURST: usize = 64;
const KEYS_PER_VCLIENT: u64 = 16;
const FIRST_VCLIENT: u16 = 100;
/// Rounds per segment (~131k commands on one net).
const SEGMENT_ROUNDS: u64 = 2048;

/// What a burst run measured. The counts (`commands`, `delivered`,
/// `flushes`, …) repeat exactly for a seed and a round count.
#[derive(Debug, Default)]
pub struct BurstOut {
    /// Set-up time of every segment.
    pub setups_s: Vec<f64>,
    /// Resident set when the first segment's set-up finished, MB.
    pub setup_rss_mb: f64,
    /// Wall time spent inside measured rounds.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Resident set at the end of every segment, MB.
    pub rss_samples: Vec<f64>,
    /// Measured rounds, and commands replied to correctly in them.
    pub rounds: u64,
    pub commands: u64,
    /// Replies of any content in measured rounds (the per-protocol
    /// ladder counts these: not every protocol attaches the value).
    pub replies: u64,
    /// Every command replied, set-up rounds included (the base of
    /// `cpu_us_per_op`, whose CPU reading covers them too).
    pub all_commands: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-round wall time, submit → last reply.
    pub round_ns: Hist,
    /// Protocol messages delivered during measured rounds.
    pub delivered: u64,
    pub flushes: u64,
    pub flushed_commands: u64,
    pub deadline_flushes: u64,
    pub applied_log_len_max: u64,
    pub roots: Vec<RootSpan>,
}

impl BurstOut {
    pub fn msgs_per_commit(&self) -> f64 {
        self.delivered as f64 / self.commands.max(1) as f64
    }

    pub fn mean_fill(&self) -> f64 {
        self.flushed_commands as f64 / self.flushes.max(1) as f64
    }
}

/// When a burst run stops.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    Elapsed(Duration),
    /// A fixed amount of work: what the determinism self-test runs.
    #[cfg_attr(not(test), allow(dead_code))]
    Rounds(u64),
}

struct Segment<P: Protocol> {
    net: TestNet<P>,
    /// Model: last value written per key (`vclient × 16 + j`).
    model: Vec<Option<u64>>,
    next_req: Vec<u64>,
    replies_seen: usize,
}

fn key_of(vclient: usize, j: u64) -> u64 {
    vclient as u64 * KEYS_PER_VCLIENT + j
}

impl<P: Protocol> Segment<P> {
    fn new(make: &mut impl FnMut(&[NodeId], NodeId) -> P) -> Self {
        let mut net = TestNet::builder(NODES)
            .shards(SHARDS)
            .batching(BatchConfig::new(BATCH, FLUSH_NS))
            .build(make);
        net.run_to_quiescence();
        Segment {
            net,
            model: vec![None; BURST * KEYS_PER_VCLIENT as usize],
            next_req: vec![1; BURST],
            replies_seen: 0,
        }
    }

    /// One round: every virtual client puts key `pick(vclient)`. Returns
    /// how many replies arrived and how many of the 64 were missing or
    /// wrong.
    fn round(&mut self, value: u64, mut pick: impl FnMut(usize) -> u64) -> (u64, u64) {
        let mut expect = [(0u64, None::<u64>); BURST];
        for (c, slot) in expect.iter_mut().enumerate() {
            let key = key_of(c, pick(c));
            let req = self.next_req[c];
            self.next_req[c] += 1;
            *slot = (req, self.model[key as usize]);
            self.model[key as usize] = Some(value);
            self.net.client_request(
                NodeId(0),
                NodeId(FIRST_VCLIENT + c as u16),
                req,
                Op::Put { key, value },
            );
        }
        self.net.run_to_quiescence();
        self.net.advance(FLUSH_NS);
        self.net.run_to_quiescence();
        let fresh = &self.net.replies()[self.replies_seen..];
        let mut good = 0u64;
        for r in fresh {
            let c = r.client.0.wrapping_sub(FIRST_VCLIENT) as usize;
            good += (c < BURST && expect[c] == (r.req_id, r.value)) as u64;
        }
        let replies = fresh.len() as u64;
        self.replies_seen = self.net.replies().len();
        (
            replies,
            (BURST as u64).saturating_sub(good) + (replies - good),
        )
    }

    /// Every key written once, so that every later `put` has a previous
    /// value to return, then one verified read through the log.
    fn preload(&mut self) -> u64 {
        let mut failed = 0;
        for j in 0..KEYS_PER_VCLIENT {
            failed += self.round(1_000_000 + j, |_| j).1;
        }
        let probe = NodeId(FIRST_VCLIENT);
        let req = self.next_req[0];
        self.next_req[0] += 1;
        self.net
            .client_request(NodeId(0), probe, req, Op::Get { key: key_of(0, 0) });
        self.net.run_to_quiescence();
        self.net.advance(FLUSH_NS);
        self.net.run_to_quiescence();
        let ok = self.net.replies()[self.replies_seen..]
            .iter()
            .any(|r| r.client == probe && r.req_id == req && r.value == self.model[0]);
        self.replies_seen = self.net.replies().len();
        failed + !ok as u64
    }

    /// End of segment: the model against node 0's store, and equal
    /// digests on all three nodes.
    fn verify(&self) -> (u64, u64) {
        let mut failed = 0;
        for (key, want) in self.model.iter().enumerate() {
            failed += (self.net.kv_get(NodeId(0), key as u64) != *want) as u64;
        }
        let d0 = self.net.sharded_engine(NodeId(0)).kv_digest();
        for n in 1..NODES {
            failed += (self.net.sharded_engine(NodeId(n)).kv_digest() != d0) as u64;
        }
        (self.model.len() as u64 + (NODES as u64 - 1), failed)
    }
}

/// Runs bursts until `until`, in segments. `roots` records one root
/// span per round.
pub fn run<P: Protocol>(
    mut make: impl FnMut(&[NodeId], NodeId) -> P,
    seed: u64,
    until: Until,
    roots: bool,
) -> BurstOut {
    let mut out = BurstOut::default();
    let mut rng: Rng = lane(seed, 0xB0257);
    let epoch = Instant::now();
    let cpu0 = procstat::cpu_seconds();
    let done = |out: &BurstOut| match until {
        Until::Elapsed(d) => epoch.elapsed() >= d,
        Until::Rounds(n) => out.rounds >= n,
    };
    while !done(&out) {
        let t0 = Instant::now();
        let mut seg = Segment::new(&mut make);
        let preload_failed = seg.preload();
        out.setups_s.push(t0.elapsed().as_secs_f64());
        if out.setups_s.len() == 1 {
            out.setup_rss_mb = procstat::rss_mb().0;
        }
        out.failed += preload_failed;
        out.attempted += KEYS_PER_VCLIENT * BURST as u64 + 1;
        out.all_commands += KEYS_PER_VCLIENT * BURST as u64 + 1;

        let delivered0 = seg.net.delivered();
        let stats0 = seg.net.engine_stats(NodeId(0));
        let mut seg_rounds = 0;
        while seg_rounds < SEGMENT_ROUNDS && !done(&out) {
            let value = 2_000_000 + out.rounds;
            let t = Instant::now();
            let (replies, failed) = seg.round(value, |_| rng.below(KEYS_PER_VCLIENT));
            out.replies += replies;
            let dt = t.elapsed();
            out.wall_s += dt.as_secs_f64();
            out.round_ns.record(dt.as_nanos() as u64);
            if roots {
                out.roots.push(RootSpan {
                    kind: "burst",
                    ok: failed == 0,
                    start_ns: (t - epoch).as_nanos() as u64,
                    dur_ns: dt.as_nanos() as u64,
                });
            }
            out.rounds += 1;
            seg_rounds += 1;
            out.attempted += BURST as u64;
            out.failed += failed;
            out.commands += BURST as u64 - failed.min(BURST as u64);
        }
        out.all_commands += seg_rounds * BURST as u64;
        out.delivered += seg.net.delivered() - delivered0;
        let stats = seg.net.engine_stats(NodeId(0));
        out.flushes += stats.flushes - stats0.flushes;
        out.flushed_commands += stats.flushed_commands - stats0.flushed_commands;
        out.deadline_flushes += stats.deadline_flushes - stats0.deadline_flushes;
        out.applied_log_len_max = out.applied_log_len_max.max(stats.applied_log_len as u64);
        out.rss_samples.push(procstat::rss_mb().0);
        let (checked, failed) = seg.verify();
        out.attempted += checked;
        out.failed += failed;
    }
    out.cpu_s = procstat::cpu_seconds() - cpu0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepaxos::onepaxos::OnePaxosNode;
    use onepaxos::ClusterConfig;

    fn one_paxos(m: &[NodeId], me: NodeId) -> OnePaxosNode {
        OnePaxosNode::new(ClusterConfig::new(m.to_vec(), me))
    }

    /// The counts are a pure function of the seed: two in-process runs
    /// agree to the bit, and another seed gives other inputs.
    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let a = run(one_paxos, 11, Until::Rounds(300), false);
        let b = run(one_paxos, 11, Until::Rounds(300), false);
        assert_eq!(a.failed, 0);
        assert_eq!(a.commands, 300 * BURST as u64);
        assert_eq!(a.msgs_per_commit().to_bits(), b.msgs_per_commit().to_bits());
        assert_eq!(a.mean_fill().to_bits(), b.mean_fill().to_bits());
        assert_eq!((a.delivered, a.flushes), (b.delivered, b.flushes));
        assert!(a.mean_fill() > 4.0, "batches fill: {}", a.mean_fill());
        assert!(a.msgs_per_commit() < 1.0, "{}", a.msgs_per_commit());
    }
}
