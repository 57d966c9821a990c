//! Deterministic pseudo-random numbers for the simulator.
//!
//! The simulator only needs reproducible jitter and workload sampling —
//! not cryptographic quality — and the build environment cannot fetch the
//! `rand` crate, so this is a splitmix64 generator over core's
//! `shard::splitmix64`. Same seed, same run: the determinism tests depend
//! on it.

use onepaxos::shard::splitmix64;

/// A splitmix64 generator (Steele, Lea & Flood; the seed sequencer of the
/// xoshiro family), stepped by core's [`splitmix64`]. 2⁶⁴ period, passes
/// BigCrush when used as a stream.
#[derive(Clone, Debug)]
pub struct SimRng(u64);

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Avoid the all-zero fixed point of a raw xor-shift by running the
        // seed through one splitmix round offset.
        SimRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "SimRng::below(0)");
        // Modulo bias is ≤ n/2⁶⁴ here — irrelevant for jitter/workloads.
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }
}
