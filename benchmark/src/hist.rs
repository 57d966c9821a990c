//! Fixed-bucket log-linear latency histogram: constant memory however
//! long a run lasts, so `peak_rss_mb` measures the program and not a
//! sample vector. 64 linear sub-buckets per power of two (≤ 1.6 % wide);
//! quantiles interpolate inside the bucket by rank.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (~18 min) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB + SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist").field("total", &self.total).finish()
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    ((exp - SUB_BITS + 1) as usize) * SUB + sub
}

/// The half-open value range `[lo, hi)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let exp = (i / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + (i % SUB) as u64 * width;
    (lo, lo + width)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (seen + c) as f64 {
                let (lo, hi) = bounds(i);
                let inside = (rank - seen as f64 + 0.5) / c as f64;
                return lo as f64 + inside * (hi - lo) as f64;
            }
            seen += c;
        }
        bounds(BUCKETS - 1).0 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_inside_its_bucket() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            9_000,
            123_456_789,
            1 << 39,
        ] {
            let (lo, hi) = bounds(index(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo},{hi})");
            assert!((hi - lo) as f64 <= (v.max(64) as f64) / 32.0);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "p99 {p99}");
    }
}
