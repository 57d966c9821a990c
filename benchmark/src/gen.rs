//! Seeded input generation. `--seed` drives the key choice, the
//! operation mix, the hot set and the pacing offsets, and nothing else
//! of the seed reaches the program under test: the system only ever
//! sees the generated operations.

use onepaxos::shard::ShardRouter;

/// Private keys per client (threaded workloads).
pub const KEYS_PER_CLIENT: usize = 1024;
/// Keys in the set both clients' transactions share (`mem_txn`).
pub const HOT_KEYS: usize = 8;
/// Share of transaction keys drawn from the hot set, in percent.
const HOT_PCT: u64 = 10;
/// Where the hot-set candidates live, far from every private range.
const HOT_BASE: u64 = 9_000_000;

/// SplitMix64 — small, seedable, and good enough to pick keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A decorrelated sub-stream of `seed` for one purpose (`lane`).
pub fn lane(seed: u64, lane: u64) -> Rng {
    let mut r = Rng::new(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
    r.next_u64();
    r
}

/// The operation mix of one threaded workload, in percent.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get_pct: u64,
    pub txn_pct: u64,
}

/// A key as the generator names it: an index into the client's private
/// range, or an index into the shared hot set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyRef {
    Own(u16),
    Hot(u8),
}

/// One generated client operation. Values are not generated: the
/// harness writes `value_of(client, seq)` so every write is unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GenOp {
    Put(u16),
    Get(u16),
    /// Two keys owned by different shard groups.
    Txn(KeyRef, KeyRef),
}

/// The value a client writes with its `seq`-th write: the writer in the
/// high bits, so a reply carrying another client's value is recognisable.
pub fn value_of(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 40) | seq
}

/// The `i`-th private key of `client`.
pub fn own_key(client: usize, i: u16) -> u64 {
    (client as u64 + 1) * 1_000_000 + i as u64
}

/// The hot set of a seed: [`HOT_KEYS`] distinct keys.
pub fn hot_keys(seed: u64) -> [u64; HOT_KEYS] {
    let mut rng = lane(seed, 0x407);
    let mut out = [0u64; HOT_KEYS];
    let mut n = 0;
    while n < HOT_KEYS {
        let k = HOT_BASE + rng.below(4096);
        if !out[..n].contains(&k) {
            out[n] = k;
            n += 1;
        }
    }
    out
}

/// The endless operation stream of one client.
#[derive(Debug)]
pub struct OpGen {
    rng: Rng,
    mix: Mix,
    client: usize,
    router: ShardRouter,
    hot: [u64; HOT_KEYS],
}

impl OpGen {
    pub fn new(seed: u64, client: usize, mix: Mix, shards: u16) -> Self {
        OpGen {
            rng: lane(seed, 0x0905 + client as u64),
            mix,
            client,
            router: ShardRouter::new(shards),
            hot: hot_keys(seed),
        }
    }

    pub fn key(&self, k: KeyRef) -> u64 {
        match k {
            KeyRef::Own(i) => own_key(self.client, i),
            KeyRef::Hot(i) => self.hot[i as usize],
        }
    }

    fn own(&mut self) -> u16 {
        self.rng.below(KEYS_PER_CLIENT as u64) as u16
    }

    fn txn_key(&mut self) -> KeyRef {
        if self.rng.below(100) < HOT_PCT {
            KeyRef::Hot(self.rng.below(HOT_KEYS as u64) as u8)
        } else {
            KeyRef::Own(self.own())
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let dice = self.rng.below(100);
        if dice < self.mix.txn_pct {
            let a = self.txn_key();
            loop {
                let b = self.txn_key();
                if self.router.route_key(self.key(a)) != self.router.route_key(self.key(b)) {
                    return GenOp::Txn(a, b);
                }
            }
        } else if dice < self.mix.txn_pct + self.mix.get_pct {
            GenOp::Get(self.own())
        } else {
            GenOp::Put(self.own())
        }
    }
}

/// The phase offset of `client`'s open-loop schedule inside one
/// inter-arrival `gap_ns`.
pub fn pacing_offset_ns(seed: u64, client: usize, gap_ns: u64) -> u64 {
    lane(seed, 0x9ACE + client as u64).below(gap_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the first `n` operations of every client of one mix —
    /// what the schedule-hash test pins.
    fn schedule_hash(seed: u64, clients: usize, mix: Mix, shards: u16, n: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for c in 0..clients {
            let mut g = OpGen::new(seed, c, mix, shards);
            eat(pacing_offset_ns(seed, c, 400_000));
            for _ in 0..n {
                match g.next_op() {
                    GenOp::Put(i) => eat(g.key(KeyRef::Own(i))),
                    GenOp::Get(i) => eat(!g.key(KeyRef::Own(i))),
                    GenOp::Txn(a, b) => {
                        eat(g.key(a).rotate_left(17));
                        eat(g.key(b).rotate_left(31));
                    }
                }
            }
        }
        h
    }

    /// The generated schedule is part of the benchmark's definition: a
    /// change to the generator changes every workload's inputs, and this
    /// test makes that a deliberate act. (mix, shards) as the three
    /// threaded workloads use them, seed 1, 10 000 operations per client.
    #[test]
    fn schedule_of_seed_1_is_pinned() {
        let put = Mix {
            get_pct: 0,
            txn_pct: 0,
        };
        let mix = Mix {
            get_pct: 30,
            txn_pct: 0,
        };
        let txn = Mix {
            get_pct: 0,
            txn_pct: 50,
        };
        assert_eq!(
            schedule_hash(1, 2, put, 1, 10_000),
            2_065_395_864_319_280_717
        );
        assert_eq!(
            schedule_hash(1, 2, mix, 2, 10_000),
            8_730_501_228_744_874_305
        );
        assert_eq!(
            schedule_hash(1, 2, txn, 4, 10_000),
            16_374_824_210_701_424_045
        );
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let mix = Mix {
            get_pct: 30,
            txn_pct: 0,
        };
        assert_eq!(
            schedule_hash(7, 2, mix, 2, 1000),
            schedule_hash(7, 2, mix, 2, 1000)
        );
        assert_ne!(
            schedule_hash(7, 2, mix, 2, 1000),
            schedule_hash(8, 2, mix, 2, 1000)
        );
    }

    #[test]
    fn txn_keys_sit_on_different_shards_and_hot_share_is_about_a_tenth() {
        let mix = Mix {
            get_pct: 0,
            txn_pct: 50,
        };
        let mut g = OpGen::new(3, 1, mix, 4);
        let router = ShardRouter::new(4);
        let (mut txn_keys, mut hot) = (0u32, 0u32);
        for _ in 0..20_000 {
            if let GenOp::Txn(a, b) = g.next_op() {
                assert_ne!(router.route_key(g.key(a)), router.route_key(g.key(b)));
                for k in [a, b] {
                    txn_keys += 1;
                    hot += matches!(k, KeyRef::Hot(_)) as u32;
                }
            }
        }
        let share = hot as f64 / txn_keys as f64;
        assert!((0.07..0.13).contains(&share), "hot share {share}");
    }
}
