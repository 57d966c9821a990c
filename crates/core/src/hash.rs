//! One fixed word hasher for the tables the commit path only
//! point-queries: the applier's session table, the KV map, the engine's
//! batch identities and the protocols' `(client, req_id)` tables.
//!
//! These tables are looked up once or more per applied command, and
//! nothing reads them in key order on that path, so an ordered map's
//! comparisons and node walks are pure cost. Key order is produced only
//! where something can observe it — `KvStore::{entries, digest,
//! snapshot}` and `Applier::snapshot` sort at capture — so snapshot
//! bytes, digests and seeded simulator output do not depend on the
//! table's layout.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::shard::mix64;

/// A `HashMap` hashed by [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` hashed by [`WordHasher`].
pub(crate) type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// Odd multiplier (2⁶⁴/φ) that folds each written word into the state.
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds integer words with one multiply each and finishes with the
/// SplitMix64 finalizer ([`mix64`]), so a one- or two-word key costs a
/// few multiplies instead of SipHash's rounds.
///
/// **Seedless.** Every table built with it hashes the same key to the
/// same bucket in every process and every run. A run therefore repeats
/// exactly, down to allocation counts and probe sequences, and no
/// per-process seed can leak into an iteration order — though nothing
/// on the commit path iterates these tables, and the places that expose
/// contents sort first.
///
/// **HashDoS.** A fixed hash gives up the randomized hasher's defence
/// against keys chosen to collide. The keys hashed here are client ids,
/// request ids and KV keys issued by the deployment's own clients
/// inside one machine, not input from an untrusted network; a
/// deployment that took keys from outside would keep the default hasher
/// for them.
///
/// **Independent of shard routing.** The router sends `key` to shard
/// `mix64(key) % shards`; this hasher feeds `mix64` with `key · FOLD`,
/// not `key`, so the keys one shard owns still spread over every low
/// bucket bit of that shard's tables.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // No key on the commit path hashes as bytes: `NodeId` and the
        // request and KV ids take the word writes below.
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FOLD);
    }

    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardId, ShardRouter};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(key)
    }

    #[test]
    fn one_shards_keys_cover_every_low_bucket_bit() {
        // The router fixes the low two bits of `mix64(key)` for every
        // key of a shard; had the table hash been `mix64(key)` too, a
        // shard's keys would land in a quarter of its buckets.
        let router = ShardRouter::new(4);
        for shard in 0..4 {
            let mut residues = [false; 16];
            for key in (0..4_096u64).filter(|&k| router.route_key(k) == ShardId(shard)) {
                residues[(hash_of(key) & 15) as usize] = true;
            }
            assert!(
                residues.iter().all(|&seen| seen),
                "shard {shard}'s keys miss low-bit residues: {residues:?}"
            );
        }
    }
}
