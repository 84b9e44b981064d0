//! A fixed, fast hasher for word-addressed tables.
//!
//! `std`'s default `RandomState` is SipHash-1-3 with a per-process random
//! key: DoS-resistant, and several times the cost of a table probe for a
//! `u64` key. The simulated kernel's word table (`oemu::Memory`) is keyed by
//! addresses the simulator itself chose, so there is no adversary to resist,
//! and boot alone inserts ~16.5k words. [`WordHasher`] instead applies the
//! SplitMix64 finalizer ([`mix64`]) to the key.
//!
//! The finalizer matters: a bare multiply (Fx-style) maps 8-byte-aligned
//! keys to hashes whose low three bits are always zero, and the low bits are
//! what picks the bucket — so 7 of every 8 buckets would stay empty and
//! probes would cluster. The xor-shifts fold the high bits back down before
//! each multiply, so every output bit depends on every key bit.
//!
//! The hash is deterministic, so a table's iteration order is the same
//! in every process. Nothing may rely on that: every rendering of a table
//! (state digests, snapshots) still sorts first.

use std::hash::{BuildHasher, Hasher};

/// The SplitMix64 output finalizer (Vigna's reference constants): a
/// bijection on `u64` with full avalanche.
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hasher state for one key: [`mix64`] of the key for a `u64`, a chained
/// mix per byte for anything else (unused by the word table).
#[derive(Default, Clone, Copy, Debug)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`] for [`WordHasher`]; the `S` parameter of a word table.
#[derive(Default, Clone, Copy, Debug)]
pub struct BuildWordHasher;

impl BuildHasher for BuildWordHasher {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash(key: u64) -> u64 {
        BuildWordHasher.hash_one(key)
    }

    /// 4,096 word-strided keys must land on many distinct low-bit values:
    /// the bucket index of a table with 4,096 buckets. A bare multiply
    /// reaches only one in eight of them (the low three bits stay zero).
    #[test]
    fn spreads_word_strided_keys_across_low_bits() {
        let base = 0xba11_0000_0000u64;
        let keys = (0..4096u64).map(|i| base + 8 * i);
        let low: HashSet<u64> = keys.clone().map(|k| hash(k) & 0xfff).collect();
        // A uniform hash fills ~1 - 1/e of 4,096 buckets (~2,590).
        assert!(
            low.len() > 2400,
            "only {} distinct low-bit values",
            low.len()
        );
        let fx: HashSet<u64> = keys
            .map(|k| k.wrapping_mul(0x517c_c1b7_2722_0a95) & 0xfff)
            .collect();
        assert!(fx.len() <= 512, "a bare multiply keeps the low 3 bits zero");
    }

    #[test]
    fn is_deterministic_and_injective() {
        assert_eq!(hash(0x1234), hash(0x1234));
        let all: HashSet<u64> = (0..10_000u64).map(|i| hash(i * 8)).collect();
        assert_eq!(all.len(), 10_000, "mix64 is a bijection");
    }
}
