//! Deterministic pseudo-random generation (the workspace's `rand`).
//!
//! [`DetRng`] is xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
//! the standard pairing: SplitMix64 expands a single `u64` seed into the
//! 256-bit state so that similar seeds (0, 1, 2, …) still produce
//! uncorrelated streams, and xoshiro256** provides the long-period
//! (2^256 − 1) stream. Both algorithms are public-domain reference code
//! reimplemented here; nothing about the stream depends on platform,
//! architecture, or library version — which is the point: a campaign seed
//! in a bug report must replay identically anywhere.
//!
//! The API mirrors the subset of `rand` the workspace used: `gen_range`
//! over half-open and inclusive integer ranges, `gen_bool`, Fisher–Yates
//! `shuffle`, and `choose`.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: the seed expander (Vigna's reference constants).
///
/// Public because seed *derivation* is part of the workspace contract too:
/// the sharded campaign runner derives each shard's sub-seed from the
/// campaign seed with this exact function, so a shard's schedule is
/// reproducible from `(seed, shard_id)` alone.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    crate::hash::mix64(*state)
}

/// Deterministic RNG: xoshiro256** seeded via SplitMix64.
///
/// The output stream for a given seed is part of the workspace's public
/// contract (campaign schedules derive from it) and is pinned by the
/// golden-value tests below.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next 64 uniformly-distributed bits (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly-distributed bits (upper half of the 64-bit step).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` by rejection sampling (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng: empty range");
        // Rejection zone: discard draws above the largest multiple of
        // `bound`, so every residue is equally likely.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform sample from an integer range, half-open or inclusive:
    /// `rng.gen_range(0..4)`, `rng.gen_range(1..=4)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 uniform mantissa bits, the same resolution `rand` uses.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly-chosen element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }

    /// A generator for a derived stream: deterministic in (own stream,
    /// `salt`), independent enough to hand to a sub-task.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ salt.rotate_left(32))
    }

    /// The raw 256-bit xoshiro256** state, for checkpointing.
    ///
    /// Together with [`DetRng::from_state`] this lets a campaign freeze a
    /// generator mid-stream and resume it in another process with the
    /// continuation byte-identical to never having stopped — `new(seed)`
    /// alone cannot do that because it always restarts the stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a prior [`DetRng::state`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros: that is xoshiro256**'s single
    /// fixed point (the stream would be constant zero forever), and no
    /// seeded generator can ever reach it.
    pub fn from_state(s: [u64; 4]) -> DetRng {
        assert!(
            s != [0; 4],
            "DetRng: all-zero state is not a valid xoshiro256** state"
        );
        DetRng { s }
    }
}

/// Integer range types [`DetRng::gen_range`] accepts.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut DetRng) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "DetRng: empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut DetRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "DetRng: empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the raw output stream. If this test fails, every seeded
    /// campaign schedule in the repository has silently changed — that is
    /// a breaking change to reproducibility, not a refactor detail.
    #[test]
    fn golden_stream_seed_zero() {
        let mut r = DetRng::new(0);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532,
                13521403990117723737,
                18442103541295991498,
                7788427924976520344,
                9881088229871127103,
            ]
        );
    }

    /// Second golden seed: catches seeding bugs a single seed might mask
    /// (e.g. ignoring the seed entirely).
    #[test]
    fn golden_stream_seed_2024() {
        let mut r = DetRng::new(2024);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                1029197146548041518,
                14427268137155694693,
                1329179038587965441,
                2946237779985736811,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_decorrelated() {
        // SplitMix64 expansion must keep adjacent seeds' streams apart.
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    /// Range uniformity smoke test: a chi-squared-style bound on an 8-bin
    /// histogram. With 80_000 draws the expected count per bin is 10_000;
    /// a correct generator stays within ±3% with overwhelming margin.
    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = DetRng::new(7);
        let mut bins = [0u32; 8];
        for _ in 0..80_000 {
            bins[r.gen_range(0usize..8)] += 1;
        }
        for (i, &count) in bins.iter().enumerate() {
            assert!(
                (9_700..=10_300).contains(&count),
                "bin {i} count {count} outside uniformity bound"
            );
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = DetRng::new(9);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!(
            (29_000..=31_000).contains(&hits),
            "p=0.3 gave {hits}/100000"
        );
        let mut r = DetRng::new(9);
        assert_eq!((0..1000).filter(|_| r.gen_bool(0.0)).count(), 0);
        let mut r = DetRng::new(9);
        assert_eq!((0..1000).filter(|_| r.gen_bool(1.0)).count(), 1000);
    }

    /// No short cycles: the state must not revisit itself within a long
    /// prefix (xoshiro256**'s period is 2^256 − 1; a transcription bug —
    /// wrong rotation constant, dropped xor — typically collapses it).
    #[test]
    fn no_short_cycles() {
        let mut r = DetRng::new(123);
        let start = r.clone();
        for step in 1..=100_000u32 {
            r.next_u64();
            assert!(r != start, "state cycled after {step} steps");
        }
    }

    #[test]
    fn inclusive_and_exclusive_ranges_hit_bounds() {
        let mut r = DetRng::new(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.gen_range(1u64..=4) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 4], "1..=4 never produced some value");
        for _ in 0..200 {
            let v = r.gen_range(0usize..3);
            assert!(v < 3, "0..3 produced {v}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a = DetRng::new(11);
        let mut b = DetRng::new(11);
        let mut va: Vec<u32> = (0..20).collect();
        let mut vb: Vec<u32> = (0..20).collect();
        a.shuffle(&mut va);
        b.shuffle(&mut vb);
        assert_eq!(va, vb, "same seed must shuffle identically");
        let mut sorted = va.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>(), "elements lost");
        assert_ne!(
            va, sorted,
            "20 elements virtually never shuffle to identity"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = DetRng::new(13);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..100 {
            let v = *r.choose(&items).unwrap();
            seen[items.iter().position(|&x| x == v).unwrap()] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!(r.choose::<u8>(&[]).is_none());
    }

    /// Checkpoint contract: a generator rebuilt from `state()` continues
    /// the stream exactly where the original left off.
    #[test]
    fn state_roundtrip_resumes_mid_stream() {
        let mut r = DetRng::new(2024);
        for _ in 0..37 {
            r.next_u64();
        }
        let mut resumed = DetRng::from_state(r.state());
        for _ in 0..100 {
            assert_eq!(resumed.next_u64(), r.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "all-zero state")]
    fn all_zero_state_rejected() {
        let _ = DetRng::from_state([0; 4]);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = DetRng::new(17);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..1000).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
