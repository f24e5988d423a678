//! # vpsim-rng
//!
//! A self-contained, dependency-free deterministic PRNG for the
//! simulator: DRAM jitter, random cache replacement, the R-type defense
//! draw, and the randomized test generators all draw from here.
//!
//! The generator is xoshiro256++ seeded through splitmix64 — the same
//! construction the `rand` crate uses for its `SmallRng` on 64-bit
//! targets. It is **not** cryptographic; it is fast, has a 2^256 − 1
//! period, and — critically for the experiment harness — every stream is
//! a pure function of its `u64` seed, so results are reproducible across
//! runs, platforms and thread counts.

#![forbid(unsafe_code)]

use std::hash::Hasher;

/// The splitmix64 step: expands a 64-bit seed into a stream of
/// well-mixed words (used to initialise xoshiro state).
#[inline]
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast, seedable PRNG (xoshiro256++).
///
/// The name mirrors `rand::rngs::SmallRng` so swapping the dependency
/// out was an import-only change at the call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Deterministically seed from a single `u64` (splitmix64 expansion).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from a range (`lo..hi`, `lo..=hi`, over `u64`,
    /// `usize`, `u32` or `i64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    #[must_use]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A bernoulli draw with probability `p`.
    #[inline]
    #[must_use]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniformly choose an element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.gen_range(0..items.len())]
    }

    /// A vector of `len` draws from `f`.
    pub fn vec_of<T>(&mut self, len: usize, mut f: impl FnMut(&mut SmallRng) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }

    /// Bounded draw in `[0, bound)` by widening multiply (Lemire's
    /// unbiased-enough fast path; the multiply keeps determinism and the
    /// bias below 2^-64 × bound, irrelevant for simulation jitter).
    #[inline]
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A fixed multiply-xorshift [`Hasher`] for the `u64` keys the simulator
/// makes itself: backing-store page numbers and predictor indexes. Use
/// it as `HashMap<u64, V, BuildHasherDefault<U64Hasher>>`.
///
/// One `u64` hashes in a multiply and a shift, where the standard
/// library's SipHash takes dozens of operations, and a map's iteration
/// order becomes a function of its contents. It has no random seed, so
/// keys chosen to collide would collide: it is not for keys that arrive
/// from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Any other key type: its bytes, eight at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Each odd multiply spreads a key's low bits over the high bits,
        // and each shift folds the high bits back into the low bits a
        // table indexes by.
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let x = (x ^ (x >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        self.0 = x ^ (x >> 32);
    }
}

/// Range types [`SmallRng::gen_range`] accepts.
pub trait UniformRange {
    /// The sampled value type.
    type Output;
    /// Draw uniformly from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

impl UniformRange for std::ops::Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded(self.end - self.start)
    }
}

impl UniformRange for std::ops::RangeInclusive<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.bounded(span + 1)
    }
}

impl UniformRange for std::ops::Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.bounded((self.end - self.start) as u64) as usize
    }
}

impl UniformRange for std::ops::RangeInclusive<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> usize {
        rng.gen_range(*self.start() as u64..=*self.end() as u64) as usize
    }
}

impl UniformRange for std::ops::Range<u32> {
    type Output = u32;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u32 {
        rng.gen_range(u64::from(self.start)..u64::from(self.end)) as u32
    }
}

impl UniformRange for std::ops::Range<i64> {
    type Output = i64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> i64 {
        assert!(self.start < self.end, "empty range");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(rng.bounded(span) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(rng.gen_range(10u64..20) < 20);
            assert!(rng.gen_range(10u64..20) >= 10);
            let v = rng.gen_range(0u64..=5);
            assert!(v <= 5);
            let u = rng.gen_range(3usize..9);
            assert!((3..9).contains(&u));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn inclusive_zero_span_is_constant() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            assert_eq!(rng.gen_range(4u64..=4), 4);
        }
    }

    #[test]
    fn full_u64_inclusive_range_does_not_panic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_draws_are_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        let n = 64_000;
        for _ in 0..n {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            let expect = n / 8;
            assert!(
                c > expect * 9 / 10 && c < expect * 11 / 10,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn u64_hasher_is_fixed_and_spreads_strided_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<U64Hasher>::default();
        assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
        assert_ne!(build.hash_one(42u64), build.hash_one(43u64));
        // Sequential page numbers and PC-like keys 4 or 64 apart fill
        // the low bits a 256-bucket table indexes by evenly.
        for stride in [1u64, 4, 64, 4096] {
            let mut buckets = [0u32; 256];
            for k in 0..4096u64 {
                buckets[(build.hash_one(k * stride) & 255) as usize] += 1;
            }
            let (lo, hi) = (buckets.iter().min(), buckets.iter().max());
            assert!(
                lo >= Some(&4) && hi <= Some(&32),
                "stride {stride}: buckets from {lo:?} to {hi:?}"
            );
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items = [1, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*rng.choose(&items));
        }
        assert_eq!(seen.len(), items.len());
    }
}
