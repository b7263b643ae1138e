//! Offline drop-in subset of the `rand` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the small slice of `rand`'s API it actually uses: a seedable
//! [`rngs::StdRng`], the [`Rng`]/[`SeedableRng`] traits, and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256** seeded via
//! SplitMix64 — statistically solid and, crucially for this workspace,
//! **deterministic**: the stream is a pure function of the `u64` seed on
//! every platform. Stream values differ from upstream `rand`'s ChaCha-based
//! `StdRng`, which upstream documents as a non-guarantee anyway.

#![forbid(unsafe_code)]

/// Uniform sampling support for [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the generator's raw 64-bit stream.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws a uniform value from the range. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform `u64` in `[0, bound)` via Lemire's widening multiply (unbiased
/// enough for simulation purposes and, above all, deterministic).
fn below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[allow(
                clippy::cast_possible_truncation,
                reason = "the draw is below `end - start`, so it fits `$t`; an `expect` would \
                          go unfulfilled in the u64 expansion"
            )]
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + below(rng, span) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample_standard(rng);
        let v = self.start + u * (self.end - self.start);
        // Guard against rounding up onto the exclusive bound.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Raw 64-bit generator interface (object-safe core of [`Rng`]).
pub trait RngCore {
    /// The next 64 raw bits of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of an inferable type from the uniform distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws uniformly from a half-open range.
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_range(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        f64::sample_standard(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** seeded via SplitMix64. Fills the role of
    /// `rand::rngs::StdRng`: a statistically strong, seedable generator
    /// whose exact stream is unspecified by the upstream API contract.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding routine.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let u = r.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted");
    }
}
