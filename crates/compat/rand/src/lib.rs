//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this repository has no crates.io access, so
//! the workspace vendors the *API subset it actually uses*: a seedable
//! small PRNG ([`rngs::SmallRng`], xoshiro256++), [`SeedableRng::seed_from_u64`],
//! [`Rng::gen`] and [`Rng::gen_range`] over primitive ranges. Streams are
//! deterministic for a given seed (the property the workload generators
//! rely on) but are **not** bit-compatible with upstream `rand` — every
//! reference check in `bvl-workloads` is computed from the same generated
//! data, so only determinism matters.

/// Splits a 64-bit seed into xoshiro state (SplitMix64, the standard
/// xoshiro seeding recommendation).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A type that can be sampled uniformly from the full value domain
/// (stand-in for `Standard: Distribution<T>`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
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

/// A half-open range a value can be drawn from (stand-in for
/// `SampleRange<T>`).
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Standard>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of `T` from its full domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from seeds (subset of upstream `SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small fast PRNG (xoshiro256++, the same family upstream
    /// `SmallRng` uses on 64-bit targets).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Upstream's default RNG alias, kept for API compatibility.
    pub type StdRng = SmallRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_pub(), b.next_u64_pub());
        }
    }

    impl SmallRng {
        fn next_u64_pub(&mut self) -> u64 {
            use super::RngCore;
            self.next_u64()
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u32 = r.gen_range(10..20u32);
            assert!((10..20).contains(&x));
            let f: f32 = r.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let b: u8 = r.gen_range(0..4u8);
            assert!(b < 4);
        }
    }

    #[test]
    fn gen_unit_interval() {
        let mut r = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
