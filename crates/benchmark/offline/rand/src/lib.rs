//! Offline stand-in for `rand` 0.8 — only what the workspace calls:
//! `SeedableRng::seed_from_u64` and `Rng::gen_range(f64..f64)`. Both follow
//! the published algorithms of rand_core 0.6 / rand 0.8.5 so that a seed
//! draws the same numbers as with the real crates (not cross-checked here:
//! the container has no registry access).

use std::ops::Range;

/// Source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators; `seed_from_u64` expands the state with PCG32 exactly
/// like rand_core 0.6.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl SampleUniform for f64 {
    /// rand 0.8.5 `UniformFloat::<f64>::sample_single`.
    fn sample_single<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // 52 random mantissa bits under exponent 0: a value in [1, 2)
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
            // rounding pushed the result onto `high`: shrink the scale by one ulp
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

/// User-facing sampling methods.
pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_single(range.start, range.end, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
