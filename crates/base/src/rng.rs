//! The workspace's seeded generators. Every committed number was produced
//! by these streams, so they are definitions, pinned by the tests below:
//! [`ChaCha8`] (the application's initial conditions) follows the
//! published algorithms of rand_chacha 0.3 / rand_core 0.6 / rand 0.8.5,
//! [`splitmix64`] is Steele/Lea/Flood's mixer with the reference constants.

/// One step of SplitMix64 as a stateless mixer: hash `x` to 64 well-spread
/// bits (seed derivation, bucket hashing, tie breaks). `#[inline]` keeps it
/// inlinable in the crates whose private copies it replaced.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 as a generator: a Weyl sequence through [`splitmix64`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform draw in `[0, 1)` (53-bit mantissa).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// ChaCha with 8 rounds as a random-number generator (64-bit block
/// counter, zero stream id), handing out the keystream words in order.
#[derive(Clone, Debug)]
pub struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Next unread word of `block` (16 = exhausted).
    index: usize,
}

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8 {
    /// The generator keyed with `seed` (little-endian words).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, c) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha8 {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }

    /// Expands `state` into a key with PCG32, exactly like rand_core 0.6's
    /// `SeedableRng::seed_from_u64`.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }

    fn refill(&mut self) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = self.counter as u32;
        init[13] = (self.counter >> 32) as u32;
        // words 14, 15: stream id, zero
        let mut s = init;
        for _ in 0..4 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (o, i) in s.iter_mut().zip(init) {
            *o = o.wrapping_add(i);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    pub fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform draw from `[low, high)`: rand 0.8.5's
    /// `gen_range(low..high)` (`UniformFloat::<f64>::sample_single`).
    pub fn range_f64(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // 52 random mantissa bits under exponent 0: a value in [1, 2)
            let value1_2 = f64::from_bits((self.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
            // rounding pushed the result onto `high`: shrink the scale by one ulp
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ChaCha8 keystream, all-zero key and nonce, block 0 (the first words of
    /// the published test vector `3e00ef2f895f40d6 7f5bb8e81f09a5a1 …`).
    #[test]
    fn zero_key_keystream_matches_the_published_vector() {
        let mut rng = ChaCha8::from_seed([0; 32]);
        let mut bytes = Vec::new();
        for _ in 0..4 {
            bytes.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "3e00ef2f895f40d67f5bb8e81f09a5a1");
    }

    // The constants below were printed by the `rand`/`rand_chacha` stand-ins
    // (`crates/benchmark/offline`) every committed result was produced with.

    #[test]
    fn seed_42_words_are_the_stand_ins() {
        let mut rng = ChaCha8::seed_from_u64(42);
        let words: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xae90bfb5395d5ba1,
                0xf3453fc625799188,
                0x6d71b708c5b6538c,
                0xa09ab2f958166752,
                0x49e149d8bcb642b0,
                0x2663b45ba45d829e,
                0x4edbbf0150871314,
                0xcdca9b0d2a122884,
                0xc5708f62a0ce0c00,
                0x3d13ec83d34b3198,
                0x81c206f789560628,
                0xe6dc929b60e85ba3,
                0xf4fd507395c7402d,
                0x97cd718ec598034d,
                0xba9289a0e52717aa,
                0x2ddbe23b4ee7b7a4,
            ]
        );
        assert_ne!(ChaCha8::seed_from_u64(43).next_u64(), words[0]);
    }

    #[test]
    fn range_draws_across_a_block_boundary_are_the_stand_ins() {
        // a block is eight u64: draws 6..=13 straddle the first refill
        let mut rng = ChaCha8::seed_from_u64(42);
        for _ in 0..5 {
            rng.next_u64();
        }
        let draws: Vec<u64> = (0..8)
            .map(|_| rng.range_f64(-3.5, 12.25).to_bits())
            .collect();
        assert_eq!(
            draws,
            [
                0xbff235da75ca33f6,
                0x3ff5a050054b44f4,
                0x4022526e141ead3b,
                0x40214b59a4a2c959,
                0x3fd07e73470ff810,
                0x4011eebfb6eacc2a,
                0x402568240a1e6c96,
                0x4027252b6638ee04,
            ]
        );
        // and from an odd word offset, where a u64 spans two blocks
        let mut rng = ChaCha8::seed_from_u64(42);
        rng.next_u32();
        let draws: Vec<u64> = (0..8).map(|_| rng.range_f64(0.0, 1.0).to_bits()).collect();
        assert_eq!(
            draws,
            [
                0x3fc2bcc8c4574858,
                0x3fe8b6ca719e68a6,
                0x3fd60599d49b5c6c,
                0x3fe796c856141356,
                0x3fe48bb053c93c28,
                0x3fd421c4c50998ec,
                0x3fc5091442276dd8,
                0x3fe419c18019b952,
            ]
        );
    }

    #[test]
    fn a_draw_rounded_onto_high_is_retried_with_a_smaller_scale() {
        // a range one ulp wide: every draw whose fraction rounds up lands
        // on `high` and costs further words
        let mut rng = ChaCha8::seed_from_u64(42);
        for _ in 0..8 {
            assert_eq!(rng.range_f64(1.0, 1.0 + f64::EPSILON), 1.0);
        }
        assert_eq!(rng.next_u64(), 0x138e5c6044e2c30d);
        let mut plain = ChaCha8::seed_from_u64(42);
        let consumed = (1..).find(|_| plain.next_u64() == 0x138e5c6044e2c30d);
        assert!(consumed > Some(9), "no draw was retried: {consumed:?}");
    }

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // first outputs of the reference C implementation seeded with 0
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(g.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }
}
