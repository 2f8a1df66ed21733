//! Offline stand-in for `rand_chacha` 0.3: `ChaCha8Rng` (8 rounds, 64-bit
//! block counter, zero stream id), producing the keystream words in order —
//! the same sequence the real crate's 4-block buffer hands out.

use rand::{RngCore, SeedableRng};

/// ChaCha with 8 rounds as a random-number generator.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
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

impl ChaCha8Rng {
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
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, c) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ChaCha8 keystream, all-zero key and nonce, block 0 (the first words of
    /// the published test vector `3e00ef2f895f40d6 7f5bb8e81f09a5a1 …`).
    #[test]
    fn zero_key_keystream_matches_the_published_vector() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let mut bytes = Vec::new();
        for _ in 0..4 {
            bytes.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "3e00ef2f895f40d67f5bb8e81f09a5a1");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..40).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..40).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..40).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
