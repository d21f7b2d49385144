//! Deterministic pseudo-randomness shared across the workspace.
//!
//! The simulator's and the store's fault injection and the DSE sampler
//! need the same properties: a tiny, seedable generator whose streams are
//! reproducible run-to-run and cheaply decorrelated per domain via a salt.
//! splitmix64 (Steele et al., "Fast splittable pseudorandom number
//! generators") fits: one 64-bit word of state, three multiplies per draw,
//! and full-period output.

/// splitmix64 — tiny, seedable, deterministic.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`. The same seed always reproduces the
    /// same stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator whose stream is decorrelated from every other salt's
    /// while staying a pure function of `(seed, salt)`.
    pub fn salted(seed: u64, salt: u64) -> SplitMix64 {
        SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n == 0` is treated as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// One Bernoulli trial with probability `ppm` parts per million.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        self.below(1_000_000) < ppm as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut uniq = xs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len());
    }

    #[test]
    fn salts_decorrelate() {
        let draw = |salt: u64| -> Vec<u64> {
            let mut r = SplitMix64::salted(7, salt);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn chance_ppm_extremes() {
        let mut r = SplitMix64::new(3);
        assert!((0..64).all(|_| !r.chance_ppm(0)));
        assert!((0..64).all(|_| r.chance_ppm(1_000_000)));
    }
}
