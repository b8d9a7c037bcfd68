//! The benchmark's only source of randomness: splitmix64 seeded from
//! `--seed`. No clock, no OS entropy — the same seed gives the same
//! request files byte for byte.

/// splitmix64 (Steele, Lea & Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// generator stage never shifts another's.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x6b6e_2d62_656e_6368; // "kn-bench"
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let mut s = Self(h);
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` this crate uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` has weight `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn share(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_forks_are_independent() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(
            SplitMix64::fork(7, "pool").next_u64(),
            SplitMix64::fork(7, "stream").next_u64()
        );
        assert_ne!(
            SplitMix64::fork(7, "pool").next_u64(),
            SplitMix64::fork(8, "pool").next_u64()
        );
    }

    #[test]
    fn zipf_draw_is_deterministic_and_rank_one_matches_theory() {
        let z = Zipf::new(64);
        let theory = z.share(0);
        // H_64 = 4.7439; rank 1 carries 1/H_64 of the mass.
        assert!((theory - 1.0 / 4.743_890_9).abs() < 1e-6, "{theory}");
        let draws = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..1_000_000).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = draws(3);
        assert_eq!(a, draws(3), "same seed, same draws");
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!(
            (top - theory).abs() < 0.01 * theory,
            "rank-1 share {top} vs theory {theory}"
        );
        assert!(a.iter().all(|&r| r < 64));
        assert!(a.contains(&63), "the tail is reachable");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..100).collect();
        SplitMix64::new(1).shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }
}
