//! The benchmark's own seeded generator: every input (scripts, arrival
//! times, file contents) comes from `--seed` through this, never from the
//! program's RNG plumbing, so the program receives only generated inputs.

/// SplitMix64: tiny, fast, and statistically fine for workload scripts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label`, so adding a consumer never shifts
    /// the numbers another consumer sees.
    pub fn derive(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson inter-arrival
    /// times).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_are_independent() {
        let stream = |seed| {
            let mut r = Rng::derive(seed, "x");
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(
            Rng::derive(7, "sat").next_u64(),
            Rng::derive(7, "open").next_u64()
        );
        assert_ne!(
            Rng::derive(7, "sat").next_u64(),
            Rng::derive(8, "sat").next_u64()
        );
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = Rng::derive(1, "exp");
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(25.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 25.0).abs() < 0.5, "mean {mean}");
    }
}
