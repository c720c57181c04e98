//! Small numeric helpers: the seeded input generator's RNG, FNV
//! fingerprints, medians and batch-weighted percentiles.

/// SplitMix64: the benchmark's own seeded generator. The library never
/// sees it — only the inputs it draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds an f64 in bit for bit.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Median of the samples (mean of the middle pair for an even count);
/// `0.0` for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (the rule `hilos_metrics::LatencyStats` uses)
/// of `(value, weight)` samples, where a weight counts that many equal
/// samples — a job of batch `b` is `b` sequences with one latency.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> f64 {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (v, w) in &sorted {
        seen += w;
        if seen >= rank {
            return *v;
        }
    }
    sorted[sorted.len() - 1].0
}

/// Ratio that reads `0.0` instead of NaN when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_percentile_counts_weights_as_repeats() {
        let s = [(3.0, 1), (1.0, 98), (2.0, 1)];
        assert_eq!(weighted_percentile(&s, 0.5), 1.0);
        assert_eq!(weighted_percentile(&s, 0.99), 2.0);
        assert_eq!(weighted_percentile(&s, 1.0), 3.0);
        assert_eq!(weighted_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
