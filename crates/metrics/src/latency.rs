//! Request-level latency statistics for the serving layer.
//!
//! Continuous batching is judged on tail latency, not just throughput:
//! time-to-first-token (TTFT), inter-token latency (ITL) and end-to-end
//! completion, summarized at p50/p95/p99, plus *goodput* — the throughput
//! counting only requests that met a deadline (the way the request-level
//! serving literature compares schedulers).

use std::fmt;

/// Order statistics over a set of latency samples (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// Computes the statistics from raw samples. Empty input yields all
    /// zeros. Percentiles use the nearest-rank method on a sorted copy,
    /// so the result is deterministic in the multiset of samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        Self::from_vec(samples.to_vec())
    }

    /// [`LatencyStats::from_samples`] on an owned vector, sorted in place.
    fn from_vec(mut samples: Vec<f64>) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Self::from_sorted_runs(samples.iter().map(|&x| (x, 1)), samples.len() as u64)
    }

    /// The one statistics rule every constructor shares. `runs` yields
    /// `(value, multiplicity)` pairs in ascending [`f64::total_cmp`]
    /// order and `n` is the multiplicity total. The mean adds every
    /// value `multiplicity` times in that order (`x * k` is not
    /// bit-equal to `k` additions), so counted and flat inputs holding
    /// the same multiset agree bit for bit.
    fn from_sorted_runs<I>(runs: I, n: u64) -> Self
    where
        I: Iterator<Item = (f64, u64)> + Clone,
    {
        if n == 0 {
            return LatencyStats { count: 0, mean: 0.0, p50: 0.0, p95: 0.0, p99: 0.0, max: 0.0 };
        }
        let sum = runs.clone().flat_map(|(x, k)| std::iter::repeat_n(x, k as usize)).sum::<f64>();
        let rank = |p: f64| ((p * n as f64).ceil() as u64).clamp(1, n) - 1;
        let ranks = [rank(0.50), rank(0.95), rank(0.99)];
        let mut at = [0.0; 3];
        let (mut seen, mut max) = (0, 0.0);
        for (x, k) in runs {
            for (slot, r) in at.iter_mut().zip(ranks) {
                if (seen..seen + k).contains(&r) {
                    *slot = x;
                }
            }
            seen += k;
            max = x;
        }
        let [p50, p95, p99] = at;
        LatencyStats { count: n as usize, mean: sum / n as f64, p50, p95, p99, max }
    }
}

/// Collects any sample iterator straight into its order statistics — the
/// aggregation entry point for layers that pool samples from several
/// sources (e.g. a cluster report pooling per-deployment outcomes)
/// without materializing an intermediate slice at every call site.
impl FromIterator<f64> for LatencyStats {
    fn from_iter<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        LatencyStats::from_vec(samples.into_iter().collect())
    }
}

/// An exact multiset of latency samples stored in two parts: values that
/// recur are kept once with their count, one-off values as plain samples.
/// A serving run's step latencies are mostly memoized operating points
/// (thousands of distinct values over millions of steps), so counting
/// them keeps the run's memory flat in its step count. Nothing is
/// binned: [`LatencyHistogram::stats`] equals
/// [`LatencyStats::from_samples`] on the expanded multiset bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Distinct values with their counts (each ≥ 1), ascending by
    /// [`f64::total_cmp`].
    counted: Vec<(f64, u64)>,
    /// One entry per occurrence, in insertion order.
    sampled: Vec<f64>,
}

impl LatencyHistogram {
    /// Builds the multiset from `(value, count)` pairs and plain samples.
    /// Pairs may repeat a value (their counts add up, keyed by bit
    /// pattern); zero counts are dropped. Samples keep their order.
    pub fn new(counted: impl IntoIterator<Item = (f64, u64)>, sampled: Vec<f64>) -> Self {
        let mut counted: Vec<(f64, u64)> = counted.into_iter().filter(|&(_, k)| k > 0).collect();
        counted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        counted.dedup_by(|next, kept| {
            let same = next.0.to_bits() == kept.0.to_bits();
            if same {
                kept.1 += next.1;
            }
            same
        });
        LatencyHistogram { counted, sampled }
    }

    /// The union of several multisets — how a cluster pools its
    /// deployments' step latencies.
    pub fn pooled<'a>(parts: impl IntoIterator<Item = &'a LatencyHistogram>) -> Self {
        let (mut counted, mut sampled) = (Vec::new(), Vec::new());
        for p in parts {
            counted.extend_from_slice(&p.counted);
            sampled.extend_from_slice(&p.sampled);
        }
        LatencyHistogram::new(counted, sampled)
    }

    /// The counted part: distinct values and their counts, ascending.
    pub fn counted(&self) -> &[(f64, u64)] {
        &self.counted
    }

    /// The plain samples, in insertion order.
    pub fn sampled(&self) -> &[f64] {
        &self.sampled
    }

    /// Number of samples in the multiset (counted plus plain).
    pub fn len(&self) -> u64 {
        self.counted.iter().map(|&(_, k)| k).sum::<u64>() + self.sampled.len() as u64
    }

    /// Whether the multiset holds no sample.
    pub fn is_empty(&self) -> bool {
        self.counted.is_empty() && self.sampled.is_empty()
    }

    /// Order statistics of the multiset. The counted part is read in
    /// place and merged on the fly with a sorted copy of the plain
    /// samples; counted values are never expanded.
    pub fn stats(&self) -> LatencyStats {
        let mut sampled = self.sampled.clone();
        sampled.sort_unstable_by(f64::total_cmp);
        LatencyStats::from_sorted_runs(
            SortedRuns { counted: &self.counted, sampled: &sampled },
            self.len(),
        )
    }
}

/// Ascending `(value, multiplicity)` merge of a histogram's two sorted
/// parts; a plain sample has multiplicity 1.
#[derive(Clone)]
struct SortedRuns<'a> {
    counted: &'a [(f64, u64)],
    sampled: &'a [f64],
}

impl Iterator for SortedRuns<'_> {
    type Item = (f64, u64);

    fn next(&mut self) -> Option<(f64, u64)> {
        match (self.counted.split_first(), self.sampled.split_first()) {
            (Some((&run, rest)), Some((&x, _))) if run.0.total_cmp(&x).is_le() => {
                self.counted = rest;
                Some(run)
            }
            (_, Some((&x, rest))) => {
                self.sampled = rest;
                Some((x, 1))
            }
            (Some((&run, rest)), None) => {
                self.counted = rest;
                Some(run)
            }
            (None, None) => None,
        }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {} / p95 {} / p99 {} (mean {}, max {}, n={})",
            fmt_seconds(self.p50),
            fmt_seconds(self.p95),
            fmt_seconds(self.p99),
            fmt_seconds(self.mean),
            fmt_seconds(self.max),
            self.count
        )
    }
}

/// Formats a duration in seconds with an adaptive unit.
pub fn fmt_seconds(s: f64) -> String {
    let abs = s.abs();
    if abs >= 60.0 {
        format!("{:.1}min", s / 60.0)
    } else if abs >= 1.0 {
        format!("{s:.2}s")
    } else if abs >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// One completed request's contribution to a per-class breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSample {
    /// Class label (e.g. `"Short"`); samples sharing a label aggregate
    /// into one [`ClassReport`].
    pub label: &'static str,
    /// Time to first token, seconds.
    pub ttft_s: f64,
    /// End-to-end latency, seconds.
    pub e2e_s: f64,
    /// Whether the request met its own SLO deadline.
    pub met_slo: bool,
    /// Tokens the request generated.
    pub tokens: u64,
}

/// Aggregated latency/goodput view of one request class — how schedulers
/// are compared in the serving literature: not just global tails, but who
/// pays them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class label.
    pub label: &'static str,
    /// Completed requests of this class.
    pub count: usize,
    /// TTFT order statistics.
    pub ttft: LatencyStats,
    /// End-to-end order statistics.
    pub e2e: LatencyStats,
    /// Requests that met their SLO deadline.
    pub slo_met: usize,
    /// Tokens generated by this class.
    pub tokens: u64,
    /// Tokens generated by SLO-meeting requests of this class.
    pub slo_met_tokens: u64,
}

impl ClassReport {
    /// Fraction of the class's requests that met their SLO (zero for an
    /// empty class).
    pub fn slo_hit_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.slo_met as f64 / self.count as f64
        }
    }

    /// Token goodput of the class over the run (zero for an empty run).
    pub fn token_goodput(&self, elapsed_s: f64) -> f64 {
        goodput([(true, self.slo_met_tokens as f64)], elapsed_s)
    }
}

/// Groups samples by label (first-seen order) and aggregates each group
/// into a [`ClassReport`]. Deterministic in the sample order.
pub fn class_breakdown(samples: impl IntoIterator<Item = ClassSample>) -> Vec<ClassReport> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: Vec<Vec<ClassSample>> = Vec::new();
    for s in samples {
        match order.iter().position(|&l| l == s.label) {
            Some(i) => groups[i].push(s),
            None => {
                order.push(s.label);
                groups.push(vec![s]);
            }
        }
    }
    order
        .into_iter()
        .zip(groups)
        .map(|(label, g)| ClassReport {
            label,
            count: g.len(),
            ttft: g.iter().map(|s| s.ttft_s).collect(),
            e2e: g.iter().map(|s| s.e2e_s).collect(),
            slo_met: g.iter().filter(|s| s.met_slo).count(),
            tokens: g.iter().map(|s| s.tokens).sum(),
            slo_met_tokens: g.iter().filter(|s| s.met_slo).map(|s| s.tokens).sum(),
        })
        .collect()
}

/// Goodput: units credited only to requests that met the deadline, over
/// the elapsed wall-clock. `met` holds each completed request's
/// `(met_deadline, units)` — units being 1.0 for request-goodput or the
/// generated token count for token-goodput.
pub fn goodput(met: impl IntoIterator<Item = (bool, f64)>, elapsed_s: f64) -> f64 {
    if elapsed_s <= 0.0 {
        return 0.0;
    }
    met.into_iter().filter(|(ok, _)| *ok).map(|(_, u)| u).sum::<f64>() / elapsed_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_samples() {
        let empty = LatencyStats::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0.0);
        let one = LatencyStats::from_samples(&[0.25]);
        assert_eq!((one.p50, one.p95, one.p99, one.max), (0.25, 0.25, 0.25, 0.25));
    }

    #[test]
    fn order_independent() {
        let a = LatencyStats::from_samples(&[3.0, 1.0, 2.0]);
        let b = LatencyStats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_iter_pools_multiple_sources() {
        // Pooling two sources through the iterator impl matches one flat
        // slice — what cluster-level aggregation relies on.
        let (dep0, dep1) = (vec![1.0, 5.0, 3.0], vec![2.0, 4.0]);
        let pooled: LatencyStats = dep0.iter().chain(dep1.iter()).copied().collect();
        assert_eq!(pooled, LatencyStats::from_samples(&[1.0, 5.0, 3.0, 2.0, 4.0]));
        assert_eq!(pooled.count, 5);
        assert_eq!(std::iter::empty::<f64>().collect::<LatencyStats>().count, 0);
    }

    #[test]
    fn goodput_counts_only_met_deadlines() {
        let g = goodput([(true, 100.0), (false, 50.0), (true, 20.0)], 10.0);
        assert_eq!(g, 12.0);
        assert_eq!(goodput([(true, 1.0)], 0.0), 0.0);
    }

    #[test]
    fn class_breakdown_groups_and_aggregates() {
        let mk = |label, ttft_s, e2e_s, met_slo, tokens| ClassSample {
            label,
            ttft_s,
            e2e_s,
            met_slo,
            tokens,
        };
        let reports = class_breakdown([
            mk("Short", 1.0, 5.0, true, 100),
            mk("Long", 8.0, 200.0, false, 350),
            mk("Short", 3.0, 9.0, false, 110),
            mk("Short", 2.0, 7.0, true, 90),
        ]);
        assert_eq!(reports.len(), 2);
        let short = &reports[0];
        assert_eq!((short.label, short.count, short.slo_met), ("Short", 3, 2));
        assert_eq!(short.tokens, 300);
        assert_eq!(short.slo_met_tokens, 190);
        assert_eq!(short.ttft.max, 3.0);
        assert!((short.slo_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(short.token_goodput(10.0), 19.0);
        assert_eq!(short.token_goodput(0.0), 0.0, "empty run guarded");
        let long = &reports[1];
        assert_eq!((long.count, long.slo_met, long.slo_met_tokens), (1, 0, 0));
        assert_eq!(long.slo_hit_rate(), 0.0);
        assert!(class_breakdown([]).is_empty());
    }

    #[test]
    fn second_formatting() {
        assert_eq!(fmt_seconds(90.0), "1.5min");
        assert_eq!(fmt_seconds(2.5), "2.50s");
        assert_eq!(fmt_seconds(0.0042), "4.2ms");
        assert_eq!(fmt_seconds(3.3e-5), "33.0us");
    }
}
