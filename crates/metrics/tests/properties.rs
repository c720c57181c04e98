//! Property tests for the counted latency multiset: its statistics must
//! equal the flat-sample statistics of the multiset it stands for, bit
//! for bit.

use hilos_metrics::{LatencyHistogram, LatencyStats};
use proptest::prelude::*;

/// Every field as raw bits, so `-0.0` vs `0.0` and one-ulp drifts show.
fn bits(s: &LatencyStats) -> [u64; 6] {
    [
        s.count as u64,
        s.mean.to_bits(),
        s.p50.to_bits(),
        s.p95.to_bits(),
        s.p99.to_bits(),
        s.max.to_bits(),
    ]
}

/// The nearest-rank rule written out plainly on a sorted copy — an
/// independent reference for [`LatencyStats::from_samples`].
fn reference(samples: &[f64]) -> [u64; 6] {
    if samples.is_empty() {
        return [0; 6];
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |p: f64| sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1].to_bits();
    [
        n as u64,
        (sorted.iter().sum::<f64>() / n as f64).to_bits(),
        rank(0.50),
        rank(0.95),
        rank(0.99),
        sorted[n - 1].to_bits(),
    ]
}

/// A small value palette that always includes both signed zeros, so
/// counted and plain values tie often.
fn palette_value(palette: &[f64], i: usize) -> f64 {
    match i % (palette.len() + 2) {
        0 => 0.0,
        1 => -0.0,
        j => palette[j - 2],
    }
}

/// Expands counted pairs and plain samples into one flat sample list.
fn expand(counted: &[(f64, u64)], sampled: &[f64]) -> Vec<f64> {
    counted
        .iter()
        .flat_map(|&(x, k)| std::iter::repeat_n(x, k as usize))
        .chain(sampled.iter().copied())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Heavy repeats, counted values tied with plain ones, signed zeros,
    /// and (when the vectors come out empty or hold one element) the
    /// empty and single-sample cases.
    #[test]
    fn counted_stats_equal_flat_stats_bit_for_bit(
        palette in prop::collection::vec(-1.0f64..10.0, 1..6),
        pairs in prop::collection::vec((0usize..8, 1u64..2000), 0..10),
        plain in prop::collection::vec((any::<bool>(), 0usize..8, 0.0f64..10.0), 0..40),
    ) {
        let counted: Vec<(f64, u64)> =
            pairs.iter().map(|&(i, k)| (palette_value(&palette, i), k)).collect();
        let sampled: Vec<f64> = plain
            .iter()
            .map(|&(tie, i, x)| if tie { palette_value(&palette, i) } else { x })
            .collect();
        let flat = expand(&counted, &sampled);
        let h = LatencyHistogram::new(counted, sampled);
        prop_assert_eq!(h.len(), flat.len() as u64);
        prop_assert_eq!(h.is_empty(), flat.is_empty());
        let from_samples = LatencyStats::from_samples(&flat);
        prop_assert_eq!(bits(&h.stats()), bits(&from_samples));
        prop_assert_eq!(bits(&from_samples), reference(&flat));
        let collected: LatencyStats = flat.iter().copied().collect();
        prop_assert_eq!(bits(&collected), bits(&from_samples));
    }

    /// Pooling several multisets equals one multiset over every sample.
    #[test]
    fn pooled_stats_equal_flat_stats_bit_for_bit(
        palette in prop::collection::vec(0.0f64..10.0, 1..6),
        parts in prop::collection::vec(
            (prop::collection::vec((0usize..8, 1u64..500), 0..6),
             prop::collection::vec(0.0f64..10.0, 0..8)),
            0..5,
        ),
    ) {
        let mut flat = Vec::new();
        let hists: Vec<LatencyHistogram> = parts
            .iter()
            .map(|(pairs, sampled)| {
                let counted: Vec<(f64, u64)> =
                    pairs.iter().map(|&(i, k)| (palette_value(&palette, i), k)).collect();
                flat.extend(expand(&counted, sampled));
                LatencyHistogram::new(counted, sampled.clone())
            })
            .collect();
        let pooled = LatencyHistogram::pooled(&hists);
        prop_assert_eq!(pooled.len(), flat.len() as u64);
        prop_assert_eq!(bits(&pooled.stats()), reference(&flat));
        let distinct = pooled.counted().windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_lt());
        prop_assert!(distinct, "counted values must be distinct and ascending");
    }
}

#[test]
fn signed_zeros_stay_distinct_and_ordered() {
    // total_cmp puts -0.0 below 0.0; the counted part keys by bits.
    let h = LatencyHistogram::new([(0.0, 2), (-0.0, 3), (0.0, 1)], vec![-0.0]);
    assert_eq!(h.counted().len(), 2);
    assert_eq!(h.counted()[0].0.to_bits(), (-0.0f64).to_bits());
    assert_eq!(h.counted()[1].1, 3);
    let flat = [0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0];
    assert_eq!(bits(&h.stats()), reference(&flat));
    // A multiset of negative zeros alone keeps its sign through the mean.
    let neg = LatencyHistogram::new([(-0.0, 4)], vec![]);
    assert_eq!(bits(&neg.stats()), reference(&[-0.0; 4]));
}

#[test]
fn empty_and_single_sample() {
    let empty = LatencyHistogram::default();
    assert!(empty.is_empty());
    assert_eq!(empty.stats(), LatencyStats::from_samples(&[]));
    assert_eq!(LatencyHistogram::new([(0.5, 0)], vec![]), empty, "zero counts are dropped");
    let one_counted = LatencyHistogram::new([(0.25, 1)], vec![]);
    let one_sampled = LatencyHistogram::new([], vec![0.25]);
    assert_eq!(one_counted.stats(), LatencyStats::from_samples(&[0.25]));
    assert_eq!(one_sampled.stats(), one_counted.stats());
    assert_eq!(one_sampled.len(), 1);
}
