//! Percentiles, medians and run-to-run spread.

/// Nearest-rank index of percentile `p` (0 < p ≤ 1) in `n` sorted samples.
pub fn percentile_index(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 1.0, "percentile of nothing");
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A percentile is reported only when at least ten samples lie beyond it;
/// with fewer, one slow operation more or less moves it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - percentile_index(n, p) >= 10
}

/// Percentile `p` of sorted samples, lowered to the highest percentile the
/// sample count supports.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    let mut idx = percentile_index(sorted.len(), p);
    if !percentile_supported(sorted.len(), p) {
        idx = idx.min(sorted.len().saturating_sub(11));
    }
    sorted[idx]
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `p` of latency samples that several threads took, each
/// in time order: the run is cut into `windows` equal stretches, the
/// percentile is taken over all threads' samples of each stretch, and the
/// median stretch is reported. A burst of host noise then spoils one
/// window, not the metric. 0 when there are no samples.
pub fn windowed_percentile(per_thread: &[&[u32]], p: f64, windows: usize) -> f64 {
    let mut each = Vec::with_capacity(windows);
    for w in 0..windows {
        let mut window: Vec<u32> = Vec::new();
        for samples in per_thread {
            let per = samples.len().div_ceil(windows).max(1);
            let lo = (w * per).min(samples.len());
            let hi = ((w + 1) * per).min(samples.len());
            window.extend_from_slice(&samples[lo..hi]);
        }
        if !window.is_empty() {
            window.sort_unstable();
            each.push(f64::from(percentile(&window, p)));
        }
    }
    if each.is_empty() {
        0.0
    } else {
        median_f64(&each)
    }
}

/// Throughput lost when something is switched on, in percent, from counts
/// taken in alternating windows: `on[i]` and `off[i]` are neighbours in
/// time, so each pair's ratio is free of the run's slow drift, and the
/// median pair is free of its bursts. 0 without a usable pair.
pub fn paired_loss_pct(on: &[f64], off: &[f64]) -> f64 {
    let ratios: Vec<f64> = on
        .iter()
        .zip(off)
        .filter(|(_, &off)| off > 0.0)
        .map(|(on, off)| on / off)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        (1.0 - median_f64(&ratios)) * 100.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread computed here is the spread the
/// acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let med = median_f64(values);
    if med == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indices() {
        assert_eq!(percentile_index(100, 0.5), 49);
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(100, 1.0), 99);
        assert_eq!(percentile_index(1, 0.5), 0);
        assert_eq!(percentile_index(1000, 0.999), 998);
        assert_eq!(percentile_index(3, 0.5), 1);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 sits at index 989: exactly ten samples beyond it.
        assert_eq!(percentile_index(1000, 0.99), 989);
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(10_001, 0.999));
        assert!(!percentile_supported(5_000, 0.999));
        assert!(!percentile_supported(0, 0.5));
    }

    #[test]
    fn unsupported_percentile_is_lowered() {
        let sorted: Vec<u32> = (0..100).collect();
        // p99 of 100 samples has one sample beyond it; lowered to index 89.
        assert_eq!(percentile(&sorted, 0.99), 89);
        assert_eq!(percentile(&sorted, 0.5), 49);
        let few: Vec<u32> = (0..5).collect();
        assert_eq!(percentile(&few, 0.99), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut samples = vec![10u32; 5000];
        for s in &mut samples[1000..2000] {
            *s = 1_000_000;
        }
        assert_eq!(windowed_percentile(&[&samples], 0.99, 5), 10.0);
        // Two threads: each window takes the matching stretch of both.
        let quiet = vec![10u32; 5000];
        assert_eq!(windowed_percentile(&[&samples, &quiet], 0.5, 5), 10.0);
        assert_eq!(windowed_percentile(&[], 0.5, 5), 0.0);
    }

    #[test]
    fn paired_loss_cancels_drift_and_bursts() {
        // Throughput halves over the run and one pair is hit by a burst;
        // every other pair loses 10 %.
        let off = [1000.0, 800.0, 600.0, 500.0, 0.0];
        let on = [900.0, 720.0, 60.0, 450.0, 7.0];
        assert!((paired_loss_pct(&on, &off) - 10.0).abs() < 1e-9);
        assert_eq!(paired_loss_pct(&[], &[]), 0.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
