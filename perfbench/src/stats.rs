//! Order statistics used by every report: nearest-rank percentiles, the
//! median, and the "highest percentile with at least ten samples beyond it"
//! rule that decides which tail a sample set can honestly support.

/// Percentile ladder considered when picking the reportable tail.
const LADDER: [f64; 6] = [0.50, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Zero-based nearest-rank index of percentile `p` (0..=1) among `n` sorted
/// samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (p * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Sorts a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Completions per second over a window of `window` seconds, given each
/// completion's time since the window opened: the median of the per-second
/// counts when the window holds at least three whole seconds (robust to a
/// stall in one of them), else the plain rate.
pub fn window_rate(times: &[f64], window: f64) -> f64 {
    let buckets = window.floor() as usize;
    if buckets < 3 {
        let span = times.iter().copied().fold(0.0, f64::max).max(1e-9);
        return times.len() as f64 / span;
    }
    let mut counts = vec![0.0; buckets];
    for &t in times {
        if t >= 0.0 && (t as usize) < buckets {
            counts[t as usize] += 1.0;
        }
    }
    median(&counts)
}

/// Percentile `p` of `values`, taken within each whole second of the
/// window (by the matching completion time in `times`) and reported as the
/// median across those seconds, so one disturbed second cannot move it.
/// Seconds with fewer than `10 / (1 - p)` samples do not support the
/// percentile; with fewer than three supporting seconds the percentile is
/// taken over all samples instead.
pub fn window_percentile(times: &[f64], values: &[f64], window: f64, p: f64) -> f64 {
    let buckets = window.floor() as usize;
    let need = (TAIL_SAMPLES as f64 / (1.0 - p)).ceil() as usize;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); buckets];
    for (&t, &v) in times.iter().zip(values) {
        if t >= 0.0 && (t as usize) < buckets {
            per[t as usize].push(v);
        }
    }
    let pcts: Vec<f64> = per
        .iter()
        .filter(|b| b.len() >= need)
        .map(|b| percentile(&sorted(b), p))
        .collect();
    if pcts.len() >= 3 {
        median(&pcts)
    } else {
        percentile(&sorted(values), p)
    }
}

/// Percentile `p` within each consecutive group of at least `group`
/// samples (more where `p` needs them to keep ten samples beyond it),
/// reported as the median across groups (all samples when fewer than
/// three groups).
pub fn grouped_percentile(values: &[f64], group: usize, p: f64) -> f64 {
    let need = (TAIL_SAMPLES as f64 / (1.0 - p)).ceil() as usize;
    let groups: Vec<f64> = values
        .chunks_exact(group.max(need))
        .map(|c| percentile(&sorted(c), p))
        .collect();
    if groups.len() >= 3 {
        median(&groups)
    } else {
        percentile(&sorted(values), p)
    }
}

/// The highest ladder percentile that leaves at least [`TAIL_SAMPLES`]
/// samples strictly above its rank, or `None` when even the median cannot.
pub fn supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - 1 - rank(n, p) >= TAIL_SAMPLES)
}

/// One-line summary of a latency sample: count, median, the highest
/// supported tail, and the maximum.
pub fn describe(name: &str, unit: &str, v: &[f64]) -> String {
    if v.is_empty() {
        return format!("{name}: n=0");
    }
    let s = sorted(v);
    let tail = match supported_percentile(s.len()) {
        Some(p) if p > 0.5 => format!(" p{}={:.3}", p * 100.0, percentile(&s, p)),
        Some(_) => " (no tail beyond p50 with >=10 samples beyond it)".to_string(),
        None => " (fewer than 10 samples beyond p50)".to_string(),
    };
    format!(
        "{name}: n={} p50={:.3}{tail} max={:.3} {unit}",
        s.len(),
        percentile(&s, 0.5),
        s[s.len() - 1]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_rate_is_the_median_second() {
        // 100/s for four seconds, with a stall (10) in the third.
        let mut t = Vec::new();
        for (sec, n) in [(0, 100), (1, 100), (2, 10), (3, 100)] {
            t.extend((0..n).map(|i| sec as f64 + i as f64 / n as f64));
        }
        assert_eq!(window_rate(&t, 4.0), 100.0);
        // Short windows fall back to count / span.
        assert_eq!(window_rate(&[0.5, 1.0, 2.0], 2.0), 1.5);
    }

    #[test]
    fn windowed_and_grouped_percentiles_ignore_one_bad_slice() {
        // Three seconds of 1000 samples at 1.0 plus one second at 50.0.
        let mut t = Vec::new();
        let mut v = Vec::new();
        for sec in 0..4 {
            for i in 0..1000 {
                t.push(sec as f64 + i as f64 / 1000.0);
                v.push(if sec == 2 { 50.0 } else { 1.0 });
            }
        }
        assert_eq!(window_percentile(&t, &v, 4.0, 0.99), 1.0);
        assert_eq!(percentile(&sorted(&v), 0.99), 50.0);
        assert_eq!(grouped_percentile(&v, 1000, 0.95), 1.0);
        // Too few groups: all samples.
        assert_eq!(grouped_percentile(&v, 2000, 0.95), 50.0);
        // Groups grow to support the tail: 500-sample groups for p99.
        assert_eq!(grouped_percentile(&v[..2000], 10, 0.99), 1.0);
        assert_eq!(grouped_percentile(&v[..1500], 10, 0.99), 1.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        // 20 samples: rank(p50) = 9, leaving exactly 10 beyond it.
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(19), None);
        // 100 samples: p90 is rank 89 (10 beyond), p95 would leave 5.
        assert_eq!(supported_percentile(100), Some(0.9));
        // 1000 samples: p99 is rank 989 (10 beyond).
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(999), Some(0.95));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn every_supported_rank_leaves_the_tail() {
        for n in 1..3000 {
            if let Some(p) = supported_percentile(n) {
                assert!(n - 1 - rank(n, p) >= TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }
}
