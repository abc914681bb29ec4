//! Order statistics and the time-to-bug computation.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a tail figure resting on fewer points is one outlier.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples`, linearly interpolated
/// between order statistics. Refuses (`None`) when fewer than
/// [`MIN_BEYOND`] samples lie above the percentile's rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let beyond = ((1.0 - q) * n as f64).floor() as usize;
    if n == 0 || beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// [`percentile`], refusing with an error that names the metric.
pub fn pct(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(samples, q).ok_or_else(|| format!("{what}: too few samples ({})", samples.len()))
}

/// The median of a small set of per-unit figures (no tail rule: this
/// summarizes repeated units, it is not a latency percentile).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The smallest of a set of repeated timings: contention from other
/// tenants of a shared host only ever adds time.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Time to the next hit from every point of one ordered stream.
///
/// `stream` holds each step's cost and whether the step ended in a hit.
/// From the start of step `i`, the wait for the next hit is the summed
/// cost of steps `i..=j`, where `j >= i` is the first hitting step. With
/// `wrap`, the stream repeats, so steps after the last hit wait through
/// the stream's head; without it they have no observed next hit
/// (right-censored) and yield no sample. Samples are appended to `out`
/// in stream order.
pub fn time_to_next_hit(stream: &[(f64, bool)], wrap: bool, out: &mut Vec<f64>) {
    let Some(last_hit) = stream.iter().rposition(|&(_, hit)| hit) else {
        return;
    };
    let (mut wait, end) = if wrap {
        let first_hit = stream.iter().position(|&(_, hit)| hit).unwrap_or(0);
        let head: f64 = stream[..=first_hit].iter().map(|s| s.0).sum();
        (head, stream.len())
    } else {
        (0.0, last_hit + 1)
    };
    let start = out.len();
    for &(cost, hit) in stream[..end].iter().rev() {
        if hit {
            wait = 0.0;
        }
        wait += cost;
        out.push(wait);
    }
    out[start..].reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: 9 lie beyond p99, 49 beyond p95.
        assert_eq!(percentile(&samples, 0.99), None);
        assert!(percentile(&samples, 0.95).is_some());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_some());
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        let p = percentile(&samples, 0.875).unwrap();
        assert!((p - 87.5).abs() < 1e-9, "{p}");
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn time_to_next_hit_on_a_hand_built_stream() {
        // costs 1,2,3,4,5,6; hits at steps 1 and 3; steps 4 and 5 are
        // censored.
        let stream = [
            (1.0, false),
            (2.0, true),
            (3.0, false),
            (4.0, true),
            (5.0, false),
            (6.0, false),
        ];
        let mut out = vec![99.0];
        time_to_next_hit(&stream, false, &mut out);
        assert_eq!(out, vec![99.0, 3.0, 2.0, 7.0, 4.0]);
        // Repeating, steps 4 and 5 wait through the head to step 1.
        out.clear();
        time_to_next_hit(&stream, true, &mut out);
        assert_eq!(out, vec![3.0, 2.0, 7.0, 4.0, 14.0, 9.0]);
    }

    #[test]
    fn time_to_next_hit_without_hits_yields_nothing() {
        let mut out = Vec::new();
        time_to_next_hit(&[(1.0, false), (2.0, false)], true, &mut out);
        time_to_next_hit(&[], false, &mut out);
        assert!(out.is_empty());
        time_to_next_hit(&[(5.0, true)], true, &mut out);
        assert_eq!(out, vec![5.0]);
    }
}
