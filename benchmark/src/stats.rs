//! Percentiles, medians over trials, and the sample-count gate on tail
//! percentiles.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether tail percentile `p` of `samples` samples per trial may be
/// reported: ten samples must lie beyond it (1,000 samples for a p99,
/// 200 for a p95).
pub fn tail_reportable(p: f64, samples: usize) -> bool {
    samples as f64 * (100.0 - p) >= 1000.0
}

/// Median of an unsorted list (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// One metric over the trials of a run: the median is the value, with
/// the spread and the sample count alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Trials that reported the metric.
    pub trials: usize,
    /// Samples behind each trial's value (smallest over trials); 1 for
    /// metrics that are one measurement per trial.
    pub samples: usize,
}

/// Median over the trials that reported a value; `None` if none did.
pub fn over_trials(per_trial: &[Option<(f64, usize)>]) -> Option<Agg> {
    let vals: Vec<f64> =
        per_trial.iter().flatten().map(|(v, _)| *v).collect();
    let median = median(&vals)?;
    Some(Agg {
        median,
        min: vals.iter().copied().fold(f64::INFINITY, f64::min),
        max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        trials: vals.len(),
        samples: per_trial
            .iter()
            .flatten()
            .map(|(_, n)| *n)
            .min()
            .unwrap_or(0),
    })
}

/// Largest relative deviation of `values` from their median — what
/// `repeat.sh` prints beside each bound.
pub fn max_rel_dev(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    if m == 0.0 {
        return Some(if values.iter().all(|v| *v == 0.0) {
            0.0
        } else {
            f64::INFINITY
        });
    }
    Some(
        values
            .iter()
            .map(|v| ((v - m) / m).abs())
            .fold(0.0, f64::max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // 10 samples: p50 is the 5th, p99 the 10th.
        let t: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&t, 50.0), Some(14));
        assert_eq!(percentile(&t, 99.0), Some(19));
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert!(!tail_reportable(99.0, 999));
        assert!(tail_reportable(99.0, 1000));
        assert!(!tail_reportable(95.0, 199));
        assert!(tail_reportable(95.0, 200));
        // With 1,000 samples, ten (990..=999) lie beyond the p99.
        let enough: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&enough, 99.0), Some(989));
    }

    #[test]
    fn median_of_trials_ignores_trials_without_a_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let agg = over_trials(&[
            Some((10.0, 5000)),
            None,
            Some((30.0, 1200)),
            Some((20.0, 4000)),
        ])
        .unwrap();
        assert_eq!(agg.median, 20.0);
        assert_eq!((agg.min, agg.max), (10.0, 30.0));
        assert_eq!((agg.trials, agg.samples), (3, 1200));
        assert_eq!(over_trials(&[None, None]), None);
    }

    #[test]
    fn relative_deviation_is_measured_from_the_median() {
        let d = max_rel_dev(&[100.0, 104.0, 95.0]).unwrap();
        assert!((d - 0.05).abs() < 1e-12);
        assert_eq!(max_rel_dev(&[0.0, 0.0]), Some(0.0));
        assert_eq!(max_rel_dev(&[0.0, 0.0, 1.0]), Some(f64::INFINITY));
        assert_eq!(max_rel_dev(&[]), None);
    }
}
