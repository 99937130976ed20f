//! The benchmark's own arithmetic: medians, named percentiles under the
//! ten-samples-beyond rule, and failure counting.

/// The `p`-th percentile (0–100) of an ascending-sorted sample by the
/// nearest-rank rule: the smallest value with at least `p`% of the
/// sample at or below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    rank(sorted.len(), p).map(|i| sorted[i])
}

/// The 0-based nearest-rank index of the `p`-th percentile in `n`
/// sorted samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error in `p / 100 * n` from bumping an
    // exact rank (99.9% of 10 000) up by one.
    let r = (p.clamp(0.0, 100.0) / 100.0 * n as f64 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// How many samples of `n` lie strictly beyond the `p`-th percentile's
/// rank.
pub fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |i| n - 1 - i)
}

/// A named percentile is reported only when at least this many samples
/// lie beyond it; otherwise it is unresolved at that sample size.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile when at least [`MIN_BEYOND`] samples lie beyond
/// it; `None` (unresolved) otherwise. The median of a sample with fewer
/// than 20 values is unresolved too, by the same rule.
pub fn resolved_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if beyond(sorted.len(), p) >= MIN_BEYOND {
        percentile(sorted, p)
    } else {
        None
    }
}

/// The highest of the standard percentiles with at least [`MIN_BEYOND`]
/// samples beyond it, for a sample of `n` values.
pub fn highest_resolved(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The median of an unsorted sample (mean of the middle two for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sorts a sample ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Attempted and failed operations of one run. Every operation that
/// errors or fails its correctness check counts once as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored or produced a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded and was correct.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted; zero when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 10 samples: p50 is the 5th value, not an interpolation.
        assert_eq!(percentile(&one_to(10), 50.0), Some(5.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is the 990th; exactly 10 lie beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(resolved_percentile(&one_to(1000), 99.0), Some(990.0));
        // 999 samples: rank 990 (ceil 989.01), 9 beyond: unresolved.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(resolved_percentile(&one_to(999), 99.0), None);
        // p95 needs 200 samples, p90 needs 100, the median 20.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(resolved_percentile(&one_to(20), 50.0), Some(10.0));
        assert_eq!(resolved_percentile(&one_to(19), 50.0), None);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_resolved_percentile_follows_sample_size() {
        assert_eq!(highest_resolved(10_000), Some(99.9));
        assert_eq!(highest_resolved(1000), Some(99.0));
        assert_eq!(highest_resolved(999), Some(95.0));
        assert_eq!(highest_resolved(200), Some(95.0));
        assert_eq!(highest_resolved(100), Some(90.0));
        assert_eq!(highest_resolved(40), Some(75.0));
        assert_eq!(highest_resolved(20), Some(50.0));
        assert_eq!(highest_resolved(19), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.error_rate(), 0.25);
    }
}
