//! Order statistics for the report: medians and quartiles computed the way
//! Python's `statistics.quantiles(data, n=4)` computes them (the default
//! "exclusive" method), so printed quartiles match an external check.

/// Median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = if s.len() < 2 {
            (s[0], s[0])
        } else {
            (quantile_exclusive(&s, 1), quantile_exclusive(&s, 3))
        };
        Some(Self {
            q1,
            median: median_sorted(&s),
            q3,
        })
    }
}

/// Median of an ascending slice.
fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `i`-th of the three cut points dividing an ascending slice of at
/// least two values into quarters (exclusive method).
fn quantile_exclusive(s: &[f64], i: usize) -> f64 {
    let m = s.len() + 1;
    let j = (i * m / 4).clamp(1, s.len() - 1);
    // Clamping can push `j` past `i·m/4`, so the weight may fall outside
    // 0..=1 (Python extrapolates there too).
    let delta = (i * m) as f64 / 4.0 - j as f64;
    s[j - 1] + (s[j] - s[j - 1]) * delta
}

/// Nearest-rank percentile of ascending `sorted` (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
