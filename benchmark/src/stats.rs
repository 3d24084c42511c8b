//! Order statistics over timed passes.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every metric is sampled at least once.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// A value that was observed once and is exact.
    pub fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            min: v,
            max: v,
            n: 1,
        }
    }
}

/// The `p` quantile of sorted `s`, by the rule of Python's
/// `statistics.quantiles` (exclusive method), so the spreads printed here
/// read the same as the acceptance check's.
fn quantile(s: &[f64], p: f64) -> f64 {
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        s[n - 1]
    } else {
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::exact(7.0).q3, 7.0);
    }
}
