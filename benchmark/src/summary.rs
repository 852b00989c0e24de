//! Medians and quartiles of repeated measurements.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `xs`, with quartiles by the exclusive method Python's
    /// `statistics.quantiles(xs, n=4)` uses.
    ///
    /// # Panics
    /// If `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "no samples");
        let mut d = xs.to_vec();
        d.sort_by(f64::total_cmp);
        let n = d.len();
        let median = if n % 2 == 1 {
            d[n / 2]
        } else {
            (d[n / 2 - 1] + d[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            if n == 1 {
                return d[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
