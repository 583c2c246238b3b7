//! Order statistics of a handful of timing samples.

/// n, median, quartiles, min and max of one metric's samples.
///
/// A run takes at most a few dozen samples, so no percentile above the
/// median has ten samples beyond it: the quartiles describe spread, not a
/// tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&s);
        Some(Summary {
            n: s.len(),
            median,
            q1,
            q3,
            min: s[0],
            max: s[s.len() - 1],
        })
    }

    /// A single measured value (n = 1, no spread).
    pub fn single(v: f64) -> Summary {
        Summary {
            n: 1,
            median: v,
            q1: v,
            q3: v,
            min: v,
            max: v,
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of sorted `s`, computed as Python's
/// `statistics.quantiles(s, n=4)` does (exclusive method), so numbers
/// printed here can be checked against the acceptance script.
fn quartiles(s: &[f64]) -> [f64; 3] {
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[5.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s, Summary::single(7.0));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.spread(), (4.5 - 1.5) / 3.0);
    }
}
