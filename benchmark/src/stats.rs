//! Order statistics for timing samples.

/// The reported value of a metric with the quartiles and size of the
/// sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median of a sample, or the one reading of an exact value.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was read once, not sampled (a count, a peak).
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Distance between the quartiles as a share of the value (0 for a
    /// zero value, which only exact zero counts have).
    pub fn iqr_share(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 <= p <= 1`) by linear interpolation between the
/// two nearest ranks of an ascending sample.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `p`-quantile of an unsorted sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        value: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// The highest of 99.9 %, 99 %, 95 % and 90 % that still has at least
/// ten samples beyond it, as `(p, value)`; `None` below 100 samples.
pub fn highest_supported_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|permille| v.len() * (1000 - permille) / 1000 >= 10)
        .map(|permille| permille as f64 / 1000.0)
        .map(|p| (p, quantile_sorted(&v, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.value, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_value() {
        let s = summarize(&[9.0, 10.0, 11.0]);
        assert!((s.iqr_share() - 0.1).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).iqr_share(), 0.0);
        assert_eq!(Summary::exact(5.0).iqr_share(), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported_percentile(&ramp(99)), None);
        assert_eq!(highest_supported_percentile(&ramp(100)).unwrap().0, 0.90);
        assert_eq!(highest_supported_percentile(&ramp(200)).unwrap().0, 0.95);
        assert_eq!(highest_supported_percentile(&ramp(1000)).unwrap().0, 0.99);
        let (p, v) = highest_supported_percentile(&ramp(10_001)).unwrap();
        assert_eq!(p, 0.999);
        assert!((v - 9990.0).abs() < 1e-9);
    }
}
