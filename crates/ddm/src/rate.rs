//! Rate-of-change estimation.
//!
//! The DAB formulations weight each item's filter width by its estimated
//! rate of change `lambda_i` (§III-A.1). The paper estimates it by sampling
//! the trace at fixed intervals (60 s) and averaging `|delta| / interval`
//! over the whole trace (§V-A); the `lambda_i = 1` configuration (curves
//! labelled *L1* in Fig. 6) ignores rate information entirely.

use crate::trace::{Trace, TraceSet};

/// How per-item rates of change are obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateEstimator {
    /// The paper's method: sample every `interval_ticks`, average
    /// `|delta| / interval` across the trace.
    SampledAverage {
        /// Sampling interval in ticks (the paper uses 60).
        interval_ticks: usize,
    },
    /// Exponentially weighted variant of the sampled average, weighting
    /// recent intervals more (smoothing factor `alpha` in `(0, 1]`).
    Ewma {
        /// Sampling interval in ticks.
        interval_ticks: usize,
        /// Smoothing factor; higher tracks recent changes more closely.
        alpha: f64,
    },
    /// Standard deviation of per-tick increments; the natural `sigma` for
    /// the random-walk data-dynamics model.
    StepStd,
    /// No rate information: every item gets `lambda = 1` (*L1* in Fig. 6).
    Unit,
}

impl RateEstimator {
    /// The rate a degenerate trace gets: strictly positive so that GP
    /// objectives stay well-posed, far below any rate that moves a DAB.
    pub const FLOOR: f64 = 1e-9;

    /// Estimates the rate of one trace. Always returns a strictly positive,
    /// finite value (degenerate traces get [`RateEstimator::FLOOR`]).
    ///
    /// A trace shorter than the sampling interval has no full interval to
    /// sample: the sampled estimators then return one sample, endpoint
    /// displacement over the trace's length. That single `|delta| / T` of
    /// a random walk is a poor rate — about right in the median, but one
    /// item in ten reads under a third of its long-run rate and some a
    /// hundredth — and Dual-DAB gives an item it believes immobile a
    /// near-zero filter and validity range, which the item's real
    /// movement then leaves on nearly every tick. On a 40-tick cut of an
    /// overlapping book that is ~1000x the recomputations per tick of the
    /// full tape, with or without network delays (DESIGN.md §12, "Short
    /// tapes and the rate estimator"). Give a short run an interval that
    /// fits it several times.
    pub fn estimate(&self, trace: &Trace) -> f64 {
        let raw = match *self {
            RateEstimator::SampledAverage { interval_ticks } => {
                sampled_average(trace, interval_ticks.max(1))
            }
            RateEstimator::Ewma {
                interval_ticks,
                alpha,
            } => ewma(trace, interval_ticks.max(1), alpha.clamp(1e-6, 1.0)),
            RateEstimator::StepStd => step_std(trace),
            RateEstimator::Unit => 1.0,
        };
        if raw.is_finite() && raw > 0.0 {
            raw
        } else {
            RateEstimator::FLOOR
        }
    }

    /// Estimates rates for every item of a trace set.
    pub fn estimate_all(&self, traces: &TraceSet) -> Vec<f64> {
        traces.traces().iter().map(|t| self.estimate(t)).collect()
    }
}

fn sampled_average(trace: &Trace, interval: usize) -> f64 {
    let v = trace.values();
    if v.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    let mut prev = v[0];
    let mut t = interval;
    while t < v.len() {
        total += (v[t] - prev).abs() / interval as f64;
        prev = v[t];
        count += 1;
        t += interval;
    }
    if count == 0 {
        // Interval longer than the trace: fall back to endpoints.
        return (v[v.len() - 1] - v[0]).abs() / (v.len() - 1) as f64;
    }
    total / count as f64
}

fn ewma(trace: &Trace, interval: usize, alpha: f64) -> f64 {
    let v = trace.values();
    if v.len() < 2 {
        return 0.0;
    }
    let mut est = 0.0;
    let mut initialized = false;
    let mut prev = v[0];
    let mut t = interval;
    while t < v.len() {
        let sample = (v[t] - prev).abs() / interval as f64;
        if initialized {
            est = alpha * sample + (1.0 - alpha) * est;
        } else {
            est = sample;
            initialized = true;
        }
        prev = v[t];
        t += interval;
    }
    if !initialized {
        return sampled_average(trace, interval);
    }
    est
}

fn step_std(trace: &Trace) -> f64 {
    let v = trace.values();
    if v.len() < 2 {
        return 0.0;
    }
    let n = (v.len() - 1) as f64;
    let mean: f64 = v.windows(2).map(|w| w[1] - w[0]).sum::<f64>() / n;
    let var: f64 = v
        .windows(2)
        .map(|w| {
            let d = (w[1] - w[0]) - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_ramp_rate_is_slope() {
        // v_t = 5 + 0.5 t: slope 0.5 under any sampling interval.
        let t = Trace::from_values((0..600).map(|i| 5.0 + 0.5 * i as f64).collect());
        for interval in [1, 10, 60] {
            let r = RateEstimator::SampledAverage {
                interval_ticks: interval,
            }
            .estimate(&t);
            assert!((r - 0.5).abs() < 1e-12, "interval {interval}: {r}");
        }
    }

    #[test]
    fn unit_estimator_ignores_trace() {
        let t = Trace::from_values(vec![1.0, 100.0, 1.0]);
        assert_eq!(RateEstimator::Unit.estimate(&t), 1.0);
    }

    #[test]
    fn constant_trace_gets_positive_floor() {
        let t = Trace::constant(7.0, 100);
        let r = RateEstimator::SampledAverage { interval_ticks: 10 }.estimate(&t);
        assert!(r > 0.0, "rate must stay positive for GP objectives");
    }

    #[test]
    fn step_std_matches_known_walk() {
        // Alternating +1/-1 steps: per-step std is 1, mean 0.
        let mut vals = vec![10.0];
        for i in 0..999 {
            let last = *vals.last().unwrap();
            vals.push(if i % 2 == 0 { last + 1.0 } else { last - 1.0 });
        }
        let t = Trace::from_values(vals);
        let r = RateEstimator::StepStd.estimate(&t);
        assert!((r - 1.0).abs() < 1e-2, "{r}");
    }

    #[test]
    fn interval_longer_than_trace_falls_back_to_endpoints() {
        let t = Trace::from_values(vec![0.0, 1.0, 2.0, 3.0]);
        let r = RateEstimator::SampledAverage {
            interval_ticks: 100,
        }
        .estimate(&t);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_tracks_recent_rate() {
        // First half flat, second half rising at 1/tick: EWMA (high alpha)
        // should be near 1, plain average near 0.5.
        let mut vals: Vec<f64> = vec![10.0; 500];
        for i in 0..500 {
            vals.push(10.0 + i as f64);
        }
        let t = Trace::from_values(vals);
        let ewma = RateEstimator::Ewma {
            interval_ticks: 10,
            alpha: 0.5,
        }
        .estimate(&t);
        let avg = RateEstimator::SampledAverage { interval_ticks: 10 }.estimate(&t);
        assert!(ewma > 0.9, "ewma {ewma}");
        assert!((avg - 0.5).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn estimate_all_covers_every_item() {
        let ts = crate::trace::TraceSet::stock_universe(5, 200, 1);
        let rates = RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&ts);
        assert_eq!(rates.len(), 5);
        assert!(rates.iter().all(|&r| r > 0.0 && r.is_finite()));
    }
}
