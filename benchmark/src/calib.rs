//! Speed normalisation for the bounded timings.
//!
//! On the shared reference box identical work takes up to 2x longer for
//! seconds to minutes at a time (other tenants; not visible as steal
//! time), so raw wall times of one invocation spread 12-20 % between
//! invocations whatever statistic is taken. A fixed reference kernel run
//! right before and right after each timed run slows down with it: the
//! run's time divided by the kernel's, times the kernel's reference
//! time, spreads 4-8 % over the same runs (README, "Noise"). The kernel
//! is hash-map, allocation and branch heavy like the engine; arithmetic
//! or pointer-chasing kernels track it far worse (correlation 0.3-0.5
//! against 0.7).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{self, Summary};

/// The kernel's time on the quiet reference box: normalised seconds
/// equal wall seconds there. A constant factor, so it moves no ratio
/// between two commits.
pub const REFERENCE_KERNEL_S: f64 = 0.030;

/// Runs the reference kernel once and returns its wall time in seconds.
pub fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut state = 88_172_645_463_325_252u64;
    let mut acc = 0u64;
    for i in 0..2_400_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bucket = buckets.entry(state % 4096).or_default();
        bucket.push(i);
        if bucket.len() > 8 {
            acc += bucket.iter().sum::<u64>();
            bucket.clear();
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Turns wall times into normalised ones: `before()` runs the kernel,
/// the caller times its work, `after(wall)` runs the kernel again and
/// scales `wall` by the mean of the two. Back-to-back timed runs share
/// the kernel run between them.
#[derive(Debug)]
pub struct Calibrator {
    last: f64,
    kernel_times: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let last = reference_kernel();
        Calibrator {
            last,
            kernel_times: vec![last],
        }
    }

    /// Call when other work ran since the last `after()`.
    pub fn before(&mut self) {
        self.last = reference_kernel();
        self.kernel_times.push(self.last);
    }

    /// The normalised seconds of work that took `wall` seconds and
    /// ended just now.
    pub fn after(&mut self, wall: f64) -> f64 {
        let next = reference_kernel();
        let around = (self.last + next) / 2.0;
        self.last = next;
        self.kernel_times.push(next);
        wall * REFERENCE_KERNEL_S / around
    }

    /// The kernel's times so far, in milliseconds.
    pub fn kernel_ms(&self) -> Summary {
        let ms: Vec<f64> = self.kernel_times.iter().map(|s| s * 1e3).collect();
        stats::summarize(&ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_scales_with_wall_time() {
        let mut cal = Calibrator::new();
        let one = cal.after(1.0);
        cal.before();
        let two = cal.after(2.0);
        assert!(one > 0.0 && two > 0.0);
        // Same kernel, same machine: within the noise of three kernel runs.
        assert!((two / one - 2.0).abs() < 1.0, "{one} {two}");
        assert_eq!(cal.kernel_ms().n, 4);
    }
}
