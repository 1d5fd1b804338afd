//! What every workload's run carries along: the options, the span
//! recorder, the speed calibrator, the check tally and the metric values,
//! with the few steps both kinds of workload take the same way.

use std::time::Instant;

use crate::calib::Calibrator;
use crate::checks::Tally;
use crate::inputs::{self, Kind};
use crate::report::{Report, Values};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::Options;

#[derive(Debug)]
pub struct Ctx<'a> {
    pub opts: &'a Options,
    pub tracer: Tracer,
    pub cal: Calibrator,
    pub tally: Tally,
    pub values: Values,
}

impl<'a> Ctx<'a> {
    pub fn new(opts: &'a Options) -> Self {
        Ctx {
            opts,
            tracer: Tracer::new(opts.trace),
            cal: Calibrator::new(),
            tally: Tally::default(),
            values: Values::default(),
        }
    }

    /// Whether to set up once more; `setup_s` is the median of all
    /// set-ups. Three at least, then up to 15 while they fit in two
    /// seconds, so a millisecond set-up reads as steadily as a
    /// one-second one. A smoke run stops at three.
    pub fn more_setups(&self, done: usize, started: Instant) -> bool {
        done < 3 || (!self.opts.smoke && done < 15 && started.elapsed().as_secs_f64() < 2.0)
    }

    /// Whether to make another timed run: three at least, then as many
    /// as fit in the measuring window. A traced run spends 40 % of
    /// `--seconds` on timed runs and the rest on drill-downs.
    pub fn more_runs(&self, done: usize, started: Instant) -> bool {
        let window = self.opts.seconds * if self.opts.trace { 0.4 } else { 1.0 };
        done < 3 || started.elapsed().as_secs_f64() < window
    }

    /// Records the end-to-end numbers every workload reads the same way
    /// and returns the `run_s` summary. Call right after the last timed
    /// run: the peak resident set is read here.
    pub fn record_runs(&mut self, run_s: &[f64], refreshes: u64, recomputations: u64) -> Summary {
        let run = stats::summarize(run_s);
        self.values.set("run_s", run);
        self.values
            .set("peak_rss_mb", Summary::exact(peak_rss_mb()));
        self.values.set(
            "total_cost_msgs",
            Summary::exact(refreshes as f64 + inputs::MU * recomputations as f64),
        );
        run
    }

    /// Closes the run: the report, and the spans for whoever writes them.
    pub fn finish(
        mut self,
        kind: Kind,
        inputs_hash: u64,
        run_samples: Vec<f64>,
    ) -> (Report, Tracer) {
        if self.opts.trace {
            self.values.set("bench.kernel_ms", self.cal.kernel_ms());
        }
        let report = Report {
            workload: kind.name(),
            seed: self.opts.seed,
            smoke: self.opts.smoke,
            traced: self.opts.trace,
            inputs_hash,
            run_samples,
            tally: self.tally,
            values: self.values,
        };
        (report, self.tracer)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
