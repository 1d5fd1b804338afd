//! What instrumentation costs a loop whose handle records nothing, and
//! that a live handle loses nothing. A coordinator-style hot loop (drift
//! a hashed item, fold the delta into two accumulator queries, check a
//! staleness bound) runs bare and under the shipped discipline: handles
//! resolved once, one counter add and histogram record per batch, one
//! span per tick. The count runs under plain `cargo test`; the clock
//! ceiling is `#[ignore]`d (CI: `cargo test --release -p pq-obs --
//! --ignored`). What a live or recorded handle costs is gated on the
//! real engine, by pq-sim's `disabled_handle` test.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pq_obs::{names, Counter, Histogram, Obs, Timer};

/// Disabled over bare, in percent.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 1.0;
const BATCH: u64 = 64;
const TICK: u64 = 1024;
/// Events a side runs before the other (≈ 3 ms): long enough to re-warm
/// what the other evicted, far below the timescale of a noisy neighbour.
const SLICE: u64 = 32 * TICK;

/// Item state plus per-query accumulators; at 4M items (36 MB) the loop
/// leaves cache, the engine's real regime (at 1M the disabled side read
/// 5 % faster than the bare one, whichever ran first).
struct LoopState {
    values: Vec<f64>,
    qacc: Vec<f64>,
    stale: u64,
}

impl LoopState {
    fn new(n_items: usize) -> Self {
        LoopState {
            values: (0..n_items).map(|i| 100.0 + (i % 50) as f64).collect(),
            qacc: vec![0.0; (n_items / 8).max(4)],
            stale: 0,
        }
    }

    /// Event `i`: the work both sides share.
    #[inline]
    fn step(&mut self, i: u64) {
        let mut h = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x0B5))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
        let item = (h % self.values.len() as u64) as usize;
        let delta = ((h >> 8) % 10_000) as f64 / 5_000.0 - 1.0;
        self.values[item] += delta;
        let mut fold = delta;
        for _ in 0..12 {
            fold = fold.mul_add(0.999_999_94, self.values[item] * 1e-9);
        }
        let q1 = ((h >> 20) % self.qacc.len() as u64) as usize;
        let q2 = ((h >> 40) % self.qacc.len() as u64) as usize;
        self.qacc[q1] += fold * self.values[item];
        self.qacc[q2] -= delta;
        if self.qacc[q1].abs() > 1e6 {
            self.qacc[q1] = 0.0;
            self.stale += 1;
        }
    }

    /// Digest of the end state: both sides must have done the same work.
    fn digest(&self) -> u64 {
        let sum: f64 = self.values.iter().sum::<f64>() + black_box(&self.qacc).iter().sum::<f64>();
        sum.to_bits() ^ self.stale
    }
}

/// The loop under the shipped discipline on one handle.
struct Instrumented {
    obs: Obs,
    counter: Arc<Counter>,
    histogram: Arc<Histogram>,
    timer: Timer,
    state: LoopState,
}

impl Instrumented {
    fn new(n_items: usize, obs: Obs) -> Self {
        Instrumented {
            counter: obs.counter(names::SIM_REFRESH),
            histogram: obs.histogram("loop.batch"),
            timer: obs.timer(names::SIM_RECOMPUTE_BATCH),
            obs,
            state: LoopState::new(n_items),
        }
    }

    /// Events `start..end`; `start` is tick-aligned.
    fn slice(&mut self, start: u64, end: u64) {
        for tick in (start..end).step_by(TICK as usize) {
            let (span, tick_end) = (self.timer.start(&self.obs), (tick + TICK).min(end));
            for batch in (tick..tick_end).step_by(BATCH as usize) {
                let n = BATCH.min(tick_end - batch);
                (batch..batch + n).for_each(|i| self.state.step(i));
                self.counter.add(n);
                self.histogram.record(n);
            }
            drop(span);
        }
    }
}

#[test]
fn every_event_is_accounted_for_in_the_final_snapshot() {
    // A last tick and a last batch that are both partial.
    let events = 3 * SLICE + 1000;
    let mut bare = LoopState::new(1_000);
    (0..events).for_each(|i| bare.step(i));
    for (obs, live) in [(Obs::null(), true), (Obs::disabled(), false)] {
        let mut instrumented = Instrumented::new(1_000, obs);
        instrumented.slice(0, events);
        assert_eq!(instrumented.state.digest(), bare.digest(), "other work");
        let snapshot = instrumented.obs.snapshot();
        if live {
            assert_eq!(snapshot.counters[names::SIM_REFRESH], events);
            let batches = snapshot.histograms["loop.batch"].count;
            assert_eq!(batches, events.div_ceil(BATCH));
        } else {
            assert!(snapshot.counters.is_empty() && snapshot.histograms.is_empty());
        }
    }
}

/// Disabled over bare, in percent: the median of the per-slice ratios. The
/// sides alternate, so neither resumes on its own warm cache, and the
/// median drops the slices where either side was preempted.
fn disabled_over_bare(n_items: usize, events: u64, reps: usize) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..reps {
        let mut bare = LoopState::new(n_items);
        let mut disabled = Instrumented::new(n_items, Obs::disabled());
        for start in (0..events).step_by(SLICE as usize) {
            let end = (start + SLICE).min(events);
            let t = Instant::now();
            (start..end).for_each(|i| bare.step(i));
            let (bare_s, t) = (t.elapsed().as_secs_f64(), Instant::now());
            disabled.slice(start, end);
            ratios.push(t.elapsed().as_secs_f64() / bare_s);
        }
        assert_eq!(disabled.state.digest(), bare.digest(), "other work");
    }
    ratios.sort_by(f64::total_cmp);
    100.0 * (ratios[ratios.len() / 2] - 1.0)
}

#[test]
#[ignore = "clock ceiling: release build only, `cargo test --release -p pq-obs -- --ignored`"]
fn a_disabled_handle_costs_the_loop_nothing_on_the_release_build() {
    // One reading moves by about a point either way on a shared 2-vCPU
    // box: only a breach that repeats is one.
    let mut readings = Vec::new();
    for _ in 0..5 {
        let reading = disabled_over_bare(4_000_000, 1_000_000, 9);
        println!("disabled over bare {reading:.2} %");
        if reading <= MAX_DISABLED_OVERHEAD_PCT {
            return;
        }
        readings.push(reading);
    }
    panic!("disabled over bare read {readings:.2?} %, ceiling {MAX_DISABLED_OVERHEAD_PCT} %");
}
