//! What the telemetry plane costs a coordinator-style hot loop (drift a
//! hashed item, fold the delta into two accumulator queries, check a
//! staleness bound), and that it loses nothing. The loop runs three ways:
//!
//! * **off**: no telemetry call at all;
//! * **instrumented**: the shipped discipline — [`Counter`] and
//!   [`Histogram`] handles resolved once, adds amortized over each
//!   batch of events, one causal span per tick through a pre-resolved
//!   [`Timer`], the sampling profiler running throughout;
//! * **windowed**: instrumented plus the live-health plane — the
//!   [`SloEngine`] observing each tick and the flight [`Recorder`]
//!   subscribed.
//!
//! That every event is in an instrumented run's final snapshot is a count
//! and runs under plain `cargo test`. The clock ceilings are `#[ignore]`d
//! (CI: `cargo test --release -p pq-obs -- --ignored`): a debug build
//! measures the missing inlining, not the plane.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pq_obs::{
    names, start_profiler, Counter, Histogram, Obs, Profiler, Recorder, RecorderConfig, SloConfig,
    SloEngine, Timer,
};

/// Instrumented over off, on the 1M-item loop: per-event locking reads
/// +50 % and more.
const MAX_INSTRUMENTED_OVERHEAD_PCT: f64 = 6.0;
/// Windowed over instrumented: what the live-health plane adds per tick.
const MAX_PLANE_OVERHEAD_PCT: f64 = 3.0;
/// Events folded per batch.
const BATCH: u64 = 64;
/// The loop's own histogram of events per batch.
const BATCH_SIZE: &str = "loop.batch_size";
/// Events per simulated tick (one span each).
const TICK: u64 = 1024;
/// Prime, so samples do not phase-lock with the tick cadence.
const PROFILE_HZ: u32 = 97;
/// Ticks a variant advances before the next one runs (≈ 3 ms): long
/// enough to re-warm the telemetry state the others evicted, far below
/// the timescale of a noisy neighbour.
const SLICE_TICKS: u64 = 32;

/// Item state plus per-query accumulators; at 1M items the loop leaves
/// cache, the engine's real regime.
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

    /// Event `i`: the work every variant shares.
    #[inline]
    fn step(&mut self, i: u64) {
        let mut h = i
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x0B5)
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

    /// Digest of the end state: every variant must have done the same
    /// work.
    fn digest(&self) -> u64 {
        black_box(&self.qacc);
        let sum: f64 = self.values.iter().sum::<f64>() + self.qacc.iter().sum::<f64>();
        sum.to_bits() ^ self.stale
    }
}

/// The live-health plane a windowed run drives once per tick.
struct Live {
    slo: Arc<SloEngine>,
    tick: u64,
}

/// The loop under the shipped discipline, with or without [`Live`].
struct Instrumented {
    obs: Obs,
    c_refresh: Arc<Counter>,
    h_batch: Arc<Histogram>,
    t_tick: Timer,
    profiler: Profiler,
    live: Option<Live>,
    state: LoopState,
}

impl Instrumented {
    fn new(n_items: usize, windowed: bool) -> Self {
        let (obs, live) = if windowed {
            // Written only if something pages, which fails the run.
            let dump = format!("pq-obs-overhead-{}-{n_items}.jsonl", std::process::id());
            let recorder = Recorder::new(RecorderConfig::new(std::env::temp_dir().join(dump)));
            let obs = Obs::with_subscriber(Arc::new(recorder.clone()));
            obs.install_recorder(recorder);
            let slo = Arc::new(SloEngine::new(SloConfig::default()));
            obs.install_slo_engine(slo.clone());
            (obs, Some(Live { slo, tick: 0 }))
        } else {
            (Obs::null(), None)
        };
        Instrumented {
            c_refresh: obs.counter(names::SIM_REFRESH),
            h_batch: obs.histogram(BATCH_SIZE),
            t_tick: obs.timer(names::SIM_RECOMPUTE_BATCH),
            profiler: start_profiler(&obs, PROFILE_HZ),
            obs,
            live,
            state: LoopState::new(n_items),
        }
    }

    /// Events `start..end`; `start` is tick-aligned.
    fn slice(&mut self, start: u64, end: u64) {
        let mut i = start;
        while i < end {
            let tick_span = self.t_tick.start(&self.obs);
            let tick_end = (i + TICK).min(end);
            let tick_events = tick_end - i;
            while i < tick_end {
                let batch_end = (i + BATCH).min(tick_end);
                let n = batch_end - i;
                while i < batch_end {
                    self.state.step(i);
                    i += 1;
                }
                self.c_refresh.add(n);
                self.h_batch.record(n);
            }
            drop(tick_span);
            if let Some(live) = &mut self.live {
                live.slo.observe(live.tick, tick_events, 0, 0);
                live.tick += 1;
            }
        }
    }

    /// Tears down and checks that the snapshot holds every event.
    fn finish(self, events: u64) -> u64 {
        self.profiler.stop();
        let snapshot = self.obs.snapshot();
        assert_eq!(
            snapshot.counters[names::SIM_REFRESH],
            events,
            "every event must be in the final snapshot"
        );
        assert_eq!(
            snapshot.histograms[BATCH_SIZE].count,
            events.div_ceil(BATCH),
            "every batch must be in the final snapshot"
        );
        if let Some(live) = &self.live {
            assert!(
                live.slo.alerts().iter().all(|a| !a.is_active()),
                "a clean run must not page"
            );
        }
        self.state.digest()
    }
}

/// The three variants over `events` events in interleaved slices, `reps`
/// times. Returns the median over every slice of the same-slice ratios
/// (instrumented over off, windowed over instrumented), in percent: each
/// sample pairs two timings taken milliseconds apart, and the median
/// drops the slices where either side was preempted.
fn overheads(n_items: usize, events: u64, reps: usize) -> (f64, f64) {
    let (mut instrumented_over_off, mut windowed_over_instrumented) = (Vec::new(), Vec::new());
    let mut cycle = 0;
    for _ in 0..reps {
        let mut off = LoopState::new(n_items);
        let mut instrumented = Instrumented::new(n_items, false);
        let mut windowed = Instrumented::new(n_items, true);
        let mut start = 0;
        while start < events {
            let end = (start + TICK * SLICE_TICKS).min(events);
            let mut secs = [0.0f64; 3];
            // Each slice starts one variant later than the last, so none
            // is pinned to a position and none runs twice in a row: a
            // variant resuming on its own warm cache reads ≈ 5 % faster,
            // more than either ceiling.
            for variant in (0..3).map(|k| (cycle + k) % 3) {
                let t = Instant::now();
                match variant {
                    0 => (start..end).for_each(|i| off.step(i)),
                    1 => instrumented.slice(start, end),
                    _ => windowed.slice(start, end),
                }
                secs[variant] = t.elapsed().as_secs_f64();
            }
            instrumented_over_off.push(secs[1] / secs[0]);
            windowed_over_instrumented.push(secs[2] / secs[1]);
            cycle += 1;
            start = end;
        }
        let want = off.digest();
        assert_eq!(
            instrumented.finish(events),
            want,
            "instrumented ran other work"
        );
        assert_eq!(windowed.finish(events), want, "windowed ran other work");
    }
    let median_pct = |mut ratios: Vec<f64>| {
        ratios.sort_by(f64::total_cmp);
        100.0 * (ratios[ratios.len() / 2] - 1.0)
    };
    (
        median_pct(instrumented_over_off),
        median_pct(windowed_over_instrumented),
    )
}

#[test]
fn every_event_is_accounted_for_in_the_final_snapshot() {
    // A last tick and a last batch that are both partial.
    overheads(1_000, 3 * TICK * SLICE_TICKS + 1000, 1);
}

#[test]
#[ignore = "clock ceilings: release build only, `cargo test --release -p pq-obs -- --ignored`"]
fn overhead_ceilings_hold_on_the_release_build() {
    // On a shared 2-vCPU box one reading of the same build moves by about
    // a point either way, which is the distance from the plane's usual
    // 2.5 % to its ceiling: only a breach that repeats is one.
    let mut breaches = Vec::new();
    for _ in 0..5 {
        let (instrumented, plane) = overheads(1_000_000, 1_000_000, 9);
        println!(
            "instrumented over off {instrumented:.2} %, windowed over instrumented {plane:.2} %"
        );
        if instrumented < MAX_INSTRUMENTED_OVERHEAD_PCT && plane < MAX_PLANE_OVERHEAD_PCT {
            return;
        }
        breaches.push((instrumented, plane));
    }
    panic!(
        "(instrumented over off, windowed over instrumented) read {breaches:.2?} %, \
         ceilings {MAX_INSTRUMENTED_OVERHEAD_PCT} % and {MAX_PLANE_OVERHEAD_PCT} %"
    );
}
