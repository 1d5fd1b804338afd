//! Sliding-window telemetry: "what is happening *right now*" rates on
//! top of the registry's since-start cumulatives.
//!
//! The registry's counters answer "how many ever"; an operator watching
//! a live run needs "how many per second over the last minute". This
//! module provides ring-bucketed sliding windows over an explicit
//! **caller-driven clock** — the simulator advances it once per tick,
//! so windowed values are deterministic on a fixed seed and tests never
//! sleep. One clock unit is one simulated second (one tick).
//!
//! * [`WindowedCounter`] — event counts over the last 5 s / 1 m / 1 h,
//!   backed by two rings (sixty 1-unit buckets and sixty 60-unit
//!   buckets), so memory per series is constant and advancing the clock
//!   is O(elapsed buckets), not O(events).
//! * [`WindowedHistogram`] — per-bucket `(count, sum, max)` slices of a
//!   sample stream, merged over a window into rate / mean / max.
//! * [`WindowPlane`] — a named collection of both, either fed deltas
//!   directly ([`WindowPlane::record`]) or polling [`Counter`] handles
//!   for deltas on every [`WindowPlane::advance`]. Install the plane on
//!   an [`crate::Obs`] handle and `/metrics` exposes each tracked series
//!   as `pq_<name>_rate_5s` / `_rate_1m` / `_rate_1h` gauges.
//!
//! The plane is registered once per run and touched once per tick; the
//! hot recording path stays the PR 6 sharded/atomic one. That is what
//! keeps the windowed plane inside its 3 % overhead ceiling
//! (`tests/overhead.rs`).

use crate::registry::{lock_unpoisoned, Counter};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The exposed windows as `(length in clock units, series suffix)`.
/// The fast burn-rate pair is (5 s, 1 m); the slow pair is (1 m, 1 h).
pub const WINDOWS: [(u64, &str); 3] = [(5, "5s"), (60, "1m"), (3600, "1h")];

/// Five seconds, in clock units (simulated seconds).
pub const WINDOW_5S: u64 = 5;
/// One minute, in clock units.
pub const WINDOW_1M: u64 = 60;
/// One hour, in clock units.
pub const WINDOW_1H: u64 = 3600;

/// A ring of `len` buckets, each `width` clock units wide. Bucket `b`
/// (absolute index `t / width`) lives at slot `b % len`; advancing the
/// clock zeroes the buckets the head rolled past, so a slot is always
/// either current data or zero — never stale data from a lap ago.
#[derive(Debug, Clone)]
struct Ring {
    width: u64,
    slots: Box<[u64]>,
    /// Absolute bucket index of the current head.
    head: u64,
    /// Running sum of every live slot, so full-window sums — the ones
    /// the burn-rate math reads every tick — are O(1) instead of a
    /// 60-bucket walk.
    total: u64,
}

impl Ring {
    fn new(width: u64, len: usize) -> Self {
        Ring {
            width: width.max(1),
            slots: vec![0; len.max(1)].into_boxed_slice(),
            head: 0,
            total: 0,
        }
    }

    /// Moves the head to the bucket containing `now`, clearing the
    /// buckets in between. Time never moves backwards (`max`-guarded).
    fn advance(&mut self, now: u64) {
        let target = now / self.width;
        if target <= self.head {
            return;
        }
        let len = self.slots.len() as u64;
        let steps = (target - self.head).min(len);
        for i in 1..=steps {
            let slot = ((self.head + i) % len) as usize;
            self.total -= self.slots[slot];
            self.slots[slot] = 0;
        }
        self.head = target;
    }

    /// Adds `n` to the bucket at the head (call [`Ring::advance`] first).
    fn add(&mut self, n: u64) {
        let slot = (self.head % self.slots.len() as u64) as usize;
        self.slots[slot] += n;
        self.total += n;
    }

    /// Sum over the trailing `window` clock units (the head's partial
    /// bucket counts in full — the window closes at the live edge).
    fn sum(&self, window: u64) -> u64 {
        let len = self.slots.len() as u64;
        let buckets = (window / self.width).clamp(1, len);
        if buckets == len {
            return self.total;
        }
        let mut total = 0;
        for i in 0..buckets {
            if i > self.head {
                break;
            }
            total += self.slots[((self.head - i) % len) as usize];
        }
        total
    }
}

/// Event counts over the trailing 5 s / 1 m / 1 h, at O(120) words of
/// memory: a fine ring (sixty 1-unit buckets, serving windows up to
/// 1 m) and a coarse ring (sixty 60-unit buckets, serving up to 1 h).
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    fine: Ring,
    coarse: Ring,
}

impl Default for WindowedCounter {
    fn default() -> Self {
        WindowedCounter {
            fine: Ring::new(1, 60),
            coarse: Ring::new(60, 60),
        }
    }
}

impl WindowedCounter {
    /// A counter with the standard 5 s / 1 m / 1 h windows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the window clock to `now` (monotonic; earlier values
    /// are ignored).
    pub fn advance(&mut self, now: u64) {
        self.fine.advance(now);
        self.coarse.advance(now);
    }

    /// Adds `n` events at the current clock position.
    pub fn record(&mut self, n: u64) {
        self.fine.add(n);
        self.coarse.add(n);
    }

    /// Events in the trailing `window` clock units.
    pub fn sum(&self, window: u64) -> u64 {
        if window <= WINDOW_1M {
            self.fine.sum(window)
        } else {
            self.coarse.sum(window)
        }
    }

    /// Events per clock unit over the trailing `window`.
    pub fn rate(&self, window: u64) -> f64 {
        self.sum(window) as f64 / window.max(1) as f64
    }
}

/// One ring bucket of a [`WindowedHistogram`].
#[derive(Debug, Clone, Copy, Default)]
struct HistSlice {
    count: u64,
    sum: u64,
    max: u64,
}

/// Windowed view of a sample stream: per-bucket `(count, sum, max)`
/// slices merged over the trailing window into sample rate, mean, and
/// max. Quantiles stay with the cumulative registry histograms — the
/// windowed plane answers "is it regressing now", not "what shape".
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    fine: Vec<HistSlice>,
    coarse: Vec<HistSlice>,
    fine_head: u64,
    coarse_head: u64,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram {
            fine: vec![HistSlice::default(); 60],
            coarse: vec![HistSlice::default(); 60],
            fine_head: 0,
            coarse_head: 0,
        }
    }
}

impl WindowedHistogram {
    /// A histogram with the standard 5 s / 1 m / 1 h windows.
    pub fn new() -> Self {
        Self::default()
    }

    fn advance_ring(slices: &mut [HistSlice], head: &mut u64, width: u64, now: u64) {
        let target = now / width;
        if target <= *head {
            return;
        }
        let len = slices.len() as u64;
        let steps = (target - *head).min(len);
        for i in 1..=steps {
            slices[((*head + i) % len) as usize] = HistSlice::default();
        }
        *head = target;
    }

    /// Advances the window clock to `now`.
    pub fn advance(&mut self, now: u64) {
        Self::advance_ring(&mut self.fine, &mut self.fine_head, 1, now);
        Self::advance_ring(&mut self.coarse, &mut self.coarse_head, 60, now);
    }

    /// Records one sample at the current clock position.
    pub fn record(&mut self, v: u64) {
        self.record_agg(1, v, v);
    }

    /// Records a pre-aggregated batch of `count` samples summing to
    /// `sum` with maximum `max` — the polled-source path, which only
    /// sees deltas of the cumulative count/sum.
    pub fn record_agg(&mut self, count: u64, sum: u64, max: u64) {
        if count == 0 {
            return;
        }
        for (slices, head) in [
            (&mut self.fine, self.fine_head),
            (&mut self.coarse, self.coarse_head),
        ] {
            let len = slices.len() as u64;
            let slice = &mut slices[(head % len) as usize];
            slice.count += count;
            slice.sum += sum;
            slice.max = slice.max.max(max);
        }
    }

    fn merged(&self, window: u64) -> HistSlice {
        let (slices, head, width) = if window <= WINDOW_1M {
            (&self.fine, self.fine_head, 1)
        } else {
            (&self.coarse, self.coarse_head, 60)
        };
        let len = slices.len() as u64;
        let buckets = (window / width).clamp(1, len);
        let mut out = HistSlice::default();
        for i in 0..buckets {
            if i > head {
                break;
            }
            let s = slices[((head - i) % len) as usize];
            out.count += s.count;
            out.sum += s.sum;
            out.max = out.max.max(s.max);
        }
        out
    }

    /// Samples in the trailing `window` clock units.
    pub fn count(&self, window: u64) -> u64 {
        self.merged(window).count
    }

    /// Samples per clock unit over the trailing `window`.
    pub fn rate(&self, window: u64) -> f64 {
        self.count(window) as f64 / window.max(1) as f64
    }

    /// Mean sample over the trailing `window` (0 when empty).
    pub fn mean(&self, window: u64) -> f64 {
        let m = self.merged(window);
        if m.count == 0 {
            0.0
        } else {
            m.sum as f64 / m.count as f64
        }
    }

    /// Largest sample in the trailing `window` (0 when empty).
    pub fn max(&self, window: u64) -> u64 {
        self.merged(window).max
    }
}

/// Handle to a tracked counter series in a [`WindowPlane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowId(usize);

/// Handle to a tracked histogram series in a [`WindowPlane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowHistId(usize);

struct TrackedCounter {
    name: String,
    /// When set, [`WindowPlane::advance`] polls this cumulative counter
    /// and records the delta since the last poll — zero hot-path cost.
    source: Option<Arc<Counter>>,
    last: u64,
    windows: WindowedCounter,
}

struct TrackedHistogram {
    name: String,
    windows: WindowedHistogram,
}

#[derive(Default)]
struct PlaneInner {
    now: u64,
    counters: Vec<TrackedCounter>,
    counter_index: BTreeMap<String, usize>,
    histograms: Vec<TrackedHistogram>,
    histogram_index: BTreeMap<String, usize>,
}

/// A named collection of windowed series sharing one caller-driven
/// clock. Create it where the clock lives (the simulator engine, a
/// bench loop), track the counters worth watching, call
/// [`WindowPlane::advance`] once per clock unit, and install it on the
/// [`crate::Obs`] handle so `/metrics` exposes the rates.
#[derive(Default)]
pub struct WindowPlane {
    inner: Mutex<PlaneInner>,
}

impl std::fmt::Debug for WindowPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_unpoisoned(&self.inner);
        f.debug_struct("WindowPlane")
            .field("now", &inner.now)
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl WindowPlane {
    /// An empty plane at clock 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracks a directly-fed counter series (see [`WindowPlane::record`]).
    /// Tracking the same name again returns the existing series.
    pub fn track(&self, name: &str) -> WindowId {
        self.track_inner(name, None)
    }

    /// Tracks a counter series fed by polling `source` on every
    /// [`WindowPlane::advance`]: the delta of the cumulative total since
    /// the last advance lands in the current bucket. The source's
    /// pre-existing total is swallowed at registration, so a plane
    /// attached mid-run starts its windows at zero.
    pub fn track_source(&self, name: &str, source: Arc<Counter>) -> WindowId {
        self.track_inner(name, Some(source))
    }

    fn track_inner(&self, name: &str, source: Option<Arc<Counter>>) -> WindowId {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(&i) = inner.counter_index.get(name) {
            return WindowId(i);
        }
        let last = source.as_ref().map_or(0, |c| c.get());
        let i = inner.counters.len();
        inner.counters.push(TrackedCounter {
            name: name.to_string(),
            source,
            last,
            windows: WindowedCounter::new(),
        });
        inner.counter_index.insert(name.to_string(), i);
        WindowId(i)
    }

    /// Tracks a directly-fed histogram series (see
    /// [`WindowPlane::record_sample`]).
    pub fn track_histogram(&self, name: &str) -> WindowHistId {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(&i) = inner.histogram_index.get(name) {
            return WindowHistId(i);
        }
        let i = inner.histograms.len();
        inner.histograms.push(TrackedHistogram {
            name: name.to_string(),
            windows: WindowedHistogram::new(),
        });
        inner.histogram_index.insert(name.to_string(), i);
        WindowHistId(i)
    }

    /// Advances the shared clock to `now` (monotonic) and polls every
    /// source-backed counter for its delta since the previous advance.
    pub fn advance(&self, now: u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.now = inner.now.max(now);
        let now = inner.now;
        for tracked in &mut inner.counters {
            tracked.windows.advance(now);
            if let Some(source) = &tracked.source {
                let total = source.get();
                let delta = total.saturating_sub(tracked.last);
                tracked.last = total;
                if delta > 0 {
                    tracked.windows.record(delta);
                }
            }
        }
        for tracked in &mut inner.histograms {
            tracked.windows.advance(now);
        }
    }

    /// Adds `n` events to a tracked counter at the current clock.
    pub fn record(&self, id: WindowId, n: u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(tracked) = inner.counters.get_mut(id.0) {
            tracked.windows.record(n);
        }
    }

    /// Records one sample into a tracked histogram at the current clock.
    pub fn record_sample(&self, id: WindowHistId, v: u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(tracked) = inner.histograms.get_mut(id.0) {
            tracked.windows.record(v);
        }
    }

    /// The plane's current clock value.
    pub fn now(&self) -> u64 {
        lock_unpoisoned(&self.inner).now
    }

    /// Events in the trailing `window` for the named counter series.
    pub fn sum(&self, name: &str, window: u64) -> Option<u64> {
        let inner = lock_unpoisoned(&self.inner);
        let &i = inner.counter_index.get(name)?;
        Some(inner.counters[i].windows.sum(window))
    }

    /// Events per clock unit over the trailing `window` for the named
    /// counter series.
    pub fn rate(&self, name: &str, window: u64) -> Option<f64> {
        let inner = lock_unpoisoned(&self.inner);
        let &i = inner.counter_index.get(name)?;
        Some(inner.counters[i].windows.rate(window))
    }

    /// A point-in-time copy of every windowed series, for exposition
    /// (see [`crate::text::render_windows`]).
    pub fn snapshot(&self) -> WindowSnapshot {
        let inner = lock_unpoisoned(&self.inner);
        WindowSnapshot {
            now: inner.now,
            counters: inner
                .counters
                .iter()
                .map(|t| WindowedCounterSnapshot {
                    name: t.name.clone(),
                    rates: WINDOWS.map(|(w, label)| (label, t.windows.rate(w))),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|t| WindowedHistogramSnapshot {
                    name: t.name.clone(),
                    rates: WINDOWS.map(|(w, label)| (label, t.windows.rate(w))),
                    mean_1m: t.windows.mean(WINDOW_1M),
                    max_1m: t.windows.max(WINDOW_1M),
                })
                .collect(),
        }
    }
}

/// Point-in-time rates of one windowed counter series.
#[derive(Debug, Clone)]
pub struct WindowedCounterSnapshot {
    /// The tracked (dotted) metric name.
    pub name: String,
    /// `(window suffix, events per clock unit)` per exposed window.
    pub rates: [(&'static str, f64); WINDOWS.len()],
}

/// Point-in-time rates of one windowed histogram series.
#[derive(Debug, Clone)]
pub struct WindowedHistogramSnapshot {
    /// The tracked (dotted) metric name.
    pub name: String,
    /// `(window suffix, samples per clock unit)` per exposed window.
    pub rates: [(&'static str, f64); WINDOWS.len()],
    /// Mean sample over the last minute.
    pub mean_1m: f64,
    /// Largest sample in the last minute.
    pub max_1m: u64,
}

/// Point-in-time copy of a [`WindowPlane`].
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// The plane's clock when the snapshot was taken.
    pub now: u64,
    /// One entry per tracked counter series.
    pub counters: Vec<WindowedCounterSnapshot>,
    /// One entry per tracked histogram series.
    pub histograms: Vec<WindowedHistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_counter_forgets_old_events() {
        let mut w = WindowedCounter::new();
        w.advance(10);
        w.record(100);
        assert_eq!(w.sum(WINDOW_5S), 100);
        assert_eq!(w.sum(WINDOW_1M), 100);
        // 5 units later the event left the 5 s window but not the 1 m.
        w.advance(15);
        assert_eq!(w.sum(WINDOW_5S), 0);
        assert_eq!(w.sum(WINDOW_1M), 100);
        // 60 units later it left the 1 m window but not the 1 h.
        w.advance(70);
        assert_eq!(w.sum(WINDOW_1M), 0);
        assert_eq!(w.sum(WINDOW_1H), 100);
        // And after an hour it is gone entirely.
        w.advance(10 + 3600);
        assert_eq!(w.sum(WINDOW_1H), 0);
    }

    #[test]
    fn rates_divide_by_window_length() {
        let mut w = WindowedCounter::new();
        for t in 1..=60 {
            w.advance(t);
            w.record(2);
        }
        assert_eq!(w.sum(WINDOW_1M), 120);
        assert!((w.rate(WINDOW_1M) - 2.0).abs() < 1e-12);
        assert!((w.rate(WINDOW_5S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advancing_past_a_full_lap_clears_everything() {
        let mut w = WindowedCounter::new();
        w.advance(1);
        w.record(50);
        w.advance(1_000_000);
        assert_eq!(w.sum(WINDOW_1H), 0);
        w.record(7);
        assert_eq!(w.sum(WINDOW_5S), 7);
    }

    #[test]
    fn time_never_runs_backwards() {
        let mut w = WindowedCounter::new();
        w.advance(100);
        w.record(3);
        w.advance(50); // ignored
        assert_eq!(w.sum(WINDOW_5S), 3);
    }

    #[test]
    fn windowed_histogram_tracks_rate_mean_max() {
        let mut h = WindowedHistogram::new();
        h.advance(1);
        h.record(10);
        h.record(30);
        assert_eq!(h.count(WINDOW_1M), 2);
        assert!((h.mean(WINDOW_1M) - 20.0).abs() < 1e-12);
        assert_eq!(h.max(WINDOW_1M), 30);
        // The max decays out of the window with its bucket.
        h.advance(62);
        assert_eq!(h.count(WINDOW_1M), 0);
        assert_eq!(h.max(WINDOW_1M), 0);
        assert_eq!(h.count(WINDOW_1H), 2);
        assert_eq!(h.max(WINDOW_1H), 30);
    }

    #[test]
    fn plane_polls_counter_sources_for_deltas() {
        let plane = WindowPlane::new();
        let counter = Arc::new(Counter::default());
        counter.add(1000); // pre-existing total must not spike the window
        plane.track_source("sim.refresh", counter.clone());
        plane.advance(1);
        assert_eq!(plane.sum("sim.refresh", WINDOW_1M), Some(0));
        counter.add(25);
        plane.advance(2);
        assert_eq!(plane.sum("sim.refresh", WINDOW_1M), Some(25));
        assert_eq!(plane.sum("sim.refresh", WINDOW_5S), Some(25));
        // The delta is only counted once.
        plane.advance(3);
        assert_eq!(plane.sum("sim.refresh", WINDOW_1M), Some(25));
        // And it ages out of the 5 s window.
        plane.advance(8);
        assert_eq!(plane.sum("sim.refresh", WINDOW_5S), Some(0));
    }

    #[test]
    fn plane_direct_recording_and_snapshot() {
        let plane = WindowPlane::new();
        let id = plane.track("ticks");
        let hid = plane.track_histogram("batch_ns");
        plane.advance(5);
        plane.record(id, 10);
        plane.record_sample(hid, 500);
        let snap = plane.snapshot();
        assert_eq!(snap.now, 5);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].name, "ticks");
        let rate_5s = snap.counters[0].rates[0];
        assert_eq!(rate_5s.0, "5s");
        assert!((rate_5s.1 - 2.0).abs() < 1e-12);
        assert_eq!(snap.histograms[0].max_1m, 500);
        // Unknown names answer None, not panic.
        assert_eq!(plane.rate("nope", WINDOW_1M), None);
    }

    #[test]
    fn tracking_same_name_twice_returns_same_series() {
        let plane = WindowPlane::new();
        let a = plane.track("x");
        let b = plane.track("x");
        assert_eq!(a, b);
        plane.record(a, 1);
        plane.record(b, 1);
        assert_eq!(plane.sum("x", WINDOW_5S), Some(2));
    }
}
