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
//! * [`WindowPlane`] — named windowed series, each polling a registry
//!   [`Counter`] for its delta on every [`WindowPlane::advance`].
//!   Install the plane on an [`crate::Obs`] handle and `/metrics`
//!   exposes each tracked series as `pq_<name>_rate_5s` / `_rate_1m` /
//!   `_rate_1h` gauges.
//!
//! The plane is registered once per run and touched once per tick; the
//! hot path keeps recording through its pre-resolved counter handles.
//! That is what keeps the windowed plane inside its 3 % overhead
//! ceiling (`tests/overhead.rs`).

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

struct TrackedCounter {
    name: String,
    /// The cumulative counter [`WindowPlane::advance`] polls; the delta
    /// since the last poll lands in the current bucket — zero hot-path
    /// cost.
    source: Arc<Counter>,
    last: u64,
    windows: WindowedCounter,
}

#[derive(Default)]
struct PlaneInner {
    now: u64,
    counters: Vec<TrackedCounter>,
    counter_index: BTreeMap<String, usize>,
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
            .finish()
    }
}

impl WindowPlane {
    /// An empty plane at clock 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracks a counter series fed by polling `source` on every
    /// [`WindowPlane::advance`]: the delta of the cumulative total since
    /// the last advance lands in the current bucket. The source's
    /// pre-existing total is swallowed at registration, so a plane
    /// attached mid-run starts its windows at zero. Tracking a name
    /// again keeps the first series.
    pub fn track_source(&self, name: &str, source: Arc<Counter>) {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.counter_index.contains_key(name) {
            return;
        }
        let i = inner.counters.len();
        inner.counters.push(TrackedCounter {
            name: name.to_string(),
            last: source.get(),
            source,
            windows: WindowedCounter::new(),
        });
        inner.counter_index.insert(name.to_string(), i);
    }

    /// Advances the shared clock to `now` (monotonic) and polls every
    /// tracked counter for its delta since the previous advance.
    pub fn advance(&self, now: u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.now = inner.now.max(now);
        let now = inner.now;
        for tracked in &mut inner.counters {
            tracked.windows.advance(now);
            let total = tracked.source.get();
            let delta = total.saturating_sub(tracked.last);
            tracked.last = total;
            if delta > 0 {
                tracked.windows.record(delta);
            }
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

/// Point-in-time copy of a [`WindowPlane`].
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// The plane's clock when the snapshot was taken.
    pub now: u64,
    /// One entry per tracked counter series.
    pub counters: Vec<WindowedCounterSnapshot>,
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
    fn plane_snapshot_and_repeat_tracking() {
        let plane = WindowPlane::new();
        let (ticks, other) = (Arc::new(Counter::default()), Arc::new(Counter::default()));
        plane.track_source("ticks", ticks.clone());
        // A second series under the same name is ignored, not summed.
        plane.track_source("ticks", other.clone());
        ticks.add(10);
        other.add(99);
        plane.advance(5);
        let snap = plane.snapshot();
        assert_eq!(snap.now, 5);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].name, "ticks");
        let rate_5s = snap.counters[0].rates[0];
        assert_eq!(rate_5s.0, "5s");
        assert!((rate_5s.1 - 2.0).abs() < 1e-12);
        // Unknown names answer None, not panic.
        assert_eq!(plane.rate("nope", WINDOW_1M), None);
    }
}
