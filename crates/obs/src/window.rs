//! Sliding-window counts over an explicit **caller-driven clock**, the
//! windows the SLO engine's burn rates are taken over
//! ([`crate::slo`]). The simulator advances the clock once per tick, so
//! windowed sums are deterministic on a fixed seed and tests never
//! sleep. One clock unit is one simulated second (one tick).
//!
//! [`WindowedCounter`] counts events over the last 5 s / 1 m / 1 h,
//! backed by two rings (sixty 1-unit buckets and sixty 60-unit
//! buckets), so memory per series is constant and advancing the clock
//! is O(elapsed buckets), not O(events).

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
    fn sums_cover_exactly_the_window() {
        let mut w = WindowedCounter::new();
        for t in 1..=60 {
            w.advance(t);
            w.record(2);
        }
        assert_eq!(w.sum(WINDOW_1M), 120);
        assert_eq!(w.sum(WINDOW_5S), 10);
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
}
