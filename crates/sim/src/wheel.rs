//! Hierarchical timer wheel — the engine's event queue, O(1) amortized
//! scheduling.
//!
//! A binary heap pays `O(log n)` per push/pop with `n` events in
//! flight; at production scale (millions of items pushing refreshes)
//! that churn dominates the simulator hot loop. A hierarchical timer
//! wheel files each event into a time bucket in O(1) and drains buckets
//! in time order, paying a small sort only when a bucket is opened.
//!
//! # Exactness contract
//!
//! [`TimerWheel`] is **order-identical** to a binary heap keyed by
//! `(time, seq)`, not merely approximately so: events pop in ascending
//! `(time, seq)` order, where `seq` is the monotonic push counter. Two
//! facts make this work:
//!
//! 1. Bucketing is *floor* quantization (`q = ⌊time·64⌋`), which is
//!    monotone: `t1 < t2` implies `q1 <= q2`, so draining buckets in
//!    index order never pops a later event before an earlier one.
//! 2. When a bucket is opened its entries are sorted by `(time, seq)`,
//!    and events pushed *into the bucket currently being drained* (a
//!    zero-delay push at the current instant) are merge-inserted at
//!    their sorted position.
//!
//! The heap survives as the reference model of
//! `tests/proptest_scheduler.rs`, which holds the wheel to its pop
//! stream under random interleavings and under the engine's own
//! push/drain pattern.
//!
//! # Layout
//!
//! Four levels of 64 slots at a resolution of 1/64 s cover ~2^24
//! quanta (~3 days of simulated time); farther events wait in an
//! overflow list that is re-filed (a *cascade*) when the wheel advances
//! into their span. Each level-`l` slot spans `64^l` quanta; advancing
//! past a level's window re-files its next occupied slot into finer
//! buckets, also counted as a cascade (see [`TimerWheel::cascades`],
//! exported as the `sched.cascade` counter).

use crate::event::Event;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const LEVELS: usize = 4;
/// Wheel resolution: quanta per simulated second.
const QUANTA_PER_SEC: f64 = 64.0;

#[inline]
fn quantum(time: f64) -> u64 {
    // Floor for non-negative input (push asserts time >= 0), saturating
    // far beyond the wheel span for pathological times.
    (time * QUANTA_PER_SEC) as u64
}

#[derive(Debug, Clone)]
struct WheelEntry {
    time: f64,
    seq: u64,
    event: Event,
}

#[inline]
fn entry_before(a: &WheelEntry, time: f64, seq: u64) -> bool {
    match a.time.total_cmp(&time) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => a.seq < seq,
        std::cmp::Ordering::Greater => false,
    }
}

/// A time-ordered event queue (earliest first; FIFO among equal times)
/// — see the module docs for the exactness argument.
#[derive(Debug)]
pub struct TimerWheel {
    /// `levels[l][s]`: unsorted bucket for the level-`l` slot `s`.
    levels: Vec<Vec<Vec<WheelEntry>>>,
    /// Events beyond the wheel span, re-filed on cascade.
    overflow: Vec<WheelEntry>,
    /// The quantum currently being drained; `ready` holds its events.
    cur: u64,
    /// Sorted (by `(time, seq)`) events of quantum `cur`; drained from
    /// `ready_pos` so already-popped entries are not shifted out.
    ready: Vec<WheelEntry>,
    ready_pos: usize,
    seq: u64,
    len: usize,
    cascades: u64,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel positioned at time 0.
    pub fn new() -> Self {
        TimerWheel {
            levels: vec![vec![Vec::new(); SLOTS]; LEVELS],
            overflow: Vec::new(),
            cur: 0,
            ready: Vec::new(),
            ready_pos: 0,
            seq: 0,
            len: 0,
            cascades: 0,
        }
    }

    /// Schedules `event` at absolute `time` — O(1).
    pub fn push(&mut self, time: f64, event: Event) {
        debug_assert!(time.is_finite() && time >= 0.0);
        let entry = WheelEntry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.len += 1;
        self.file(entry);
    }

    /// Files one entry into the ready run, a wheel slot, or overflow.
    fn file(&mut self, entry: WheelEntry) {
        let q = quantum(entry.time);
        if q <= self.cur {
            // The quantum currently being drained (e.g. a zero-delay
            // push at the current instant): merge-insert so the ready
            // run stays sorted by (time, seq).
            let at = self.ready_pos
                + self.ready[self.ready_pos..]
                    .partition_point(|e| entry_before(e, entry.time, entry.seq));
            self.ready.insert(at, entry);
            return;
        }
        for l in 0..LEVELS {
            let window = SLOT_BITS * (l as u32 + 1);
            if q >> window == self.cur >> window {
                let slot = ((q >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
                self.levels[l][slot].push(entry);
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Advances `cur` to the next occupied quantum and loads its sorted
    /// bucket into `ready`. Requires `len > 0` and an exhausted ready
    /// run.
    fn advance(&mut self) {
        debug_assert!(self.len > 0);
        debug_assert!(self.ready_pos >= self.ready.len());
        self.ready.clear();
        self.ready_pos = 0;
        'search: loop {
            // Level 0: remaining quanta of the current 64-quantum window.
            let base = self.cur & !(SLOTS as u64 - 1);
            let start = (self.cur & (SLOTS as u64 - 1)) as usize;
            for s in start + 1..SLOTS {
                if !self.levels[0][s].is_empty() {
                    self.cur = base + s as u64;
                    std::mem::swap(&mut self.ready, &mut self.levels[0][s]);
                    break 'search;
                }
            }
            // Cascade: re-file the next occupied coarser slot into finer
            // buckets (entries at the slot's first quantum land directly
            // in `ready` via `file`).
            for l in 1..LEVELS {
                let lshift = SLOT_BITS * l as u32;
                let wshift = lshift + SLOT_BITS;
                let wbase = (self.cur >> wshift) << wshift;
                let lstart = ((self.cur >> lshift) & (SLOTS as u64 - 1)) as usize;
                for s in lstart + 1..SLOTS {
                    if self.levels[l][s].is_empty() {
                        continue;
                    }
                    self.cur = wbase + ((s as u64) << lshift);
                    let entries = std::mem::take(&mut self.levels[l][s]);
                    self.cascades += 1;
                    for e in entries {
                        self.file(e);
                    }
                    if self.ready.is_empty() {
                        continue 'search;
                    }
                    break 'search;
                }
            }
            // The whole wheel span is empty: jump to the earliest
            // overflow quantum and re-file.
            debug_assert!(!self.overflow.is_empty(), "len > 0 but nothing scheduled");
            self.cur = self
                .overflow
                .iter()
                .map(|e| quantum(e.time))
                .min()
                .expect("overflow non-empty");
            self.cascades += 1;
            let entries = std::mem::take(&mut self.overflow);
            for e in entries {
                self.file(e);
            }
            debug_assert!(!self.ready.is_empty());
            break 'search;
        }
        self.ready[self.ready_pos..]
            .sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
    }

    /// The time of the earliest pending event, if any. Takes `&mut self`
    /// because peeking may open the next bucket (no event is lost).
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.ready_pos >= self.ready.len() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        Some(self.ready[self.ready_pos].time)
    }

    /// Pops the next event if it occurs at or before `horizon`.
    pub fn pop_until(&mut self, horizon: f64) -> Option<(f64, Event)> {
        let t = self.peek_time()?;
        if t > horizon {
            return None;
        }
        let entry = self.ready[self.ready_pos].clone();
        self.ready_pos += 1;
        self.len -= 1;
        if self.ready_pos >= self.ready.len() {
            self.ready.clear();
            self.ready_pos = 0;
        }
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cascades performed so far: coarse slots or the overflow list
    /// re-filed into finer buckets (the `sched.cascade` counter).
    pub fn cascades(&self) -> u64 {
        self.cascades
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh(item: usize) -> Event {
        Event::RefreshArrive { item, value: 0.0 }
    }

    fn drain(w: &mut TimerWheel) -> Vec<(f64, usize)> {
        std::iter::from_fn(|| w.pop_until(f64::INFINITY))
            .map(|(t, e)| match e {
                Event::RefreshArrive { item, .. } => (t, item),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.push(3.0, refresh(3));
        w.push(1.0, refresh(1));
        w.push(2.0, refresh(2));
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_is_fifo() {
        // Pushes carry their push index as the item id; times repeat
        // within ticks and arrive out of time order.
        let mut w = TimerWheel::new();
        let times = [5.0, 5.0, 2.0, 5.0, 2.0, 9.5, 2.0, 9.5, 5.0, 0.0];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, refresh(i));
        }
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![9, 2, 4, 6, 0, 1, 3, 8, 5, 7]);
    }

    #[test]
    fn sub_quantum_times_sort_exactly() {
        // Times closer together than the 1/64 s resolution share a
        // bucket; the sorted drain must still order them by time.
        let mut w = TimerWheel::new();
        w.push(1.010, refresh(2));
        w.push(1.002, refresh(1));
        w.push(1.013, refresh(3));
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn horizon_is_respected() {
        let mut w = TimerWheel::new();
        w.push(1.0, refresh(1));
        w.push(5.0, refresh(5));
        assert!(w.pop_until(2.0).is_some());
        assert!(w.pop_until(2.0).is_none());
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert!(w.pop_until(5.0).is_some());
    }

    #[test]
    fn peek_time_sees_the_earliest_event() {
        let mut w = TimerWheel::new();
        assert_eq!(w.peek_time(), None);
        w.push(5.0, refresh(5));
        w.push(1.0, refresh(1));
        assert_eq!(w.peek_time(), Some(1.0));
        w.pop_until(10.0);
        assert_eq!(w.peek_time(), Some(5.0));
    }

    #[test]
    fn push_into_currently_drained_bucket_keeps_order() {
        // Pop at t, then push more events at the same instant (what a
        // zero-delay recompute does): they must pop after the already
        // scheduled same-time events, in push order.
        let mut w = TimerWheel::new();
        w.push(1.0, refresh(0));
        w.push(1.0, refresh(1));
        assert_eq!(w.pop_until(1.0).map(|(_, e)| e), Some(refresh(0)));
        w.push(1.0, refresh(2));
        w.push(1.0001, refresh(3));
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cascade_across_level_boundaries_is_lossless() {
        // Events spread far beyond one level-0 window (64 quanta = 1 s):
        // spanning minutes forces level-1/2 cascades.
        let mut w = TimerWheel::new();
        let times: Vec<f64> = (0..200).map(|k| (k as f64) * 37.21).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            w.push(t, refresh(i));
        }
        let popped = drain(&mut w);
        assert_eq!(popped.len(), times.len());
        let items: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
        assert_eq!(items, (0..200).collect::<Vec<_>>());
        assert!(w.cascades() > 0, "spanning minutes must cascade");
    }

    #[test]
    fn far_future_events_wait_in_overflow() {
        // Beyond the 4-level span (64^4 quanta = 262144 s) events sit in
        // the overflow bucket and are re-filed when the wheel arrives.
        let mut w = TimerWheel::new();
        w.push(300_000.0, refresh(9));
        w.push(1.0, refresh(0));
        w.push(300_000.5, refresh(10));
        let popped = drain(&mut w);
        assert_eq!(
            popped,
            vec![(1.0, 0), (300_000.0, 9), (300_000.5, 10)],
            "overflow events pop last, in time order"
        );
        assert!(w.cascades() > 0, "overflow re-file counts as a cascade");
    }
}
