//! Hierarchical timer wheel — O(1) amortized event scheduling.
//!
//! The binary-heap [`EventQueue`] pays `O(log n)` per push/pop with `n`
//! events in flight; at production scale (millions of items pushing
//! refreshes) the heap churn dominates the simulator hot loop. A
//! hierarchical timer wheel files each event into a time bucket in O(1)
//! and drains buckets in time order, paying a small sort only when a
//! bucket is opened.
//!
//! # Exactness contract
//!
//! [`TimerWheel`] is **order-identical** to the heap, not merely
//! approximately so: events pop in ascending `(time, seq)` order, where
//! `seq` is the monotonic push counter — the exact total order
//! [`EventQueue`] produces. Two facts make this work:
//!
//! 1. Bucketing is *floor* quantization (`q = ⌊time·64⌋`), which is
//!    monotone: `t1 < t2` implies `q1 <= q2`, so draining buckets in
//!    index order never pops a later event before an earlier one.
//! 2. When a bucket is opened its entries are sorted by `(time, seq)`,
//!    and events pushed *into the bucket currently being drained* (a
//!    zero-delay push at the current instant) are merge-inserted at
//!    their sorted position.
//!
//! Consequently every [`crate::SimMetrics`] field of a fixed-seed run is
//! byte-identical under [`Scheduler::Heap`] and [`Scheduler::Wheel`] —
//! enforced by the cross-scheduler proptest and
//! `engine::tests::wheel_scheduler_matches_heap_exactly`.
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

use crate::event::{Event, EventQueue};

/// Which backend schedules the simulator's events.
///
/// Both produce byte-identical simulations on a fixed seed; the wheel is
/// the scale-out choice once many events are in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The binary-heap [`EventQueue`] (`O(log n)` push/pop) — the
    /// reference implementation and the default.
    #[default]
    Heap,
    /// The hierarchical [`TimerWheel`] (`O(1)` amortized push/pop).
    Wheel,
}

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

/// A hierarchical timer wheel with the same API and the same total event
/// order as [`EventQueue`] — see the module docs for the exactness
/// argument.
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

/// The engine's event queue, dispatching on the configured
/// [`Scheduler`]. Both backends expose the identical contract: pops
/// ascend in `(time, push-order)` and are byte-identical between
/// backends.
#[derive(Debug)]
pub enum SimQueue {
    /// Binary-heap backend ([`EventQueue`]).
    Heap(EventQueue),
    /// Timer-wheel backend ([`TimerWheel`]).
    Wheel(TimerWheel),
}

impl SimQueue {
    /// An empty queue for the given scheduler.
    pub fn new(scheduler: Scheduler) -> Self {
        match scheduler {
            Scheduler::Heap => SimQueue::Heap(EventQueue::new()),
            Scheduler::Wheel => SimQueue::Wheel(TimerWheel::new()),
        }
    }

    /// Schedules `event` at absolute `time`.
    #[inline]
    pub fn push(&mut self, time: f64, event: Event) {
        match self {
            SimQueue::Heap(q) => q.push(time, event),
            SimQueue::Wheel(w) => w.push(time, event),
        }
    }

    /// Pops the next event if it occurs at or before `horizon`.
    #[inline]
    pub fn pop_until(&mut self, horizon: f64) -> Option<(f64, Event)> {
        match self {
            SimQueue::Heap(q) => q.pop_until(horizon),
            SimQueue::Wheel(w) => w.pop_until(horizon),
        }
    }

    /// The time of the earliest pending event, if any (`&mut` because
    /// the wheel may open its next bucket; no event is lost).
    #[inline]
    pub fn peek_time(&mut self) -> Option<f64> {
        match self {
            SimQueue::Heap(q) => q.peek_time(),
            SimQueue::Wheel(w) => w.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            SimQueue::Heap(q) => q.len(),
            SimQueue::Wheel(w) => w.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timer-wheel cascades so far (0 for the heap backend).
    pub fn cascades(&self) -> u64 {
        match self {
            SimQueue::Heap(_) => 0,
            SimQueue::Wheel(w) => w.cascades(),
        }
    }
}

/// Shared scheduler-contract check: events pushed at equal times must
/// pop in push (FIFO) order, interleaved correctly with other times.
///
/// Used by both the heap tests (`event.rs`) and the wheel tests so the
/// two backends are held to the same ordering contract by the same
/// code.
#[cfg(test)]
pub(crate) fn assert_fifo_within_tick(queue: &mut SimQueue) {
    assert!(queue.is_empty(), "helper expects an empty queue");
    // Pushes carry their global push index as the item id; times repeat
    // within ticks and arrive out of time order.
    let times = [5.0, 5.0, 2.0, 5.0, 2.0, 9.5, 2.0, 9.5, 5.0, 0.0];
    for (i, &t) in times.iter().enumerate() {
        queue.push(
            t,
            Event::RefreshArrive {
                item: i,
                value: 0.0,
            },
        );
    }
    let mut popped: Vec<(f64, usize)> = Vec::new();
    while let Some((t, e)) = queue.pop_until(f64::INFINITY) {
        match e {
            Event::RefreshArrive { item, .. } => popped.push((t, item)),
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(popped.len(), times.len());
    for w in popped.windows(2) {
        let ((t0, i0), (t1, i1)) = (w[0], w[1]);
        assert!(t0 <= t1, "time order violated: {t0} after {t1}");
        if t0 == t1 {
            assert!(i0 < i1, "FIFO violated within tick {t0}: {i0} before {i1}");
        }
    }
    // And the exact expected order, for good measure.
    let order: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
    assert_eq!(order, vec![9, 2, 4, 6, 0, 1, 3, 8, 5, 7]);
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
        assert_fifo_within_tick(&mut SimQueue::new(Scheduler::Wheel));
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

    #[test]
    fn matches_heap_order_on_adversarial_interleaving() {
        // Deterministic pseudo-random pushes and pops, mirrored against
        // the heap: the pop streams must be identical, including times.
        let mut heap = SimQueue::new(Scheduler::Heap);
        let mut wheel = SimQueue::new(Scheduler::Wheel);
        let mut state = 0x9E3779B97F4A7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut clock = 0.0_f64;
        for i in 0..3000 {
            let r = next();
            if r % 5 < 3 {
                // Push at clock + pseudo-random delay; ~1/4 land on the
                // exact current instant to exercise same-bucket merges.
                let delay = if r % 4 == 0 {
                    0.0
                } else {
                    ((r >> 8) % 10_000) as f64 / 61.0
                };
                heap.push(clock + delay, refresh(i));
                wheel.push(clock + delay, refresh(i));
            } else {
                let h = heap.pop_until(f64::INFINITY);
                let w = wheel.pop_until(f64::INFINITY);
                assert_eq!(h, w, "pop #{i} diverged");
                if let Some((t, _)) = h {
                    clock = clock.max(t);
                }
            }
        }
        loop {
            let h = heap.pop_until(f64::INFINITY);
            let w = wheel.pop_until(f64::INFINITY);
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }
}
