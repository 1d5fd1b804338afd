//! The engine's event queue: a binary heap popping in ascending
//! `(time, seq)` order, `seq` being the push counter (earliest first,
//! FIFO among equal times). Every pop, per-item draw and fixed-seed
//! number depends on that order; `tests/proptest_scheduler.rs` holds the
//! queue to an independent model of it. Only messages in flight are
//! queued (tens to a few hundred under the paper's delays), so a push or
//! pop is a handful of comparisons.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::Event;

#[derive(Debug)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` pops the greatest, we want the least.
        let by_time = other.time.total_cmp(&self.time);
        by_time.then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// A time-ordered event queue (earliest first; FIFO among equal times).
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl TimerWheel {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute `time`.
    pub fn push(&mut self, time: f64, event: Event) {
        debug_assert!(time.is_finite() && time >= 0.0);
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the next event if it occurs at or before `horizon`.
    pub fn pop_until(&mut self, horizon: f64) -> Option<(f64, Event)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        // Times milliseconds apart still pop in time order.
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
        // Events spread over two hours, pushed latest first.
        let mut w = TimerWheel::new();
        let times: Vec<f64> = (0..200).map(|k| (k as f64) * 37.21).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            w.push(t, refresh(i));
        }
        let popped = drain(&mut w);
        assert_eq!(popped.len(), times.len());
        let items: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
        assert_eq!(items, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_wait_in_overflow() {
        // Events days ahead pop after the near ones, in time order.
        let mut w = TimerWheel::new();
        w.push(300_000.0, refresh(9));
        w.push(1.0, refresh(0));
        w.push(300_000.5, refresh(10));
        let popped = drain(&mut w);
        assert_eq!(
            popped,
            vec![(1.0, 0), (300_000.0, 9), (300_000.5, 10)],
            "far-future events pop last, in time order"
        );
    }
}
