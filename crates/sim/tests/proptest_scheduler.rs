//! Property tests for the timer-wheel scheduler.
//!
//! The wheel's contract is *exactness*, not mere approximate ordering:
//! for any interleaving of pushes and pops it must emit the identical
//! event stream as a binary heap keyed by `(time, push order)`. That
//! heap — the engine's queue before the wheel replaced it — lives on
//! here as the reference model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use pq_sim::{Event, TimerWheel};

#[derive(Debug)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert to pop the earliest event;
        // FIFO tiebreak on the sequence number.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The reference model: a binary-heap event queue (earliest first; FIFO
/// among equal times) with the wheel's API.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, time: f64, event: Event) {
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    fn pop_until(&mut self, horizon: f64) -> Option<(f64, Event)> {
        if self.heap.peek().is_some_and(|s| s.time <= horizon) {
            self.heap.pop().map(|s| (s.time, s.event))
        } else {
            None
        }
    }

    fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

fn refresh(item: usize) -> Event {
    Event::RefreshArrive { item, value: 0.0 }
}

/// The reference model's own contract: time order, FIFO within a time.
#[test]
fn reference_heap_pops_in_time_then_push_order() {
    let mut q = EventQueue::default();
    let times = [5.0, 5.0, 2.0, 5.0, 2.0, 9.5, 2.0, 9.5, 5.0, 0.0];
    for (i, &t) in times.iter().enumerate() {
        q.push(t, refresh(i));
    }
    assert_eq!(q.peek_time(), Some(0.0));
    assert!(q.pop_until(-1.0).is_none());
    let order: Vec<usize> = std::iter::from_fn(|| q.pop_until(f64::INFINITY))
        .map(|(_, e)| match e {
            Event::RefreshArrive { item, .. } => item,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(order, vec![9, 2, 4, 6, 0, 1, 3, 8, 5, 7]);
}

/// The engine's access pattern, tick by tick: sources push arrivals at
/// `tick + delay`, the coordinator drains everything due by the tick,
/// and handling a popped event schedules follow-ups — at the very
/// instant being drained under zero delays (a DAB change applied at
/// once), later under heavy-tailed ones. Both queues must pop the same
/// stream, peeked times included.
#[test]
fn wheel_matches_heap_on_the_engines_push_and_drain_pattern() {
    for zero_delay in [true, false] {
        let mut heap = EventQueue::default();
        let mut wheel = TimerWheel::new();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Pareto-like: mostly a fraction of a tick, now and then many.
        let delay = |r: u64| {
            if zero_delay {
                0.0
            } else {
                let u = ((r >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                0.05 * u.powf(-0.8)
            }
        };
        let mut next_id = 0usize;
        let mut popped = 0usize;
        for tick in 1..400 {
            let now = tick as f64;
            for _ in 0..next() % 6 {
                let at = now + delay(next());
                heap.push(at, refresh(next_id));
                wheel.push(at, refresh(next_id));
                next_id += 1;
            }
            loop {
                assert_eq!(heap.peek_time(), wheel.peek_time(), "tick {tick}");
                let h = heap.pop_until(now);
                assert_eq!(h, wheel.pop_until(now), "tick {tick}");
                let Some((t, _)) = h else { break };
                popped += 1;
                // One pop in three answers with a follow-up message.
                if next() % 3 == 0 {
                    let at = t + delay(next());
                    let event = Event::DabChangeArrive {
                        item: next_id,
                        dab: at,
                    };
                    heap.push(at, event.clone());
                    wheel.push(at, event);
                    next_id += 1;
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        assert!(popped > 500, "the pattern must carry traffic: {popped}");
    }
}

/// One step of an adversarial queue workload.
#[derive(Debug, Clone)]
enum Op {
    /// Push an event `offset` seconds after the last popped time.
    Push(f64),
    /// Pop the earliest event (if any).
    Pop,
}

/// Offsets mixing exact quantum-aligned collisions (multiples of the
/// wheel's 1/64 s quantum, including zero), arbitrary sub-quantum floats,
/// and far-future jumps that land in higher levels or the overflow list.
fn offset_from(kind: u32, k: u32, f: f64) -> f64 {
    match kind % 13 {
        0..=3 => 0.0,
        4..=7 => k as f64 / 64.0,
        8..=11 => f * 30.0,
        _ => 1_000.0 + f * 399_000.0,
    }
}

/// Push about 3/5 of the time, pop the rest; pushes draw from
/// [`offset_from`]'s mixture.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u32..5, 0u32..13, 0u32..512, 0.0f64..1.0).prop_map(|(op, kind, k, f)| {
            if op < 3 {
                Op::Push(offset_from(kind, k, f))
            } else {
                Op::Pop
            }
        }),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wheel pops the identical `(time, event)` stream as the heap
    /// for any interleaving of pushes and pops.
    #[test]
    fn wheel_and_heap_pop_identical_streams(ops in arb_ops()) {
        let mut heap = EventQueue::default();
        let mut wheel = TimerWheel::new();
        let mut now = 0.0_f64;
        let mut next_id = 0usize;
        for op in &ops {
            match *op {
                Op::Push(offset) => {
                    let time = now + offset;
                    let ev = Event::RefreshArrive { item: next_id, value: time };
                    next_id += 1;
                    heap.push(time, ev.clone());
                    wheel.push(time, ev);
                }
                Op::Pop => {
                    let h = heap.pop_until(f64::INFINITY);
                    let w = wheel.pop_until(f64::INFINITY);
                    prop_assert_eq!(&h, &w);
                    if let Some((t, _)) = h {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(heap.len(), wheel.len());
        }
        // Drain whatever is left; the tails must match event for event.
        loop {
            let h = heap.pop_until(f64::INFINITY);
            let w = wheel.pop_until(f64::INFINITY);
            prop_assert_eq!(&h, &w);
            if h.is_none() {
                break;
            }
        }
    }

    /// The wheel agrees with the heap on `peek_time` as well as the
    /// popped stream under a bounded-horizon drain (the engine's access
    /// pattern: peek, then pop everything up to the next tick).
    #[test]
    fn wheel_agrees_under_horizon_drains(ops in arb_ops(), horizon_step in 0.25f64..8.0) {
        let mut heap = EventQueue::default();
        let mut wheel = TimerWheel::new();
        let mut now = 0.0_f64;
        let mut next_id = 0usize;
        for op in &ops {
            match *op {
                Op::Push(offset) => {
                    let time = now + offset;
                    let ev = Event::RefreshArrive { item: next_id, value: time };
                    next_id += 1;
                    heap.push(time, ev.clone());
                    wheel.push(time, ev);
                }
                Op::Pop => {
                    prop_assert_eq!(heap.peek_time(), wheel.peek_time());
                    let horizon = now + horizon_step;
                    while let Some((t, ev)) = heap.pop_until(horizon) {
                        prop_assert_eq!(wheel.pop_until(horizon), Some((t, ev)));
                    }
                    prop_assert_eq!(wheel.pop_until(horizon), None);
                    now = horizon;
                }
            }
        }
    }
}
