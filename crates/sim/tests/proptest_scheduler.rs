//! Property tests for the simulator's event queue.
//!
//! The queue's contract is *exactness*: for any interleaving of pushes
//! and pops it emits events in ascending `(time, push order)`. The model
//! here states that contract as directly as possible — a `Vec` scanned
//! for the least `(time, seq)` on every pop — so it shares no code or
//! data structure with the binary heap under test.

use proptest::prelude::*;

use pq_sim::{Event, TimerWheel};

/// The reference model: pending `(time, seq, event)` entries in push
/// order; a pop removes the least `(time, seq)`.
#[derive(Debug, Default)]
struct Model {
    pending: Vec<(f64, u64, Event)>,
    seq: u64,
}

impl Model {
    fn push(&mut self, time: f64, event: Event) {
        self.pending.push((time, self.seq, event));
        self.seq += 1;
    }

    /// Index of the least `(time, seq)` entry.
    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = &self.pending[a];
            let (tb, sb, _) = &self.pending[b];
            ta.total_cmp(tb).then(sa.cmp(sb))
        })
    }

    fn pop_until(&mut self, horizon: f64) -> Option<(f64, Event)> {
        let i = self.earliest().filter(|&i| self.pending[i].0 <= horizon)?;
        let (time, _, event) = self.pending.remove(i);
        Some((time, event))
    }

    fn peek_time(&self) -> Option<f64> {
        self.earliest().map(|i| self.pending[i].0)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

fn refresh(item: usize) -> Event {
    Event::RefreshArrive { item, value: 0.0 }
}

/// The reference model's own contract: time order, FIFO within a time.
#[test]
fn reference_model_pops_in_time_then_push_order() {
    let mut q = Model::default();
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
/// once), later under heavy-tailed ones. Queue and model must pop the
/// same stream, peeked times included.
#[test]
fn queue_matches_model_on_the_engines_push_and_drain_pattern() {
    for zero_delay in [true, false] {
        let mut model = Model::default();
        let mut queue = TimerWheel::new();
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
                model.push(at, refresh(next_id));
                queue.push(at, refresh(next_id));
                next_id += 1;
            }
            loop {
                assert_eq!(model.peek_time(), queue.peek_time(), "tick {tick}");
                let m = model.pop_until(now);
                assert_eq!(m, queue.pop_until(now), "tick {tick}");
                let Some((t, _)) = m else { break };
                popped += 1;
                // One pop in three answers with a follow-up message.
                if next() % 3 == 0 {
                    let at = t + delay(next());
                    let event = Event::DabChangeArrive {
                        item: next_id,
                        dab: at,
                    };
                    model.push(at, event.clone());
                    queue.push(at, event);
                    next_id += 1;
                }
            }
            assert_eq!(model.len(), queue.len());
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

/// Offsets mixing exact collisions (zero and multiples of 1/64 s),
/// arbitrary floats, and far-future jumps of days.
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

    /// The queue pops the identical `(time, event)` stream as the model
    /// for any interleaving of pushes and pops.
    #[test]
    fn queue_and_model_pop_identical_streams(ops in arb_ops()) {
        let mut model = Model::default();
        let mut queue = TimerWheel::new();
        let mut now = 0.0_f64;
        let mut next_id = 0usize;
        for op in &ops {
            match *op {
                Op::Push(offset) => {
                    let time = now + offset;
                    let ev = Event::RefreshArrive { item: next_id, value: time };
                    next_id += 1;
                    model.push(time, ev.clone());
                    queue.push(time, ev);
                }
                Op::Pop => {
                    let m = model.pop_until(f64::INFINITY);
                    let q = queue.pop_until(f64::INFINITY);
                    prop_assert_eq!(&m, &q);
                    if let Some((t, _)) = m {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(model.len(), queue.len());
        }
        // Drain whatever is left; the tails must match event for event.
        loop {
            let m = model.pop_until(f64::INFINITY);
            let q = queue.pop_until(f64::INFINITY);
            prop_assert_eq!(&m, &q);
            if m.is_none() {
                break;
            }
        }
    }

    /// The queue agrees with the model on `peek_time` as well as the
    /// popped stream under a bounded-horizon drain (the engine's access
    /// pattern: peek, then pop everything up to the next tick).
    #[test]
    fn queue_agrees_under_horizon_drains(ops in arb_ops(), horizon_step in 0.25f64..8.0) {
        let mut model = Model::default();
        let mut queue = TimerWheel::new();
        let mut now = 0.0_f64;
        let mut next_id = 0usize;
        for op in &ops {
            match *op {
                Op::Push(offset) => {
                    let time = now + offset;
                    let ev = Event::RefreshArrive { item: next_id, value: time };
                    next_id += 1;
                    model.push(time, ev.clone());
                    queue.push(time, ev);
                }
                Op::Pop => {
                    prop_assert_eq!(model.peek_time(), queue.peek_time());
                    let horizon = now + horizon_step;
                    while let Some((t, ev)) = model.pop_until(horizon) {
                        prop_assert_eq!(queue.pop_until(horizon), Some((t, ev)));
                    }
                    prop_assert_eq!(queue.pop_until(horizon), None);
                    now = horizon;
                }
            }
        }
    }
}
