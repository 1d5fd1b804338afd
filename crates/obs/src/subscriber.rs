//! Event sinks.
//!
//! A [`Subscriber`] receives every emitted [`Event`]. The facade asks
//! [`Subscriber::enabled`] *before* constructing an event, so an
//! uninterested sink (notably [`NullSubscriber`]) costs one virtual
//! call and no allocation per instrumentation site.

use crate::event::Event;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An event sink. Implementations must be thread-safe: the simulator
/// and solver may emit from concurrent tests sharing a sink.
pub trait Subscriber: Send + Sync {
    /// Whether this sink wants events for `target`. Returning `false`
    /// lets the facade skip event construction entirely.
    fn enabled(&self, _target: &str) -> bool {
        true
    }

    /// Receives one event.
    fn on_event(&self, event: &Event);

    /// Forces any buffered output to its destination.
    fn flush(&self) {}
}

/// Discards everything; `enabled` is `false` so instrumented code never
/// even builds events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSubscriber;

impl Subscriber for NullSubscriber {
    fn enabled(&self, _target: &str) -> bool {
        false
    }

    fn on_event(&self, _event: &Event) {}
}

/// Keeps the last `capacity` events in memory; older events are
/// overwritten and counted in [`RingBufferSubscriber::dropped`].
#[derive(Debug)]
pub struct RingBufferSubscriber {
    buf: Mutex<RingState>,
    capacity: usize,
    dropped: AtomicU64,
}

#[derive(Debug)]
struct RingState {
    slots: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
}

impl RingBufferSubscriber {
    /// A ring holding at most `capacity` events (at least one slot).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferSubscriber {
            buf: Mutex::new(RingState {
                slots: Vec::with_capacity(capacity.min(1024)),
                head: 0,
            }),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().slots.len()
    }

    /// Whether no events have been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of held events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let state = self.buf.lock().unwrap();
        let mut out = Vec::with_capacity(state.slots.len());
        out.extend_from_slice(&state.slots[state.head..]);
        out.extend_from_slice(&state.slots[..state.head]);
        out
    }
}

impl Subscriber for RingBufferSubscriber {
    fn on_event(&self, event: &Event) {
        let mut state = self.buf.lock().unwrap();
        if state.slots.len() < self.capacity {
            state.slots.push(event.clone());
        } else {
            let head = state.head;
            state.slots[head] = event.clone();
            state.head = (head + 1) % self.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Renders `bench.*` progress events as human-readable lines on stderr,
/// keeping stdout clean for result tables while a [`crate::JsonlWriter`]
/// beside it in a [`Fanout`] records the full trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn enabled(&self, target: &str) -> bool {
        target.starts_with("bench.")
    }

    fn on_event(&self, event: &Event) {
        use std::fmt::Write as _;
        let mut line = format!("[{}]", event.target);
        for (key, value) in &event.fields {
            match value {
                crate::event::Value::Bool(v) => {
                    let _ = write!(line, " {key}={v}");
                }
                crate::event::Value::U64(v) => {
                    let _ = write!(line, " {key}={v}");
                }
                crate::event::Value::F64(v) => {
                    let _ = write!(line, " {key}={v:.4}");
                }
                crate::event::Value::Str(v) => {
                    let _ = write!(line, " {key}={v}");
                }
            }
        }
        eprintln!("{line}");
    }
}

/// Duplicates every event to each inner subscriber.
pub struct Fanout {
    sinks: Vec<Arc<dyn Subscriber>>,
}

impl Fanout {
    /// A subscriber forwarding to all of `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Subscriber>>) -> Self {
        Fanout { sinks }
    }
}

impl Subscriber for Fanout {
    fn enabled(&self, target: &str) -> bool {
        self.sinks.iter().any(|s| s.enabled(target))
    }

    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            if sink.enabled(&event.target) {
                sink.on_event(event);
            }
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn event(n: u64) -> Event {
        Event::new("test", EventKind::Point).with("n", n)
    }

    #[test]
    fn null_subscriber_disables_all_targets() {
        let null = NullSubscriber;
        assert!(!null.enabled("gp.solve"));
        assert!(!null.enabled("anything"));
        null.on_event(&event(0)); // must be a harmless no-op
    }

    #[test]
    fn ring_holds_events_until_capacity() {
        let ring = RingBufferSubscriber::new(8);
        assert!(ring.is_empty());
        for n in 0..5 {
            ring.on_event(&event(n));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let held: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e.field("n") {
                Some(crate::event::Value::U64(v)) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(held, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = RingBufferSubscriber::new(3);
        for n in 0..10 {
            ring.on_event(&event(n));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let held: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e.field("n") {
                Some(crate::event::Value::U64(v)) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(held, vec![7, 8, 9], "oldest first after wrapping");
    }

    #[test]
    fn fanout_delivers_to_every_interested_sink() {
        let a = Arc::new(RingBufferSubscriber::new(4));
        let b = Arc::new(RingBufferSubscriber::new(4));
        let fan = Fanout::new(vec![a.clone(), b.clone(), Arc::new(NullSubscriber)]);
        assert!(fan.enabled("x"));
        fan.on_event(&event(1));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);

        let empty = Fanout::new(vec![Arc::new(NullSubscriber)]);
        assert!(!empty.enabled("x"), "all-null fanout disables targets");
        // Stderr renders progress lines only, so beside a full trace it
        // wants `bench.*` and nothing else.
        let stderr = Fanout::new(vec![Arc::new(StderrSubscriber)]);
        assert!(stderr.enabled("bench.run"));
        assert!(!stderr.enabled("gp.solve_ns"));
    }
}
