//! Bounded single-producer/single-consumer rings for inter-shard
//! message passing.
//!
//! The sharded engine (see [`crate::shard`]) connects every pair of
//! shards that share at least one cross-partition item with two
//! directed rings. Each ring is written by exactly one shard thread and
//! read by exactly one other; the messages travel through a bounded
//! [`std::sync::mpsc::sync_channel`], whose non-blocking
//! `try_send` / `try_recv` are all the protocol needs.
//!
//! Besides the messages the ring carries a **watermark** — the
//! sender's progress marker, stored as `t + 1` once the sender has
//! fully completed simulated tick `t` (0 = nothing completed yet,
//! `u64::MAX` = the sender's run is over). The conservative
//! synchronization protocol (DESIGN.md §13) relies on it: a receiver
//! may start tick `T` only once every inbound watermark is `≥ T`
//! (sender completed `T - 1`), which guarantees all cross-shard
//! messages sent during ticks `≤ T - 1` are already in the ring. A
//! **backpressure counter** records how often the producer found the
//! ring full and had to spin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use pq_obs::SpanId;

/// A message crossing a shard boundary. Item ids are **global** (the
/// pre-partition universe); each side translates to its dense local
/// ids. `span` restores cross-thread causality: it is the sender's
/// innermost open span at send time, re-entered via
/// [`pq_obs::SpanContext::with_parent`] on the receiving side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RingMsg {
    /// A source refresh accepted by the item's home shard, forwarded to
    /// a shard holding a replica. `time` already includes the remote
    /// leg's network delay draw.
    Refresh {
        /// Global item id.
        item: u32,
        /// The refreshed value.
        value: f64,
        /// Simulated arrival time at the remote coordinator.
        time: f64,
        /// Simulated tick the sender was executing when it sent this.
        /// The receiver's holdback buffer releases a message only once
        /// it passes the sender's tick — even when the sender's thread
        /// has raced several ticks ahead of the receiver's.
        sent_tick: u64,
        /// Sender's span at send time (0 = none).
        span: u64,
    },
    /// A remote shard's local minimum DAB over its replica of `item`,
    /// shipped home so the installed source filter stays the global
    /// minimum across shards.
    DabUpdate {
        /// Global item id.
        item: u32,
        /// The sending shard's minimum half-width over the item
        /// (`f64::INFINITY` when none of its queries currently
        /// constrain it).
        min_dab: f64,
        /// Simulated time of the change.
        time: f64,
        /// Simulated tick the sender was executing when it sent this
        /// (see [`RingMsg::Refresh::sent_tick`]).
        sent_tick: u64,
        /// Sender's span at send time (0 = none).
        span: u64,
    },
}

impl RingMsg {
    /// The message's simulated time (used for deterministic staging
    /// order diagnostics; processing order is FIFO per ring).
    pub fn time(&self) -> f64 {
        match self {
            RingMsg::Refresh { time, .. } | RingMsg::DabUpdate { time, .. } => *time,
        }
    }

    /// The simulated tick the sender was executing when it sent this.
    pub fn sent_tick(&self) -> u64 {
        match self {
            RingMsg::Refresh { sent_tick, .. } | RingMsg::DabUpdate { sent_tick, .. } => *sent_tick,
        }
    }

    /// The sender's span id, if any.
    pub fn span(&self) -> Option<SpanId> {
        let raw = match self {
            RingMsg::Refresh { span, .. } | RingMsg::DabUpdate { span, .. } => *span,
        };
        (raw != 0).then_some(SpanId(raw))
    }
}

/// What both halves of a ring share beside the channel.
#[derive(Debug)]
struct Marks {
    /// Producer progress marker: `t + 1` once the producer has fully
    /// completed simulated tick `t`; 0 before initialization finishes;
    /// `u64::MAX` once the producer's run ends.
    watermark: AtomicU64,
    /// Times the producer found the ring full.
    backpressure: AtomicU64,
}

/// Builds a connected producer/consumer pair over a ring of `capacity`
/// messages (rounded up to a power of two, minimum 2).
pub fn ring(capacity: usize) -> (RingProducer, RingConsumer) {
    let capacity = capacity.max(2).next_power_of_two();
    let (tx, rx) = sync_channel(capacity);
    let marks = Arc::new(Marks {
        watermark: AtomicU64::new(0),
        backpressure: AtomicU64::new(0),
    });
    (
        RingProducer {
            tx,
            marks: marks.clone(),
        },
        RingConsumer { rx, marks },
    )
}

/// The write half of a ring; exactly one shard thread holds it.
#[derive(Debug)]
pub struct RingProducer {
    tx: SyncSender<RingMsg>,
    marks: Arc<Marks>,
}

impl RingProducer {
    /// Tries to enqueue `msg`; returns `false` (recording backpressure)
    /// when the ring is full. The caller must then make progress
    /// elsewhere — the sharded engine drains its own inbound rings —
    /// and retry, which is what keeps two mutually full shards from
    /// deadlocking. A message to a consumer that is gone is dropped:
    /// nothing would read it.
    pub fn try_send(&self, msg: RingMsg) -> bool {
        match self.tx.try_send(msg) {
            Err(TrySendError::Full(_)) => {
                self.marks.backpressure.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(()) | Err(TrySendError::Disconnected(_)) => true,
        }
    }

    /// Publishes the producer's progress marker (the sharded engine
    /// stores `completed_tick + 1`; see the module docs). Every message
    /// enqueued before this call is visible to a consumer that observes
    /// the new marker (release/acquire pairing on the watermark).
    pub fn publish_watermark(&self, mark: u64) {
        self.marks.watermark.store(mark, Ordering::Release);
    }

    /// Times [`RingProducer::try_send`] found the ring full.
    pub fn backpressure(&self) -> u64 {
        self.marks.backpressure.load(Ordering::Relaxed)
    }
}

/// The read half of a ring; exactly one shard thread holds it.
#[derive(Debug)]
pub struct RingConsumer {
    rx: Receiver<RingMsg>,
    marks: Arc<Marks>,
}

impl RingConsumer {
    /// Dequeues the oldest message, if any.
    pub fn try_recv(&self) -> Option<RingMsg> {
        self.rx.try_recv().ok()
    }

    /// The producer's progress marker (see
    /// [`RingProducer::publish_watermark`]).
    pub fn watermark(&self) -> u64 {
        self.marks.watermark.load(Ordering::Acquire)
    }

    /// Times the producer found the ring full.
    pub fn backpressure(&self) -> u64 {
        self.marks.backpressure.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh(item: u32, value: f64) -> RingMsg {
        RingMsg::Refresh {
            item,
            value,
            time: value,
            sent_tick: 0,
            span: 0,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let (tx, rx) = ring(4);
        for i in 0..4 {
            assert!(tx.try_send(refresh(i, i as f64)));
        }
        assert!(!tx.try_send(refresh(9, 9.0)), "full ring must refuse");
        assert_eq!(tx.backpressure(), 1);
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Some(refresh(i, i as f64)));
        }
        assert_eq!(rx.try_recv(), None);
        // Space reclaimed after consumption.
        assert!(tx.try_send(refresh(9, 9.0)));
        assert_eq!(rx.try_recv(), Some(refresh(9, 9.0)));
    }

    #[test]
    fn watermark_propagates() {
        let (tx, rx) = ring(2);
        assert_eq!(rx.watermark(), 0);
        tx.publish_watermark(41);
        assert_eq!(rx.watermark(), 41);
        tx.publish_watermark(u64::MAX);
        assert_eq!(rx.watermark(), u64::MAX);
    }

    #[test]
    fn wraps_many_times_without_corruption() {
        let (tx, rx) = ring(8);
        for round in 0..1000u32 {
            assert!(tx.try_send(refresh(round, f64::from(round))));
            assert_eq!(rx.try_recv(), Some(refresh(round, f64::from(round))));
        }
    }

    #[test]
    fn cross_thread_stream_is_intact() {
        let (tx, rx) = ring(16);
        let n = 100_000u32;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                while !tx.try_send(refresh(i, f64::from(i))) {
                    std::hint::spin_loop();
                }
            }
            tx.backpressure()
        });
        let mut next = 0u32;
        while next < n {
            if let Some(RingMsg::Refresh { item, value, .. }) = rx.try_recv() {
                assert_eq!(item, next);
                assert_eq!(value, f64::from(next));
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        assert_eq!(rx.try_recv(), None);
        let _bp = producer.join().unwrap();
    }

    #[test]
    fn span_ids_round_trip() {
        let msg = RingMsg::DabUpdate {
            item: 3,
            min_dab: 0.5,
            time: 1.0,
            sent_tick: 4,
            span: 7,
        };
        assert_eq!(msg.span(), Some(SpanId(7)));
        assert_eq!(refresh(0, 0.0).span(), None);
        assert_eq!(msg.time(), 1.0);
        assert_eq!(msg.sent_tick(), 4);
    }
}
