//! The events the simulator schedules (queued by [`crate::TimerWheel`]).

/// Events flowing through the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A data refresh from a source arrives at the coordinator (the
    /// root of a tree of them).
    RefreshArrive {
        /// Refreshed item (dense id).
        item: usize,
        /// The item's value at the source when pushed.
        value: f64,
    },
    /// A DAB-change message from the coordinator arrives at a source.
    DabChangeArrive {
        /// Item whose filter changes.
        item: usize,
        /// The new filter width.
        dab: f64,
    },
    /// A refresh forwarded by a tree node arrives at its child `node`.
    Forward {
        /// The receiving node.
        node: usize,
        /// Refreshed item (dense id).
        item: usize,
        /// The value the parent forwarded.
        value: f64,
    },
}
