//! Causal span context.
//!
//! Every [`crate::Obs::timed`] guard is a **span** (but on a disabled
//! handle, whose guards open nothing): it gets a
//! process-unique [`SpanId`], a parent (the innermost span open on the
//! same thread, or the thread's *ambient parent*), and pushes its id
//! onto a thread-local stack for parent resolution. Timing events carry
//! `span_id` / `parent` fields, from which `pq-trace tree` reconstructs
//! the exact span forest.
//!
//! **Propagation across threads** uses [`SpanContext`]: capture it
//! where the work is *caused* (`SpanContext::current()`), move it into
//! the worker closure, and `enter()` it there — spans the worker opens
//! then parent under the capture point. This is how `gp.solve` spans
//! on the install's workers chain back to the span open where the
//! install was called.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique span identifier (never 0, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> SpanId {
    SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
}

/// Thread-local span state: open span ids (for parent resolution) and
/// the ambient cross-thread parent.
struct ThreadSpans {
    ids: Vec<SpanId>,
    ambient: Option<SpanId>,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans {
            ids: Vec::new(),
            ambient: None,
        })
    };
}

/// Opens a span on the current thread; returns its id and its parent
/// (innermost open span, or the ambient cross-thread parent). Must be
/// balanced by [`pop_span`].
pub(crate) fn push_span() -> (SpanId, Option<SpanId>) {
    let id = next_span_id();
    SPANS
        .try_with(|spans| {
            let mut spans = spans.borrow_mut();
            let parent = spans.ids.last().copied().or(spans.ambient);
            spans.ids.push(id);
            (id, parent)
        })
        // Thread teardown: spans no longer tracked, still usable ids.
        .unwrap_or((id, None))
}

/// Closes the innermost span opened by [`push_span`].
pub(crate) fn pop_span() {
    let _ = SPANS.try_with(|spans| {
        spans.borrow_mut().ids.pop();
    });
}

/// A capturable causal position: "spans opened under this context are
/// children of span X". `Copy` + `Send`, so it moves into worker
/// closures and across channels for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    parent: Option<SpanId>,
}

impl SpanContext {
    /// The current causal position on this thread: the innermost open
    /// span, or the already-entered ambient context.
    pub fn current() -> Self {
        let parent = SPANS
            .try_with(|spans| {
                let spans = spans.borrow();
                spans.ids.last().copied().or(spans.ambient)
            })
            .unwrap_or(None);
        SpanContext { parent }
    }

    /// An empty context (spans opened under it are roots).
    pub fn none() -> Self {
        SpanContext { parent: None }
    }

    /// The span new children will parent under, if any.
    pub fn parent(&self) -> Option<SpanId> {
        self.parent
    }

    /// Installs this context as the current thread's ambient parent
    /// until the returned guard drops (the previous ambient is
    /// restored, so contexts nest).
    pub fn enter(self) -> SpanContextGuard {
        let prev = SPANS
            .try_with(|spans| {
                let mut spans = spans.borrow_mut();
                std::mem::replace(&mut spans.ambient, self.parent)
            })
            .unwrap_or(None);
        SpanContextGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }
}

/// Restores the previous ambient parent on drop. Not `Send`: the guard
/// must drop on the thread that entered the context.
#[derive(Debug)]
pub struct SpanContextGuard {
    prev: Option<SpanId>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanContextGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = SPANS.try_with(|spans| {
            spans.borrow_mut().ambient = prev;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_resolve_parents_on_one_thread() {
        let (outer, outer_parent) = push_span();
        let (inner, inner_parent) = push_span();
        assert_eq!(inner_parent, Some(outer));
        assert_ne!(outer, inner);
        pop_span();
        pop_span();
        // This test must not observe sibling tests' spans as parents,
        // so only check the relation between our own two spans.
        let _ = outer_parent;
    }

    #[test]
    fn span_context_carries_parent_across_threads() {
        let (root, _) = push_span();
        let ctx = SpanContext::current();
        assert_eq!(ctx.parent(), Some(root));
        let observed = std::thread::spawn(move || {
            let _guard = ctx.enter();
            let (_, parent) = push_span();
            pop_span();
            parent
        })
        .join()
        .unwrap();
        pop_span();
        assert_eq!(observed, Some(root));
    }

    #[test]
    fn context_guard_restores_previous_ambient() {
        let a = SpanContext {
            parent: Some(SpanId(11)),
        };
        let b = SpanContext {
            parent: Some(SpanId(22)),
        };
        let _ga = a.enter();
        {
            let _gb = b.enter();
            assert_eq!(SpanContext::current().parent(), Some(SpanId(22)));
        }
        assert_eq!(SpanContext::current().parent(), Some(SpanId(11)));
    }
}
