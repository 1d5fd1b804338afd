//! Causal span context and the sampling profiler.
//!
//! Every [`crate::Obs::timed`] guard is a **span** (but on a disabled
//! handle, whose guards open nothing): it gets a
//! process-unique [`SpanId`], a parent (the innermost span open on the
//! same thread, or the thread's *ambient parent*), and pushes its name
//! onto two stacks — a plain thread-local one for parent resolution,
//! and a lock-free mirror the [`Profiler`] can sample from another
//! thread. Timing events carry `span_id` / `parent` fields, from which
//! `pq-trace tree` reconstructs the exact fan-out forest.
//!
//! **Propagation across threads** uses [`SpanContext`]: capture it
//! where the work is *caused* (`SpanContext::current()`), move it into
//! the worker closure, and `enter()` it there — spans the worker opens
//! then parent under the capture point. This is how `gp.solve` spans
//! inside the parallel recompute pool chain back to the coordinator's
//! `sim.recompute_batch` span.
//!
//! **Sampling profiler:** [`Profiler`] wakes at a configurable rate,
//! reads every live thread's span-stack mirror, and emits one
//! `profile.sample` Point event per non-empty stack with a folded
//! `stack` field (`root;child;leaf` — the flamegraph input format that
//! `pq-trace profile` aggregates). The mirror is written with a
//! release-store of the depth after the frame, so the sampler sees a
//! consistent prefix; a sample racing a push/pop may be one frame
//! stale, which is noise a profiler tolerates by design.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::event::EventKind;
use crate::Obs;

/// Maximum span nesting mirrored for the profiler; deeper frames still
/// resolve parents correctly but are invisible to sampling.
pub const MAX_SPAN_DEPTH: usize = 32;

/// A process-unique span identifier (never 0, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> SpanId {
    SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
}

/// Process-global frame-name interner: span names → small ids stored
/// in the sampled stack mirrors. Bounded by the number of distinct
/// span names in the program (a handful), not by span volume.
struct FrameNames {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

fn frame_names() -> &'static Mutex<FrameNames> {
    static NAMES: OnceLock<Mutex<FrameNames>> = OnceLock::new();
    NAMES.get_or_init(|| {
        Mutex::new(FrameNames {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

fn intern_frame_global(name: &str) -> u32 {
    let mut reg = frame_names().lock().unwrap();
    if let Some(&id) = reg.by_name.get(name) {
        return id;
    }
    let id = reg.names.len() as u32;
    reg.names.push(name.to_string());
    reg.by_name.insert(name.to_string(), id);
    id
}

/// Snapshot of all interned frame names (index = frame id).
fn frame_name_table() -> Vec<String> {
    frame_names().lock().unwrap().names.clone()
}

thread_local! {
    /// Per-thread memo of name → frame id, so the global interner lock
    /// is paid once per (thread, span name), not once per span.
    static FRAME_MEMO: RefCell<HashMap<String, u32>> = RefCell::new(HashMap::new());
}

fn intern_frame(name: &str) -> u32 {
    FRAME_MEMO
        .try_with(|memo| {
            if let Some(&id) = memo.borrow().get(name) {
                return id;
            }
            let id = intern_frame_global(name);
            memo.borrow_mut().insert(name.to_string(), id);
            id
        })
        .unwrap_or_else(|_| intern_frame_global(name))
}

/// The lock-free span-stack mirror one thread publishes for sampling.
struct SharedStack {
    label: String,
    /// Logical depth; may exceed [`MAX_SPAN_DEPTH`] (excess frames are
    /// simply not mirrored). Stored with `Release` after the frame
    /// write so samplers reading `Acquire` see initialized frames.
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_SPAN_DEPTH],
    alive: AtomicBool,
}

fn stack_registry() -> &'static Mutex<Vec<Arc<SharedStack>>> {
    static STACKS: OnceLock<Mutex<Vec<Arc<SharedStack>>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Thread-local span state: open span ids (for parent resolution), the
/// ambient cross-thread parent, and the shared sampling mirror.
struct ThreadSpans {
    ids: Vec<SpanId>,
    ambient: Option<SpanId>,
    shared: Option<Arc<SharedStack>>,
}

impl ThreadSpans {
    fn shared_stack(&mut self) -> &Arc<SharedStack> {
        self.shared.get_or_insert_with(|| {
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
            let stack = Arc::new(SharedStack {
                label,
                depth: AtomicUsize::new(0),
                frames: std::array::from_fn(|_| AtomicU32::new(0)),
                alive: AtomicBool::new(true),
            });
            stack_registry().lock().unwrap().push(stack.clone());
            stack
        })
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.alive.store(false, Ordering::Release);
        }
    }
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans {
            ids: Vec::new(),
            ambient: None,
            shared: None,
        })
    };
}

/// Opens a span named `name` on the current thread; returns its id and
/// its parent (innermost open span, or the ambient cross-thread
/// parent). Must be balanced by [`pop_span`].
pub(crate) fn push_span(name: &str) -> (SpanId, Option<SpanId>) {
    let id = next_span_id();
    SPANS
        .try_with(|spans| {
            let mut spans = spans.borrow_mut();
            let parent = spans.ids.last().copied().or(spans.ambient);
            spans.ids.push(id);
            let frame = intern_frame(name);
            let shared = spans.shared_stack();
            let depth = shared.depth.load(Ordering::Relaxed);
            if depth < MAX_SPAN_DEPTH {
                shared.frames[depth].store(frame, Ordering::Relaxed);
            }
            shared.depth.store(depth + 1, Ordering::Release);
            (id, parent)
        })
        // Thread teardown: spans no longer tracked, still usable ids.
        .unwrap_or((id, None))
}

/// Closes the innermost span opened by [`push_span`].
pub(crate) fn pop_span() {
    let _ = SPANS.try_with(|spans| {
        let mut spans = spans.borrow_mut();
        spans.ids.pop();
        if let Some(shared) = &spans.shared {
            let depth = shared.depth.load(Ordering::Relaxed);
            shared
                .depth
                .store(depth.saturating_sub(1), Ordering::Release);
        }
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

/// A background thread sampling every live span stack at a fixed rate.
/// Stop explicitly with [`Profiler::stop`], let it stop on drop, or
/// [`Profiler::detach`] it for the life of the process.
#[derive(Debug)]
pub struct Profiler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Starts a sampling profiler emitting into `obs`. `hz` is clamped to
/// `1..=1000`. Each sampling round emits one `profile.sample` event
/// per thread with a non-empty span stack (folded `stack` field plus
/// the thread label).
pub fn start_profiler(obs: &Obs, hz: u32) -> Profiler {
    let period = Duration::from_nanos(1_000_000_000 / u64::from(hz.clamp(1, 1000)));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let obs = obs.clone();
    let handle = std::thread::Builder::new()
        .name("pq-obs-profiler".into())
        .spawn(move || {
            let mut names: Vec<String> = Vec::new();
            while !stop_flag.load(Ordering::Relaxed) {
                let round_start = Instant::now();
                let stacks: Vec<Arc<SharedStack>> = {
                    let mut reg = stack_registry().lock().unwrap();
                    reg.retain(|s| s.alive.load(Ordering::Acquire));
                    reg.clone()
                };
                for stack in &stacks {
                    let depth = stack.depth.load(Ordering::Acquire).min(MAX_SPAN_DEPTH);
                    if depth == 0 {
                        continue;
                    }
                    let mut folded = String::new();
                    for frame in stack.frames.iter().take(depth) {
                        let id = frame.load(Ordering::Relaxed) as usize;
                        if id >= names.len() {
                            names = frame_name_table();
                        }
                        if !folded.is_empty() {
                            folded.push(';');
                        }
                        folded.push_str(names.get(id).map_or("?", String::as_str));
                    }
                    let label = stack.label.clone();
                    obs.emit_with(crate::names::PROFILE_SAMPLE, EventKind::Point, |e| {
                        e.with("stack", folded).with("thread", label)
                    });
                }
                if let Some(rest) = period.checked_sub(round_start.elapsed()) {
                    std::thread::sleep(rest);
                }
            }
            obs.flush();
        })
        .expect("spawn pq-obs-profiler thread");
    Profiler {
        stop,
        handle: Some(handle),
    }
}

impl Profiler {
    /// Stops the sampling thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Lets the profiler run for the remaining life of the process.
    pub fn detach(mut self) {
        self.handle.take();
    }

    fn shutdown(&mut self) {
        // Only signal stop while we still own the sampler thread: after
        // `detach` the flag must stay clear or the drop of the handle
        // shell would silently kill the detached thread.
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn nested_spans_resolve_parents_on_one_thread() {
        let (outer, outer_parent) = push_span("outer");
        let (inner, inner_parent) = push_span("inner");
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
        let (root, _) = push_span("root");
        let ctx = SpanContext::current();
        assert_eq!(ctx.parent(), Some(root));
        let observed = std::thread::spawn(move || {
            let _guard = ctx.enter();
            let (_, parent) = push_span("child");
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

    #[test]
    fn profiler_samples_open_spans() {
        let (obs, ring) = Obs::ring(4096);
        let profiler = start_profiler(&obs, 1000);
        {
            let _outer = obs.timed("prof_outer");
            let _inner = obs.timed("prof_inner");
            std::thread::sleep(Duration::from_millis(50));
        }
        profiler.stop();
        let events = ring.events();
        let sampled: Vec<String> = events
            .iter()
            .filter(|e| e.target == crate::names::PROFILE_SAMPLE)
            .filter_map(|e| match e.field("stack") {
                Some(Value::Str(s)) => Some(s.to_string()),
                _ => None,
            })
            .collect();
        assert!(
            sampled.iter().any(|s| s.contains("prof_outer;prof_inner")),
            "expected a folded prof_outer;prof_inner sample, got {sampled:?}"
        );
    }

    #[test]
    fn detached_profiler_keeps_sampling() {
        let (obs, ring) = Obs::ring(64);
        start_profiler(&obs, 1000).detach();
        let _span = obs.timed("detached_work");
        // The detached sampler must survive the drop of its handle
        // shell; poll until it proves it is alive (bounded for CI).
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if ring
                .events()
                .iter()
                .any(|e| e.target == crate::names::PROFILE_SAMPLE)
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("detached profiler stopped sampling after detach()");
    }
}
