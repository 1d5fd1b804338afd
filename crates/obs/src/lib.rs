//! `pq-obs`: zero-dependency telemetry for polyquery.
//!
//! The crate provides three coordinated pieces:
//!
//! 1. **Structured events** ([`Event`]) delivered to a pluggable
//!    [`Subscriber`] — a bounded in-memory ring
//!    ([`RingBufferSubscriber`]), a JSONL file ([`JsonlWriter`]),
//!    `bench.*` progress lines on stderr ([`StderrSubscriber`]), or
//!    nothing at all ([`NullSubscriber`], the default, which compiles
//!    down to one virtual `enabled()` call per site).
//! 2. **Metrics** — named monotonic [`Counter`]s and power-of-two
//!    bucket [`Histogram`]s with p50/p95/p99 summaries, held in a
//!    per-[`Obs`] [`Registry`] (no global state, so parallel tests
//!    never share metrics). A hot path resolves its handles once and
//!    records through them: one relaxed atomic add, no lock.
//! 3. **Timing spans** — [`Obs::timed`] returns a guard that records
//!    the elapsed nanoseconds into a `<name>_ns` histogram and emits a
//!    `<name>_ns` timing event when dropped.
//!
//! An [`Obs`] handle is a cheap `Arc` clone; the solver, monitor, and
//! simulator each accept one. Whoever can read the handle back (the
//! monitor) defaults to the null handle; a solve or run whose handle
//! nobody can read takes [`Obs::disabled`], which registers and records
//! nothing. A handle may also carry a flight [`Recorder`]: the
//! last events of every thread, dumped to JSONL when a simulator's audit
//! flags a divergence or the process panics.
//!
//! ```
//! let (obs, ring) = pq_obs::Obs::ring(256);
//! {
//!     let _span = obs.timed(pq_obs::names::GP_SOLVE);
//!     // ... solve ...
//! }
//! obs.counter(pq_obs::names::DAB_RECOMPUTE).inc();
//! assert_eq!(ring.events().len(), 1); // the gp.solve_ns timing event
//! assert_eq!(obs.snapshot().counters["dab.recompute"], 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod jsonl;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod subscriber;

pub use event::{Event, EventKind, Value};
pub use jsonl::{parse, to_json, JsonError, JsonlWriter};
pub use recorder::{Recorder, RecorderConfig, DEFAULT_RECORDER_CAPACITY};
pub use registry::{Counter, Histogram, HistogramSummary, Registry, Snapshot};
pub use span::{SpanContext, SpanContextGuard, SpanId};
pub use subscriber::{Fanout, NullSubscriber, RingBufferSubscriber, StderrSubscriber, Subscriber};

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first telemetry call in this process (monotonic,
/// saturating at `u64::MAX`): the clock events and spans both read.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The well-known metric and event names used across polyquery, so
/// instrumentation sites and consumers agree on spelling.
pub mod names {
    /// GP solve span (histogram `gp.solve_ns`).
    pub const GP_SOLVE: &str = "gp.solve";
    /// Counter: solves routed through the sparse KKT backend.
    pub const GP_SPARSE_SOLVE: &str = "gp.sparse_solve";
    /// DAB assignment solve span (histogram `dab.solve_ns`).
    pub const DAB_SOLVE: &str = "dab.solve";
    /// A DAB recomputation was triggered (one event per query solved).
    pub const DAB_RECOMPUTE: &str = "dab.recompute";
    /// A stale Dual-DAB unit was re-anchored instead of re-solved (one
    /// event per unit, with its `query`, `unit`, the refreshed `item`,
    /// the secondary-DAB `scale` and whether it was the unit's `floor`).
    pub const DAB_REANCHOR: &str = "dab.reanchor";
    /// A monitor was installed over the current data snapshot.
    pub const MONITOR_INSTALL: &str = "monitor.install";
    /// The `refreshes` of one `item` a simulated coordinator (`node` on a
    /// tree) ingested, written once at the end of a run.
    pub const SIM_REFRESH: &str = "sim.refresh";
    /// A fidelity sample found a query outside its QAB.
    pub const SIM_QAB_VIOLATION: &str = "sim.qab_violation";
    /// One benchmark harness data point.
    pub const BENCH_RUN: &str = "bench.run";
    /// A refresh whose processing forced at least one DAB recomputation
    /// (event with the triggering `item` — the paper's μ cost driver).
    pub const DAB_RECOMPUTE_TRIGGER: &str = "dab.recompute_trigger";
    /// A warm solve started from the lightly blended start (first rung
    /// of the warm-start ladder).
    pub const SOLVE_WARM_HIT: &str = "solve.warm_hit";
    /// A warm solve needed a deeper blend toward the interior before a
    /// strictly feasible start was found.
    pub const SOLVE_WARM_REPAIR: &str = "solve.warm_repair";
    /// A warm solve fell back to phase I after every blend failed.
    pub const SOLVE_COLD_FALLBACK: &str = "solve.cold_fallback";
    /// A unit's first solve, into a cache no solve has written yet
    /// (excluded from the warm-hit-rate denominator).
    pub const SOLVE_COLD_START: &str = "solve.cold_start";

    /// One full query evaluation through the compiled plan: view
    /// seeding, rebases, and the source-side truth, evaluated once per
    /// query on each tick a fidelity sample or audit reads it.
    pub const EVAL_FULL: &str = "eval.full";
    /// One periodic full-re-eval rebase of the incrementally maintained
    /// coordinator view (bounds float drift between rebases).
    pub const EVAL_REBASE: &str = "eval.rebase";
    /// Distinct monomials in a compiled cross-query `SharedPlan` (added
    /// once per compile; the CSE working-set size).
    pub const EVAL_SHARED_TERMS: &str = "eval.shared_terms";
    /// One coordinator-view query value updated by a shared-monomial
    /// delta scatter (the CSR term→query fan-out of an arriving
    /// refresh). Source moves fold nothing.
    pub const EVAL_SCATTER_FANOUT: &str = "eval.scatter_fanout";

    /// One event pushed into the simulator's event queue.
    pub const SCHED_PUSH: &str = "sched.push";
    /// One event popped from the simulator scheduler.
    pub const SCHED_POP: &str = "sched.pop";
    /// The coordinator's serial re-solve of one refresh's stale units
    /// (span, parent of their `dab.solve` spans).
    pub const SIM_RECOMPUTE_BATCH: &str = "sim.recompute_batch";

    /// One fidelity-audit shadow evaluation of a sampled query.
    pub const AUDIT_SAMPLE: &str = "audit.sample";
    /// The audited delta-maintained value or violation decision diverged
    /// from the naive shadow evaluation (structured Point event + counter).
    pub const AUDIT_DIVERGENCE: &str = "audit.divergence";

    /// Field key of a span's per-query attribution (value: the query's
    /// id).
    pub const LABEL_QUERY: &str = "query";
    /// Synthetic header event of a flight-recorder postmortem dump
    /// (fields `reason`, `seq`, `threads`, `events`, `dropped`).
    pub const RECORDER_DUMP: &str = "recorder.dump";
}

/// How a component should expose telemetry. `Default` is fully off.
/// [`Obs::from_config`] is the one place that assembles the sinks and
/// recorder it names.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Write a JSONL event trace to this path.
    pub jsonl: Option<PathBuf>,
    /// Render `bench.*` progress events as stderr lines (see
    /// [`StderrSubscriber`]).
    pub stderr: bool,
    /// Keep a black-box flight recorder of recent events (bounded
    /// per-thread rings, dumped to JSONL on an audit divergence or a
    /// panic) — see [`recorder`]. The
    /// conventional environment variable is `PQ_OBS_RECORDER` (dump
    /// path).
    pub recorder: Option<RecorderConfig>,
}

impl ObsConfig {
    /// Whether this config produces any subscriber or recorder at all.
    pub fn is_off(&self) -> bool {
        self.jsonl.is_none() && !self.stderr && self.recorder.is_none()
    }
}

/// The one instrument of each kind that every request on a disabled
/// handle is given: inert, registered nowhere.
struct Inert {
    counter: Arc<Counter>,
    histogram: Arc<Histogram>,
}

struct Inner {
    subscriber: Arc<dyn Subscriber>,
    registry: Registry,
    /// The flight recorder, installed at most once (first caller wins)
    /// and shared by every clone, so every run on the handle triggers the
    /// same one.
    recorder: OnceLock<Recorder>,
    /// Present only on a disabled handle ([`Obs::disabled`]).
    inert: Option<Inert>,
}

/// The telemetry handle: an `Arc` around a subscriber and a metrics
/// registry. Cloning is cheap; clones share both.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled("debug"))
            .finish()
    }
}

impl Obs {
    /// A handle that emits nothing. Its metrics still accumulate, so
    /// whoever holds the handle can read them from [`Obs::snapshot`], but
    /// no events are constructed.
    pub fn null() -> Self {
        Obs::with_subscriber(Arc::new(NullSubscriber))
    }

    /// A handle that records nothing, for a run no caller can observe:
    /// it emits no events, and every counter, histogram and timer it
    /// hands out is inert. Resolving one registers nothing (no lock
    /// taken), recording returns before any atomic,
    /// and a span reads no clock, opens no [`SpanId`] and clones no
    /// handle. Its [`Obs::snapshot`] stays empty. A recorder attaches to
    /// it as to any handle.
    pub fn disabled() -> Self {
        Obs::build(
            Arc::new(NullSubscriber),
            Some(Inert {
                counter: Arc::new(Counter::inert()),
                histogram: Arc::new(Histogram::inert()),
            }),
        )
    }

    /// A handle delivering events to the given subscriber.
    pub fn with_subscriber(subscriber: Arc<dyn Subscriber>) -> Self {
        Obs::build(subscriber, None)
    }

    fn build(subscriber: Arc<dyn Subscriber>, inert: Option<Inert>) -> Self {
        Obs {
            inner: Arc::new(Inner {
                subscriber,
                registry: Registry::default(),
                recorder: OnceLock::new(),
                inert,
            }),
        }
    }

    /// A handle backed by an in-memory ring of `capacity` events,
    /// returned alongside the ring so callers can inspect it.
    pub fn ring(capacity: usize) -> (Self, Arc<RingBufferSubscriber>) {
        let ring = Arc::new(RingBufferSubscriber::new(capacity));
        (Obs::with_subscriber(ring.clone()), ring)
    }

    /// Builds a handle from a declarative config. Fails only if the
    /// JSONL file cannot be created; the error names the path.
    pub fn from_config(config: &ObsConfig) -> std::io::Result<Self> {
        if config.is_off() {
            return Ok(Obs::null());
        }
        let mut sinks: Vec<Arc<dyn Subscriber>> = Vec::new();
        if let Some(path) = &config.jsonl {
            let writer = JsonlWriter::create(path)
                .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            sinks.push(Arc::new(writer));
        }
        if config.stderr {
            sinks.push(Arc::new(StderrSubscriber));
        }
        let recorder = config.recorder.clone().map(Recorder::new);
        if let Some(recorder) = &recorder {
            sinks.push(Arc::new(recorder.clone()));
        }
        let obs = match sinks.len() {
            0 => Obs::null(),
            1 => Obs::with_subscriber(sinks.pop().unwrap()),
            _ => Obs::with_subscriber(Arc::new(Fanout::new(sinks))),
        };
        if let Some(recorder) = recorder {
            recorder.install_panic_hook();
            obs.install_recorder(recorder);
        }
        Ok(obs)
    }

    /// Attaches a flight recorder for trigger access (the recorder
    /// must separately ride in the subscriber chain to capture events;
    /// [`Obs::from_config`] wires both). First installed wins.
    pub fn install_recorder(&self, recorder: Recorder) -> bool {
        self.inner.recorder.set(recorder).is_ok()
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.recorder.get()
    }

    /// Whether any subscriber wants events for `target`.
    pub fn enabled(&self, target: &str) -> bool {
        self.inner.subscriber.enabled(target)
    }

    /// Delivers a pre-built event.
    pub fn emit(&self, event: &Event) {
        if self.inner.subscriber.enabled(&event.target) {
            self.inner.subscriber.on_event(event);
        }
    }

    /// Builds and delivers an event only if `target` is enabled — the
    /// closure (and thus all field formatting) is skipped under the
    /// null subscriber.
    pub fn emit_with(
        &self,
        target: &'static str,
        kind: EventKind,
        build: impl FnOnce(Event) -> Event,
    ) {
        if self.inner.subscriber.enabled(target) {
            let event = build(Event::new(target, kind));
            self.inner.subscriber.on_event(&event);
        }
    }

    /// The counter named `name` in this handle's registry.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match &self.inner.inert {
            Some(inert) => inert.counter.clone(),
            None => self.inner.registry.counter(name),
        }
    }

    /// The histogram named `name` in this handle's registry.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match &self.inner.inert {
            Some(inert) => inert.histogram.clone(),
            None => self.inner.registry.histogram(name),
        }
    }

    /// Pre-resolves the `<name>_ns` histogram and event target for a
    /// timing span started many times: build the [`Timer`] once on the
    /// setup path, then [`Timer::start`] per measurement without
    /// touching the registry lock.
    pub fn timer(&self, name: &str) -> Timer {
        if self.inner.inert.is_some() {
            return Timer { span: None };
        }
        let metric = format!("{name}_ns");
        let span = TimerSpan {
            hist: self.histogram(&metric),
            metric: Arc::from(metric),
        };
        Timer { span: Some(span) }
    }

    /// Starts a timing span for `name` (e.g. [`names::GP_SOLVE`]).
    /// When the guard drops, the elapsed nanoseconds are recorded in
    /// the `<name>_ns` histogram and — if a subscriber is listening —
    /// emitted as a `<name>_ns` timing event with `dur_ns`, `span_id`,
    /// (when nested) `parent`, and whatever [`TimedGuard::set`] added
    /// while it was open. The span participates in causal parenting —
    /// see [`span`].
    pub fn timed(&self, name: &str) -> TimedGuard {
        self.timer(name).start(self)
    }

    /// A point-in-time copy of every metric in this handle's registry.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.registry.snapshot()
    }

    /// Flushes buffered subscriber output (e.g. the JSONL file).
    pub fn flush(&self) {
        self.inner.subscriber.flush();
    }
}

/// A reusable timing-span template: the `<name>_ns` histogram handle
/// and names, resolved once. Cloning shares the handles.
#[derive(Debug, Clone)]
pub struct Timer {
    /// `None` from a disabled handle: its spans record nothing.
    span: Option<TimerSpan>,
}

/// What every span of one [`Timer`] records under.
#[derive(Debug, Clone)]
struct TimerSpan {
    metric: Arc<str>,
    hist: Arc<Histogram>,
}

impl Timer {
    /// Starts one timing span; same semantics as [`Obs::timed`] minus
    /// the per-call registry resolution.
    pub fn start(&self, obs: &Obs) -> TimedGuard {
        let open = self.span.as_ref().map(|timer| {
            let (span_id, parent) = span::push_span();
            OpenSpan {
                obs: obs.clone(),
                fields: obs.enabled(&timer.metric).then(Vec::new),
                metric: timer.metric.clone(),
                hist: timer.hist.clone(),
                span_id,
                parent,
                start: now_ns(),
            }
        });
        TimedGuard {
            open,
            _not_send: std::marker::PhantomData,
        }
    }
}

/// Span guard returned by [`Obs::timed`]; records on drop. Not `Send`:
/// the span is tracked on the opening thread's stack, so the guard
/// must drop there too (move a [`SpanContext`] instead to cross
/// threads).
#[derive(Debug)]
pub struct TimedGuard {
    /// `None` for a span of a disabled handle's timer.
    open: Option<OpenSpan>,
    _not_send: std::marker::PhantomData<*const ()>,
}

#[derive(Debug)]
struct OpenSpan {
    obs: Obs,
    metric: Arc<str>,
    hist: Arc<Histogram>,
    /// [`TimedGuard::set`]'s fields; `None` when no subscriber wants them.
    fields: Option<Vec<(event::Str, Value)>>,
    span_id: SpanId,
    parent: Option<SpanId>,
    start: u64,
}

impl TimedGuard {
    /// This span's process-unique id (e.g. to hand to a [`SpanContext`]
    /// consumer out of band); `None` for a disabled handle's span.
    pub fn span_id(&self) -> Option<SpanId> {
        self.open.as_ref().map(|open| open.span_id)
    }

    /// Adds `key = value` (e.g. `query=3`, or what the spanned work found)
    /// to the event this span emits when it closes, after its `dur_ns`,
    /// `span_id` and `parent`; a span whose event nobody wants keeps none.
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(fields) = self.open.as_mut().and_then(|open| open.fields.as_mut()) {
            fields.push((key.into(), value.into()));
        }
    }
}

impl Drop for TimedGuard {
    fn drop(&mut self) {
        let Some(open) = &mut self.open else { return };
        let end = now_ns();
        let dur_ns = end.saturating_sub(open.start);
        span::pop_span();
        open.hist.record(dur_ns);
        if let Some(fields) = open.fields.take() {
            let mut event = Event::new(open.metric.to_string(), EventKind::Timing)
                .with("dur_ns", dur_ns)
                .with("span_id", open.span_id.0);
            if let Some(SpanId(parent)) = open.parent {
                event = event.with("parent", parent);
            }
            event.ts_ns = end;
            event.fields.extend(fields);
            open.obs.emit(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_emits_nothing_but_counts_metrics() {
        let obs = Obs::null();
        assert!(!obs.enabled(names::GP_SOLVE));
        // The build closure must never run under the null subscriber.
        obs.emit_with(names::GP_SOLVE, EventKind::Point, |_| {
            panic!("event built despite null subscriber")
        });
        obs.counter(names::DAB_RECOMPUTE).inc();
        assert_eq!(obs.snapshot().counters["dab.recompute"], 1);
    }

    #[test]
    fn disabled_handle_records_nothing_of_any_kind() {
        let obs = Obs::disabled();
        assert!(!obs.enabled(names::GP_SOLVE));
        obs.emit_with(names::GP_SOLVE, EventKind::Point, |_| {
            panic!("event built on a disabled handle")
        });
        let counter = obs.counter(names::DAB_RECOMPUTE);
        counter.add(3);
        let histogram = obs.histogram(names::GP_SOLVE);
        histogram.record(42);
        let timer = obs.timer(names::SIM_RECOMPUTE_BATCH);
        drop(timer.start(&obs));
        obs.timed(names::GP_SOLVE).set(names::LABEL_QUERY, 1u64);
        assert_eq!(counter.get(), 0);
        assert_eq!(histogram.summary(), HistogramSummary::default());
        let snap = obs.clone().snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert!(snap.histograms.is_empty(), "{:?}", snap.histograms);
    }

    #[test]
    fn a_disabled_span_opens_nothing() {
        let obs = Obs::disabled();
        let root = SpanContext::current();
        let guard = obs.timed(names::GP_SOLVE);
        assert_eq!(guard.span_id(), None);
        assert_eq!(SpanContext::current(), root);
        drop(guard);
        // Inside a live span the disabled one is invisible: the live
        // span stays the causal parent of what opens under it.
        let (live, ring) = Obs::ring(16);
        let outer = live.timed("outer_span");
        let under_outer = SpanContext::current();
        assert_eq!(under_outer.parent(), outer.span_id());
        let disabled = obs.timer("inner_span").start(&obs);
        assert_eq!(SpanContext::current(), under_outer);
        let child = live.timed("child_span");
        drop((child, disabled, outer));
        assert_eq!(SpanContext::current(), root);
        let events = ring.events();
        assert_eq!(events.len(), 2, "the disabled span emits nothing");
        assert_eq!(events[0].field("parent"), events[1].field("span_id"));
        assert!(obs.snapshot().histograms.is_empty(), "no _ns histogram");
    }

    #[test]
    fn ring_handle_captures_emitted_events() {
        let (obs, ring) = Obs::ring(16);
        assert!(obs.enabled(names::SIM_REFRESH));
        obs.emit_with(names::SIM_REFRESH, EventKind::Point, |e| {
            e.with("item", 3u64)
        });
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].target, names::SIM_REFRESH);
        assert_eq!(events[0].field("item"), Some(&Value::U64(3)));
    }

    #[test]
    fn timed_guard_records_histogram_and_event() {
        let (obs, ring) = Obs::ring(16);
        {
            let mut span = obs.timed(names::GP_SOLVE);
            span.set(names::LABEL_QUERY, 3u64);
            span.set("gap", 0.5);
        }
        let snap = obs.snapshot();
        let hist = &snap.histograms["gp.solve_ns"];
        assert_eq!(hist.count, 1);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].target, "gp.solve_ns");
        assert_eq!(events[0].kind, EventKind::Timing);
        let keys: Vec<&str> = events[0].fields.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["dur_ns", "span_id", "query", "gap"]);
    }

    #[test]
    fn clones_share_subscriber_and_registry() {
        let (obs, ring) = Obs::ring(16);
        let clone = obs.clone();
        clone.counter("shared").inc();
        clone.emit_with("x", EventKind::Count, |e| e);
        assert_eq!(obs.snapshot().counters["shared"], 1);
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn config_roundtrip_through_jsonl_file() {
        let dir = std::env::temp_dir().join("pq-obs-test-config");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let config = ObsConfig {
            jsonl: Some(path.clone()),
            ..ObsConfig::default()
        };
        assert!(!config.is_off());
        let obs = Obs::from_config(&config).unwrap();
        obs.emit_with(names::DAB_RECOMPUTE, EventKind::Count, |e| {
            e.with("query", 0u64).with("reason", "refresh")
        });
        {
            let _span = obs.timed(names::GP_SOLVE);
        }
        obs.flush();
        let contents = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = contents
            .lines()
            .map(|l| crate::jsonl::parse(l).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].target, names::DAB_RECOMPUTE);
        assert_eq!(events[1].target, "gp.solve_ns");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn off_config_yields_null_handle() {
        let obs = Obs::from_config(&ObsConfig::default()).unwrap();
        assert!(!obs.enabled("anything"));
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn nested_timed_guards_emit_parented_span_events() {
        let (obs, ring) = Obs::ring(16);
        {
            let _outer = obs.timed("outer_span");
            let _inner = obs.timed("inner_span");
        }
        let events = ring.events();
        // Guards drop inner-first.
        assert_eq!(events[0].target, "inner_span_ns");
        assert_eq!(events[1].target, "outer_span_ns");
        let outer_id = match events[1].field("span_id") {
            Some(&Value::U64(id)) => id,
            other => panic!("outer span_id missing: {other:?}"),
        };
        assert_eq!(events[1].field("parent"), None);
        assert_eq!(events[0].field("parent"), Some(&Value::U64(outer_id)));
    }

    #[test]
    fn timer_reuses_handles_across_starts() {
        let (obs, ring) = Obs::ring(16);
        let timer = obs.timer("reused_span");
        for _ in 0..3 {
            let _g = timer.start(&obs);
        }
        assert_eq!(obs.snapshot().histograms["reused_span_ns"].count, 3);
        assert_eq!(ring.events().len(), 3);
        // Distinct spans each time.
        let ids: Vec<_> = ring
            .events()
            .iter()
            .map(|e| e.field("span_id").cloned())
            .collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|i| i.is_some()));
        assert_ne!(ids[0], ids[1]);
    }
}
