//! Scheduler + item-state hot-loop benchmark (heap vs wheel, scatter vs
//! SoA, per-event vs batched ingestion).
//!
//! Replays the simulator's event loop — drift a subset of items each
//! tick, push a refresh when a value escapes its DAB filter, drain
//! arrivals and fold them into per-query accumulators — stripped of GP
//! solves so the scheduling and state-layout costs dominate, at 1k /
//! 100k / 1M items. Four variants:
//!
//! * **heap_scatter** — the seed path: `BinaryHeap` event queue,
//!   array-of-structs item state, and a fresh `Vec` of affected queries
//!   allocated per event (as the pre-SoA engine did);
//! * **wheel_scatter** — same state, [`pq_sim::TimerWheel`] scheduler:
//!   isolates the heap → wheel win;
//! * **heap_soa** — heap scheduler over [`pq_sim::ItemTable`] flat
//!   columns with reused scratch: isolates the layout win;
//! * **wheel_soa_batched** — the shipped path: wheel scheduler, SoA
//!   state, and same-delivery-window arrivals drained as one batch
//!   swept in a single pass.
//!
//! Every size runs the four variants [`REPS`] times, interleaved; the
//! reported ns/event are per-variant medians and `full_speedup` is the
//! median over rounds of the *same-round* `heap_scatter` /
//! `wheel_soa_batched` ratio, so a slow phase of the box hits both sides
//! of a pair instead of deciding the gate.
//!
//! `--enforce` additionally requires that median speedup to reach 3x on
//! the largest workload, and replays a fixed-seed fig5-style simulation under
//! [`pq_sim::Scheduler::Heap`] and [`pq_sim::Scheduler::Wheel`],
//! requiring byte-identical metrics.
//!
//! Usage: `simbench [--quick] [--enforce] [--out PATH]`

use std::hint::black_box;
use std::time::Instant;

use pq_bench::{fmt, print_table, Scale};
use pq_core::{AssignmentStrategy, PqHeuristic};
use pq_sim::{
    run, DelayConfig, Event, EventQueue, ItemTable, Scheduler, SimConfig, SimStrategy, TimerWheel,
};

/// Events/sec speedup floor `--enforce` holds the full new path to on
/// the largest workload.
const MIN_FULL_SPEEDUP: f64 = 3.0;
/// Interleaved rounds per size (a single-shot ratio swung 2.7-3.5x on
/// one commit).
const REPS: usize = 5;
/// The wheel's time quantum; delivery delays are quantized to it so
/// same-window arrivals collide (the regime batching is built for).
const QUANTUM: f64 = 1.0 / 64.0;

struct Args {
    quick: bool,
    enforce: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        enforce: false,
        out: "BENCH_sim.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--enforce" => args.enforce = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!(
                    "unknown argument {other}; usage: simbench [--quick] [--enforce] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Plain splitmix-style hash — deterministic drift with no shared RNG.
fn hash2(a: u64, b: u64) -> u64 {
    let mut s = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s ^= s >> 31;
    s
}

/// The synthetic universe: `n_items` items, two queries per item over a
/// pool of `n_items / 8` accumulator queries, `touched` drifting items
/// per tick.
struct Workload {
    n_items: usize,
    n_queries: usize,
    ticks: usize,
    touched: usize,
    item_queries: Vec<Vec<u32>>,
}

impl Workload {
    fn new(n_items: usize, target_events: usize) -> Self {
        let n_queries = (n_items / 8).max(4);
        let item_queries = (0..n_items)
            .map(|i| {
                let a = (i / 8) % n_queries;
                let b = (hash2(i as u64, 0x51) as usize) % n_queries;
                if a == b {
                    vec![a as u32]
                } else {
                    vec![a as u32, b as u32]
                }
            })
            .collect();
        let touched = (n_items / 32).max(16).min(n_items);
        // Roughly half of the touches escape the filter; oversize the
        // tick count so every size processes ~target_events events.
        let ticks = (2 * target_events).div_ceil(touched).max(8);
        Workload {
            n_items,
            n_queries,
            ticks,
            touched,
            item_queries,
        }
    }

    fn initial(&self) -> Vec<f64> {
        (0..self.n_items).map(|i| 100.0 + (i % 50) as f64).collect()
    }

    /// The item drifting at slot `k` of `tick` and its new value, or
    /// `None` when the move stays inside the ±0.5 filter.
    #[inline]
    fn drift(&self, tick: usize, k: usize, value: f64, last_pushed: f64) -> (usize, f64, bool) {
        let h = hash2(tick as u64, k as u64);
        let item = (h % self.n_items as u64) as usize;
        let u = (hash2(h, 0xA5) % 10_000) as f64 / 5_000.0 - 1.0;
        let new = value + u;
        (item, new, (new - last_pushed).abs() > 0.5)
    }

    /// Delivery delay for a push from `tick` slot `k`: mostly sub-second
    /// with a heavy tail up to ~32 s (the planetlab-like Pareto regime),
    /// quantized so same-window arrivals share an exact time. The tail
    /// keeps tens of thousands of events pending at the larger sizes —
    /// the population a comparison-based heap pays `O(log n)` cache
    /// misses on and a timer wheel files in `O(1)`.
    #[inline]
    fn delay(&self, tick: usize, k: usize) -> f64 {
        let h = hash2(tick as u64 ^ 0xD1CE, k as u64);
        if h.is_multiple_of(4) {
            (1u64 << ((h >> 8) % 6)) as f64 + ((h >> 16) % 64) as f64 * QUANTUM
        } else {
            0.25 + ((h >> 16) % 48) as f64 * QUANTUM
        }
    }
}

/// Per-event coordinator work shared by every variant: fold the move
/// into each affected query and check it against the query's bound.
#[inline]
fn fold_event(queries: &[u32], qacc: &mut [f64], old: f64, new: f64, stale: &mut Vec<u32>) {
    for &q in queries {
        let q = q as usize;
        qacc[q] += new - old;
        if qacc[q].abs() > 400.0 {
            stale.push(q as u32);
            qacc[q] = 0.0;
        }
    }
}

/// The seed path and its wheel-only variant: array-of-structs state and
/// a fresh affected-query `Vec` per event.
struct ItemAo {
    value: f64,
    last_pushed: f64,
    coord_value: f64,
}

enum Queue {
    Heap(EventQueue),
    Wheel(TimerWheel),
}

impl Queue {
    fn new(scheduler: Scheduler) -> Self {
        match scheduler {
            Scheduler::Heap => Queue::Heap(EventQueue::new()),
            Scheduler::Wheel => Queue::Wheel(TimerWheel::new()),
        }
    }
    #[inline]
    fn push(&mut self, time: f64, ev: Event) {
        match self {
            Queue::Heap(q) => q.push(time, ev),
            Queue::Wheel(q) => q.push(time, ev),
        }
    }
    #[inline]
    fn pop_until(&mut self, horizon: f64) -> Option<(f64, Event)> {
        match self {
            Queue::Heap(q) => q.pop_until(horizon),
            Queue::Wheel(q) => q.pop_until(horizon),
        }
    }
    #[inline]
    fn peek_time(&mut self) -> Option<f64> {
        match self {
            Queue::Heap(q) => q.peek_time(),
            Queue::Wheel(q) => q.peek_time(),
        }
    }
}

fn run_scatter(w: &Workload, scheduler: Scheduler) -> (u64, f64) {
    let mut items: Vec<ItemAo> = w
        .initial()
        .into_iter()
        .map(|v| ItemAo {
            value: v,
            last_pushed: v,
            coord_value: v,
        })
        .collect();
    let mut queue = Queue::new(scheduler);
    let mut qacc = vec![0.0; w.n_queries];
    let mut events = 0u64;
    let started = Instant::now();
    for tick in 0..=w.ticks {
        let now = tick as f64;
        let horizon = if tick == w.ticks { f64::INFINITY } else { now };
        while let Some((_, ev)) = queue.pop_until(horizon) {
            let Event::RefreshArrive { item, value } = ev else {
                unreachable!()
            };
            // Per-event allocations, as the pre-SoA engine made.
            let affected: Vec<u32> = w.item_queries[item].clone();
            let mut stale: Vec<u32> = Vec::new();
            let old = items[item].coord_value;
            items[item].coord_value = value;
            fold_event(&affected, &mut qacc, old, value, &mut stale);
            black_box(&stale);
            events += 1;
        }
        if tick == w.ticks {
            break;
        }
        for k in 0..w.touched {
            let it = &items[(hash2(tick as u64, k as u64) % w.n_items as u64) as usize];
            let (item, new, escaped) = w.drift(tick, k, it.value, it.last_pushed);
            items[item].value = new;
            if escaped {
                items[item].last_pushed = new;
                queue.push(
                    now + w.delay(tick, k),
                    Event::RefreshArrive { item, value: new },
                );
            }
        }
    }
    (events, started.elapsed().as_secs_f64())
}

fn run_soa(w: &Workload, scheduler: Scheduler, batched: bool) -> (u64, f64) {
    let mut items = ItemTable::new(&w.initial());
    let mut queue = Queue::new(scheduler);
    let mut qacc = vec![0.0; w.n_queries];
    let mut stale: Vec<u32> = Vec::new();
    let mut batch: Vec<(usize, f64)> = Vec::new();
    let mut events = 0u64;
    let started = Instant::now();
    for tick in 0..=w.ticks {
        let now = tick as f64;
        let horizon = if tick == w.ticks { f64::INFINITY } else { now };
        let mut held: Option<(f64, Event)> = None;
        while let Some((t, ev)) = held.take().or_else(|| queue.pop_until(horizon)) {
            let Event::RefreshArrive { item, value } = ev else {
                unreachable!()
            };
            batch.clear();
            batch.push((item, value));
            items.mark_dirty(item);
            if batched {
                // Drain every same-window arrival for distinct items
                // into one batch; a duplicate item starts the next one.
                while queue.peek_time() == Some(t) {
                    let (t2, ev2) = queue.pop_until(horizon).expect("peeked");
                    let Event::RefreshArrive {
                        item: item2,
                        value: value2,
                    } = ev2
                    else {
                        unreachable!()
                    };
                    if items.is_dirty(item2) {
                        held = Some((
                            t2,
                            Event::RefreshArrive {
                                item: item2,
                                value: value2,
                            },
                        ));
                        break;
                    }
                    items.mark_dirty(item2);
                    batch.push((item2, value2));
                }
            }
            // One fused sweep over the batch.
            for &(item, value) in &batch {
                let old = items.coord_value(item);
                items.set_coord_value(item, value);
                stale.clear();
                fold_event(&w.item_queries[item], &mut qacc, old, value, &mut stale);
                black_box(&stale);
            }
            for &(item, _) in &batch {
                items.clear_dirty(item);
            }
            events += batch.len() as u64;
        }
        if tick == w.ticks {
            break;
        }
        for k in 0..w.touched {
            let probe = (hash2(tick as u64, k as u64) % w.n_items as u64) as usize;
            let (item, new, escaped) =
                w.drift(tick, k, items.value(probe), items.last_pushed(probe));
            items.set_value(item, new);
            if escaped {
                items.set_last_pushed(item, new);
                queue.push(
                    now + w.delay(tick, k),
                    Event::RefreshArrive { item, value: new },
                );
            }
        }
    }
    (events, started.elapsed().as_secs_f64())
}

struct Measurement {
    n_items: usize,
    events: u64,
    heap_scatter_ns: f64,
    wheel_scatter_ns: f64,
    heap_soa_ns: f64,
    wheel_soa_batched_ns: f64,
    /// Median same-round `heap_scatter / wheel_soa_batched` ratio.
    full_speedup: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn bench_size(n_items: usize, target_events: usize) -> Measurement {
    let w = Workload::new(n_items, target_events);
    let mut secs: [Vec<f64>; 4] = Default::default();
    let mut ratios = Vec::with_capacity(REPS);
    let mut events = 0;
    for _ in 0..REPS {
        let round = [
            run_scatter(&w, Scheduler::Heap),
            run_scatter(&w, Scheduler::Wheel),
            run_soa(&w, Scheduler::Heap, false),
            run_soa(&w, Scheduler::Wheel, true),
        ];
        events = round[0].0;
        assert!(
            round.iter().all(|&(e, _)| e == events),
            "variants must process identical event streams: {round:?}"
        );
        for (col, &(_, s)) in secs.iter_mut().zip(&round) {
            col.push(s);
        }
        ratios.push(round[0].1 / round[3].1);
    }
    let [heap_scatter_ns, wheel_scatter_ns, heap_soa_ns, wheel_soa_batched_ns] =
        secs.map(|col| median(col) * 1e9 / events.max(1) as f64);
    Measurement {
        n_items,
        events,
        heap_scatter_ns,
        wheel_scatter_ns,
        heap_soa_ns,
        wheel_soa_batched_ns,
        full_speedup: median(ratios),
    }
}

/// Fig5-style simulation config with a selectable scheduler.
fn fig5_config(scale: &Scale, n_queries: usize, scheduler: Scheduler) -> SimConfig {
    let traces = scale.universe();
    let queries = scale
        .workload()
        .portfolio_queries(n_queries, &traces.initial_values());
    let mut cfg = SimConfig::new(traces, queries);
    cfg.gp = scale.sim_gp_options();
    cfg.strategy = SimStrategy::PerQuery {
        strategy: AssignmentStrategy::DualDab { mu: 5.0 },
        heuristic: PqHeuristic::DifferentSum,
    };
    cfg.delays = DelayConfig::planetlab_like();
    cfg.mu_cost = 5.0;
    cfg.scheduler = scheduler;
    cfg
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    let target_events = if args.quick { 300_000 } else { 3_000_000 };
    let sizes = [1_000usize, 100_000, 1_000_000];

    let measurements: Vec<Measurement> = sizes
        .iter()
        .map(|&n| bench_size(n, target_events))
        .collect();

    // Fig5 parity: identical seed, heap vs wheel scheduling. Everything
    // but wall-clock solver time must agree byte-for-byte.
    let n_parity = if args.quick { 10 } else { 32 };
    let mut parity_heap = run(&fig5_config(&scale, n_parity, Scheduler::Heap)).expect("heap run");
    let mut parity_wheel =
        run(&fig5_config(&scale, n_parity, Scheduler::Wheel)).expect("wheel run");
    parity_heap.solver_seconds = 0.0;
    parity_wheel.solver_seconds = 0.0;
    let metrics_match = parity_heap == parity_wheel;

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.n_items.to_string(),
                m.events.to_string(),
                format!("{:.1}", m.heap_scatter_ns),
                format!("{:.1}", m.wheel_scatter_ns),
                format!("{:.1}", m.heap_soa_ns),
                format!("{:.1}", m.wheel_soa_batched_ns),
                fmt(m.full_speedup),
            ]
        })
        .collect();
    print_table(
        "simbench: event-loop cost (ns/event)",
        &[
            "items",
            "events",
            "heap_scatter",
            "wheel_scatter",
            "heap_soa",
            "wheel_soa_batched",
            "full_x",
        ],
        &rows,
    );
    println!(
        "\nfig5 parity (n={n_parity}): metrics {}",
        if metrics_match { "match" } else { "DIFFER" },
    );

    let size_json = |m: &Measurement| {
        let eps = |ns: f64| 1e9 / ns;
        format!(
            "    {{\n      \"n_items\": {},\n      \"events\": {},\n      \
             \"heap_scatter_ns_per_event\": {:.2},\n      \
             \"wheel_scatter_ns_per_event\": {:.2},\n      \
             \"heap_soa_ns_per_event\": {:.2},\n      \
             \"wheel_soa_batched_ns_per_event\": {:.2},\n      \
             \"heap_scatter_events_per_sec\": {:.0},\n      \
             \"wheel_soa_batched_events_per_sec\": {:.0},\n      \
             \"wheel_speedup\": {:.3},\n      \"soa_speedup\": {:.3},\n      \
             \"full_speedup\": {:.3}\n    }}",
            m.n_items,
            m.events,
            m.heap_scatter_ns,
            m.wheel_scatter_ns,
            m.heap_soa_ns,
            m.wheel_soa_batched_ns,
            eps(m.heap_scatter_ns),
            eps(m.wheel_soa_batched_ns),
            m.heap_scatter_ns / m.wheel_scatter_ns,
            m.heap_scatter_ns / m.heap_soa_ns,
            m.full_speedup,
        )
    };
    let json = format!(
        "{{\n  \"quick\": {},\n  \"sizes\": [\n{}\n  ],\n  \
         \"fig5_parity\": {{\n    \"n_queries\": {n_parity},\n    \
         \"metrics_match\": {metrics_match}\n  }}\n}}\n",
        args.quick,
        measurements
            .iter()
            .map(size_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write(&args.out, json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("wrote {}", args.out);

    if args.enforce {
        let mut failed = false;
        let largest = measurements.last().expect("at least one size");
        let full_speedup = largest.full_speedup;
        if full_speedup < MIN_FULL_SPEEDUP {
            eprintln!(
                "FAIL: wheel+SoA+batched speedup {full_speedup:.2}x on the {}-item \
                 workload below the {MIN_FULL_SPEEDUP}x floor",
                largest.n_items
            );
            failed = true;
        }
        if !metrics_match {
            eprintln!("FAIL: fig5 metrics differ between heap and wheel scheduling");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("enforce: full speedup {full_speedup:.2}x and fig5 scheduler parity pass");
    }
}
