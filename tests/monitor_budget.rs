//! The deployable `Monitor`'s Newton-step budget on a fig5-style book.
//! It solves at `pq_core::dab_solver_options`, the one DAB solver
//! configuration, so an install solve and a recompute each start from a
//! predicted optimum and take a handful of Newton steps, not
//! the ≈ 8 of the generic solver default it used to install with.

use polyquery::obs::{Event, Value};
use polyquery::workload::{WorkloadConfig, WorkloadGen};
use polyquery::{ItemId, Monitor, Obs, RateEstimator, TraceSet};

/// Mean Newton steps an install solve, and a recompute, may take: the
/// reading, 1.00, plus a half, so a return to two steps fails.
const MAX_MEAN_STEPS: f64 = 1.5;

/// `newton_steps` of every `gp.solve` span in `events`.
fn newton_steps(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter(|e| e.target == "gp.solve_ns")
        .filter_map(|e| match e.field("newton_steps") {
            Some(Value::U64(n)) => Some(*n),
            _ => None,
        })
        .collect()
}

fn mean(steps: &[u64]) -> f64 {
    steps.iter().sum::<u64>() as f64 / steps.len() as f64
}

#[test]
fn install_and_recompute_take_a_handful_of_newton_steps() {
    // 40 items, 40 PPQs of 6-7 legs over 30 000 ticks (a fall re-solves
    // no unit and most rises only re-anchor one, down to its floor, so
    // 20 000 ticks hold only 85 recomputes): 40 install solves and 123
    // recomputes, 1.00 Newton step each, the first iterate within the
    // certified gap `DAB_GAP` (122 recomputes of 2.00 down to the `1e-5`
    // tolerance, 4.05 from centred duals, 7.40 and 8.00 under the
    // generic default, read at 3 000 ticks before either rule).
    let (n_items, n_queries, n_ticks) = (40, 40, 30_000);
    let traces = TraceSet::stock_universe(n_items, n_ticks, 0x1CDE_2008);
    let initial = traces.initial_values();
    let config = WorkloadConfig {
        n_items,
        ..WorkloadConfig::default()
    };
    let queries = WorkloadGen::with_config(config, 7).portfolio_queries(n_queries, &initial);
    let rates = RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&traces);

    let (obs, ring) = Obs::ring(1 << 16);
    let mut monitor = Monitor::new().with_obs(obs);
    for (i, (value, rate)) in initial.iter().zip(&rates).enumerate() {
        monitor.add_item(&format!("x{i}"), *value, *rate);
    }
    for q in queries {
        monitor.add_query(q);
    }
    let mut filters = vec![f64::INFINITY; n_items];
    for (item, filter) in monitor.install().expect("install") {
        filters[item.index()] = filter;
    }
    let installed = ring.events().len();

    // Closed loop, one client: a source pushes when its value leaves the
    // filter around what it last pushed, and applies the filter changes
    // each call returns; sweep a tick until nobody is outside.
    let mut pushed = initial;
    for tick in 1..n_ticks {
        loop {
            let mut any = false;
            for (item, last) in pushed.iter_mut().enumerate() {
                let value = traces.trace(item).at(tick);
                if (value - *last).abs() <= filters[item] {
                    continue;
                }
                any = true;
                *last = value;
                let outcome = monitor
                    .on_refresh(ItemId(item as u32), value)
                    .expect("refresh");
                for (changed, filter) in outcome.filter_changes {
                    filters[changed.index()] = filter;
                }
            }
            if !any {
                break;
            }
        }
    }

    assert_eq!(ring.dropped(), 0, "ring too small for the replay");
    let events = ring.events();
    let (install, recompute) = (
        newton_steps(&events[..installed]),
        newton_steps(&events[installed..]),
    );
    assert!(
        install.len() >= n_queries,
        "{} install solves",
        install.len()
    );
    assert!(recompute.len() >= 100, "{} recomputes", recompute.len());
    let (install, recompute) = (mean(&install), mean(&recompute));
    assert!(
        install <= MAX_MEAN_STEPS && recompute <= MAX_MEAN_STEPS,
        "{install:.2} Newton steps per install solve, {recompute:.2} per recompute; \
         ceiling {MAX_MEAN_STEPS}"
    );
}
