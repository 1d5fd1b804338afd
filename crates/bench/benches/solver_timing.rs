//! §V-A "Solver": running-time of the DAB optimizations.
//!
//! The paper reports 40–70 ms per Dual-DAB PPQ solve (CVXOPT on a 2.66 GHz
//! P4) and 600–750 ms for AAO over 10 PPQs (≈ 10–15× one PPQ). These
//! benches measure our from-scratch GP solver on problems of the same
//! shape. Both are practical here, but the ratio is not the paper's: a
//! Dual-DAB solve runs on the warm-started compiled path, AAO on the
//! object-form program from a scalar start (EXPERIMENTS.md §V-A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pq_core::{aao, dual_dab, optimal_refresh, SolveContext};
use pq_ddm::{RateEstimator, TraceSet};
use pq_workload::{WorkloadConfig, WorkloadGen};

fn setup(n_items: usize) -> (TraceSet, Vec<f64>, Vec<f64>) {
    let traces = TraceSet::stock_universe(n_items, 600, 7);
    let values = traces.initial_values();
    let rates = RateEstimator::SampledAverage { interval_ticks: 60 }.estimate_all(&traces);
    (traces, values, rates)
}

fn workload(n_items: usize) -> WorkloadGen {
    WorkloadGen::with_config(
        WorkloadConfig {
            n_items,
            ..WorkloadConfig::default()
        },
        99,
    )
}

fn bench_single_ppq(c: &mut Criterion) {
    let (_traces, values, rates) = setup(100);
    // The paper's PPQ shape: 12-14 items (6-7 legs).
    let query = workload(100).portfolio_queries(1, &values).remove(0);
    let ctx = SolveContext::new(&values, &rates);

    c.bench_function("dual_dab/ppq-13-items", |b| {
        b.iter(|| dual_dab(&query, &ctx, 5.0).unwrap())
    });
    c.bench_function("optimal_refresh/ppq-13-items", |b| {
        b.iter(|| optimal_refresh(&query, &ctx).unwrap())
    });
}

fn bench_aao(c: &mut Criterion) {
    let (_traces, values, rates) = setup(100);
    let ctx = SolveContext::new(&values, &rates);
    let mut group = c.benchmark_group("aao");
    group.sample_size(10);
    for n_queries in [2usize, 5, 10] {
        let queries = workload(100).portfolio_queries(n_queries, &values);
        group.bench_with_input(
            BenchmarkId::from_parameter(n_queries),
            &queries,
            |b, queries| b.iter(|| aao(queries, &ctx, 5.0).unwrap()),
        );
    }
    group.finish();
}

fn bench_query_size_scaling(c: &mut Criterion) {
    let (_traces, values, rates) = setup(100);
    let ctx = SolveContext::new(&values, &rates);
    let mut group = c.benchmark_group("dual_dab_scaling");
    for legs in [2usize, 4, 8, 16] {
        let query = WorkloadGen::with_config(
            WorkloadConfig {
                n_items: 100,
                legs: legs..=legs,
                ..WorkloadConfig::default()
            },
            5,
        )
        .portfolio_queries(1, &values)
        .remove(0);
        group.bench_with_input(BenchmarkId::from_parameter(legs), &query, |b, q| {
            b.iter(|| dual_dab(q, &ctx, 5.0).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_ppq,
    bench_aao,
    bench_query_size_scaling
);
criterion_main!(benches);
