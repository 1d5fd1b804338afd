//! Why a short run of an overlapping book recomputes a thousand times
//! more often per tick than a long one — the delays have nothing to do
//! with it.
//!
//! A tape shorter than `SampledAverage`'s interval gives every item one
//! rate sample, its endpoint displacement over the tape's length. One
//! sample of a random walk has a heavy lower tail: on the 40-tick cut
//! below the median item reads 1.1x its 240-tick rate, but a tenth of
//! them read 0.3x or less and the unluckiest 0.02x. Dual-DAB prices an item
//! it believes immobile as free on both counts (`lambda / b` in the
//! objective, `lambda / c <= R` in the escape row) and hands it a
//! near-zero filter and validity range; the item's real movement then
//! leaves that range on almost every tick, and on an overlapping book
//! each escape re-solves every query that reads the item.

use pq_ddm::{RateEstimator, Trace, TraceSet};
use pq_sim::{run, DelayConfig, SimConfig};
use pq_workload::{WorkloadConfig, WorkloadGen};

const SEED: u64 = 0x1CDE_2008;
const N_ITEMS: usize = 100;
const FULL_TICKS: usize = 240;
const CUT_TICKS: usize = 40;

/// Recomputations per tick of the book on the first `ticks` ticks of the
/// tape, rates sampled every `interval_ticks`.
fn recomputations_per_tick(ticks: usize, delays: DelayConfig, interval_ticks: usize) -> f64 {
    let full = TraceSet::stock_universe(N_ITEMS, FULL_TICKS, SEED);
    let legs = 3..=4;
    let mut gen = WorkloadGen::with_config(
        WorkloadConfig {
            n_items: N_ITEMS,
            legs,
            ..WorkloadConfig::default()
        },
        SEED,
    );
    let queries = gen.overlapping_book(240, 0.9, &full.initial_values());
    let cut = |t: &Trace| Trace::from_values(t.values()[..ticks].to_vec());
    let mut cfg = SimConfig::new(
        TraceSet::new(full.traces().iter().map(cut).collect()),
        queries,
    );
    cfg.seed = SEED;
    cfg.delays = delays;
    cfg.rate_estimator = RateEstimator::SampledAverage { interval_ticks };
    run(&cfg).unwrap().recomputations as f64 / ticks as f64
}

#[test]
fn a_tape_shorter_than_the_rate_interval_recomputes_constantly_with_or_without_delays() {
    let long = recomputations_per_tick(FULL_TICKS, DelayConfig::planetlab_like(), 60);
    let short = recomputations_per_tick(CUT_TICKS, DelayConfig::planetlab_like(), 60);
    let short_zero_delay = recomputations_per_tick(CUT_TICKS, DelayConfig::zero(), 60);
    // Measured: 0.04, 20.9 and 22.5 per tick.
    assert!(
        (short - short_zero_delay).abs() <= 0.1 * short_zero_delay,
        "the delays are not the cause: {short} vs {short_zero_delay}"
    );
    assert!(
        short_zero_delay >= 10.0 * long,
        "{short_zero_delay} vs {long}"
    );
    // The same 40 ticks with an interval that fits them four times.
    let sampled = recomputations_per_tick(CUT_TICKS, DelayConfig::zero(), 10);
    assert!(sampled <= 0.1 * short_zero_delay, "{sampled}");
}
