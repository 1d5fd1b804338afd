//! Property tests for the two universes.
//!
//! The contract is *the same bits*: whatever the worker count, a universe
//! is the tape the item-by-item generator built before paths were made in
//! chunks. That generator — parameters and path interleaved on one
//! thread, samples pushed into a `Vec` — lives on here as the oracle.
//! The worker count is forced through the private `*_on` builders (the
//! public functions take none), so this file is compiled into the crate's
//! unit tests from `src/trace.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{chunk_items, standard_normal, universe_workers, TraceSet, CHUNK_SAMPLES};

/// Forced worker counts: the loop run once, a pair, a count that leaves
/// a short last share, and one above the chunk count of most shapes below.
const WORKERS: [usize; 4] = [1, 2, 3, 7];

fn oracle_stock(n_items: usize, n_ticks: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_items)
        .map(|i| {
            let initial = 10.0 + 190.0 * rng.gen::<f64>();
            let sigma = 0.0002 + 0.0018 * rng.gen::<f64>();
            let mu = (rng.gen::<f64>() - 0.5) * 2e-5;
            let mut path = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e3779b9));
            let mut values = Vec::with_capacity(n_ticks);
            let mut v = initial;
            for _ in 0..n_ticks {
                values.push(v);
                v *= (mu + sigma * standard_normal(&mut path)).exp();
            }
            values
        })
        .collect()
}

fn oracle_drifting(n_items: usize, n_ticks: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_items)
        .map(|i| {
            let initial = 10.0 + 190.0 * rng.gen::<f64>();
            let rate = initial * (0.0001 + 0.0005 * rng.gen::<f64>());
            let mut path = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x2545F491));
            let mut values = Vec::with_capacity(n_ticks);
            let mut v = initial;
            for _ in 0..n_ticks {
                values.push(v);
                v += rate * (1.0 + 1.0 * path.gen::<f64>());
            }
            values
        })
        .collect()
}

/// The first `(item, tick)` at which the tape's bits leave the oracle's.
fn first_difference(tape: &TraceSet, oracle: &[Vec<f64>]) -> Option<(usize, usize)> {
    assert_eq!(tape.n_items(), oracle.len());
    tape.traces()
        .iter()
        .zip(oracle)
        .enumerate()
        .find_map(|(i, (trace, want))| {
            assert_eq!(trace.len(), want.len());
            let got = trace.values();
            (0..want.len())
                .find(|&t| got[t].to_bits() != want[t].to_bits())
                .map(|t| (i, t))
        })
}

fn assert_both_match_the_oracle(workers: usize, n_items: usize, n_ticks: usize, seed: u64) {
    let shape = format!("{workers} workers, {n_items} x {n_ticks}, seed {seed:#x}");
    let stock = TraceSet::stock_universe_on(workers, n_items, n_ticks, seed);
    let want = oracle_stock(n_items, n_ticks, seed);
    assert_eq!(first_difference(&stock, &want), None, "stock: {shape}");
    let drifting = TraceSet::drifting_universe_on(workers, n_items, n_ticks, seed);
    let want = oracle_drifting(n_items, n_ticks, seed);
    assert_eq!(
        first_difference(&drifting, &want),
        None,
        "drifting: {shape}"
    );
}

/// Both universes one item below, at and one above one and two full
/// chunks, on tapes long enough that a chunk is four items.
#[test]
fn every_chunk_boundary_matches_the_oracle() {
    const TICKS: usize = 4096;
    assert_eq!(chunk_items(TICKS), 4);
    for workers in WORKERS {
        for n_items in [3, 4, 5, 7, 8, 9] {
            assert_both_match_the_oracle(workers, n_items, TICKS, 0x1CDE_2008);
        }
    }
}

/// The public functions either side of the points where they add a
/// worker (64-tick tapes: 256 items a chunk, a worker a chunk up to the
/// core count), on whatever cores this machine shows; with one visible
/// core all six run the one-worker path.
#[test]
fn public_universes_match_the_oracle_either_side_of_the_threshold() {
    const TICKS: usize = 64;
    let per_chunk = chunk_items(TICKS);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        universe_workers(100, 1000),
        7.min(cores),
        "the paper's tape: 7 chunks"
    );
    for workers in [2, 3] {
        let at = (workers - 1) * per_chunk + 1;
        assert_eq!(universe_workers(at - 1, TICKS), (workers - 1).min(cores));
        assert_eq!(universe_workers(at, TICKS), workers.min(cores));
        for n_items in [at - 1, at, at + 1] {
            let stock = TraceSet::stock_universe(n_items, TICKS, 7);
            let want = oracle_stock(n_items, TICKS, 7);
            assert_eq!(first_difference(&stock, &want), None, "stock, {n_items}");
            let drifting = TraceSet::drifting_universe(n_items, TICKS, 7);
            let want = oracle_drifting(n_items, TICKS, 7);
            assert_eq!(
                first_difference(&drifting, &want),
                None,
                "drifting, {n_items}"
            );
        }
    }
}

#[test]
fn clone_and_subset_share_the_samples() {
    let tape = TraceSet::stock_universe(6, 50, 3);
    let copy = tape.clone();
    for (a, b) in tape.traces().iter().zip(copy.traces()) {
        assert_eq!(a.values().as_ptr(), b.values().as_ptr());
    }
    let one = tape.trace(2).clone();
    assert_eq!(one.values().as_ptr(), tape.trace(2).values().as_ptr());
    let picked = [4u32, 0, 4];
    let sub = tape.subset(&picked);
    for (local, &global) in picked.iter().enumerate() {
        assert_eq!(
            sub.trace(local).values().as_ptr(),
            tape.trace(global as usize).values().as_ptr()
        );
    }
    // No item at all is still a universe over the same ticks.
    let none = tape.subset(&[]);
    assert_eq!((none.n_items(), none.n_ticks()), (0, 50));
    assert!(none.initial_values().is_empty());
}

// A bad shape is refused by name on the calling thread, for an item count
// that would stay on it and for one that any tape length would fan out.

#[test]
#[should_panic(expected = "stock_universe: n_ticks must be at least 1")]
fn stock_universe_names_an_empty_tape_below_the_threshold() {
    let _ = TraceSet::stock_universe(4, 0, 1);
}

#[test]
#[should_panic(expected = "stock_universe: n_ticks must be at least 1")]
fn stock_universe_names_an_empty_tape_above_the_threshold() {
    let _ = TraceSet::stock_universe(8 * CHUNK_SAMPLES, 0, 1);
}

#[test]
#[should_panic(expected = "drifting_universe: n_ticks must be at least 1")]
fn drifting_universe_names_an_empty_tape_below_the_threshold() {
    let _ = TraceSet::drifting_universe(4, 0, 1);
}

#[test]
#[should_panic(expected = "drifting_universe: n_ticks must be at least 1")]
fn drifting_universe_names_an_empty_tape_above_the_threshold() {
    let _ = TraceSet::drifting_universe(8 * CHUNK_SAMPLES, 0, 1);
}

#[test]
#[should_panic(expected = "stock_universe: n_items must be at least 1")]
fn stock_universe_names_an_empty_universe() {
    let _ = TraceSet::stock_universe(0, 10, 1);
}

#[test]
#[should_panic(expected = "drifting_universe: n_items must be at least 1")]
fn drifting_universe_names_an_empty_universe() {
    let _ = TraceSet::drifting_universe(0, 10, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_shape_on_any_worker_count_matches_the_oracle(
        which in 0usize..WORKERS.len(),
        n_items in 1usize..40,
        n_ticks in 1usize..30,
        seed in 0u64..u64::MAX,
    ) {
        let workers = WORKERS[which];
        let stock = TraceSet::stock_universe_on(workers, n_items, n_ticks, seed);
        prop_assert_eq!(first_difference(&stock, &oracle_stock(n_items, n_ticks, seed)), None);
        let drifting = TraceSet::drifting_universe_on(workers, n_items, n_ticks, seed);
        prop_assert_eq!(
            first_difference(&drifting, &oracle_drifting(n_items, n_ticks, seed)),
            None
        );
    }
}
