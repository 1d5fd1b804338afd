//! Property tests for the two universes.
//!
//! The contract is *the same bits*: whatever the worker count, a universe
//! is the tape the item-by-item generator built before paths were made in
//! chunks. That generator — parameters and path interleaved on one
//! thread, samples pushed into a `Vec` — lives on here as the oracle.
//! The worker count is forced through the private `*_on` builders (the
//! public functions take none), so this file is compiled into the crate's
//! unit tests from `src/trace.rs`.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    build_paths, chunk_items, standard_normal, universe_workers, Trace, TraceSet, CHUNK_SAMPLES,
};

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

/// The claim loop itself, on paths that cost nothing: every item count
/// up to one past three full chunks, for chunks of one to five items,
/// comes back complete and in item order whoever built which chunk.
#[test]
fn chunks_come_back_in_item_order_around_every_boundary() {
    for workers in WORKERS {
        for chunk_items in 1..=5 {
            for n_items in 1..=3 * chunk_items + 1 {
                let built = build_paths(workers, chunk_items, n_items, |i| {
                    Trace::constant(i as f64, 1)
                });
                let items: Vec<f64> = built.iter().map(Trace::initial).collect();
                let want: Vec<f64> = (0..n_items).map(|i| i as f64).collect();
                assert_eq!(items, want, "{workers} workers, chunks of {chunk_items}");
            }
        }
    }
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

/// A worker that stalls after claiming its first chunk costs the tape
/// that chunk and no more: the calling thread builds its own share, then
/// steals the rest of the stalled worker's. The worker's first path
/// waits until the caller has built every other chunk, and the caller's
/// first waits until the worker has claimed, so the split is the same on
/// every run.
#[test]
fn a_stalled_worker_costs_one_chunk() {
    const TICKS: usize = 1000;
    const N_ITEMS: usize = 100;
    /// Long enough never to fire on a loaded machine; it turns a broken
    /// hand-off into a failure instead of a hang.
    const PATIENCE: Duration = Duration::from_secs(60);
    #[derive(Default)]
    struct Hand {
        /// The first item the spawned worker reached.
        stalled_on: Option<usize>,
        /// Items the calling thread has built.
        built_by_caller: Vec<usize>,
        released: bool,
    }
    let per_chunk = chunk_items(TICKS);
    assert_eq!(N_ITEMS.div_ceil(per_chunk), 7);
    let path = |i: usize| Trace::gbm(100.0, 0.0, 0.01, TICKS, i as u64);
    let caller = std::thread::current().id();
    let hand = Mutex::new(Hand::default());
    let signal = Condvar::new();
    let wait = |until: &dyn Fn(&Hand) -> bool, what: &str| {
        let guard = hand.lock().unwrap();
        let (guard, timeout) = signal
            .wait_timeout_while(guard, PATIENCE, |h| !until(h))
            .unwrap();
        assert!(!timeout.timed_out(), "waited {PATIENCE:?} for {what}");
        drop(guard);
    };
    let built = build_paths(2, per_chunk, N_ITEMS, |i| {
        if std::thread::current().id() == caller {
            if i == 0 {
                wait(&|h| h.stalled_on.is_some(), "the worker to claim");
            }
            let mut h = hand.lock().unwrap();
            h.built_by_caller.push(i);
            if h.built_by_caller.len() == N_ITEMS - per_chunk {
                h.released = true;
                signal.notify_all();
            }
        } else {
            let mut h = hand.lock().unwrap();
            if h.stalled_on.is_none() {
                h.stalled_on = Some(i);
                signal.notify_all();
                drop(h);
                wait(&|h| h.released, "the caller to build every other chunk");
            }
        }
        path(i)
    });
    let alone = build_paths(1, per_chunk, N_ITEMS, path);
    let bits = |tape: &[Trace]| -> Vec<Vec<u64>> {
        tape.iter()
            .map(|t| t.values().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&built), bits(&alone));
    let hand = hand.into_inner().unwrap();
    let stalled_chunk = hand.stalled_on.unwrap() / per_chunk;
    let mut caller_chunks: Vec<usize> =
        hand.built_by_caller.iter().map(|i| i / per_chunk).collect();
    caller_chunks.dedup();
    let others: Vec<usize> = (0..7).filter(|&c| c != stalled_chunk).collect();
    assert_eq!(caller_chunks, others, "the caller built all chunks but one");
}

/// A path that panics on a worker thread is reported in its own words.
#[test]
#[should_panic(expected = "path 7 failed")]
fn a_workers_panic_keeps_its_message() {
    build_paths(3, 1, 9, |i| {
        assert!(i != 7, "path {i} failed");
        Trace::constant(1.0, 2)
    });
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
