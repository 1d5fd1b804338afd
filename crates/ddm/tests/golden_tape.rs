//! Golden hashes of four tapes, recorded before paths were built in
//! chunks and shared by handle. Every EXPERIMENTS.md number and every
//! pqbench `total_cost_msgs` replays one of these generators: a tape bit
//! that moves should fail here, not in the benchmark.

use pq_ddm::TraceSet;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over the bits of every sample, item by item: the tape half of
/// pqbench's `inputs_hash` (`benchmark/src/inputs.rs`), copied.
fn tape_hash(tape: &TraceSet) -> u64 {
    let mut hash = FNV_OFFSET;
    for trace in tape.traces() {
        for v in trace.values() {
            hash = fnv_word(hash, v.to_bits());
        }
    }
    hash
}

/// The seed of pqbench's tapes, mixed there with the workload's index.
const TAPE_SEED: u64 = 0x1CDE_2008;

#[test]
fn the_fig5_paper_tape_has_not_moved() {
    let tape = TraceSet::stock_universe(100, 1000, TAPE_SEED);
    assert_eq!(tape_hash(&tape), 0xd3ee_2304_bff7_273f);
}

#[test]
fn the_overlap_book_tape_has_not_moved() {
    let tape = TraceSet::stock_universe(400, 400, TAPE_SEED ^ 2);
    assert_eq!(tape_hash(&tape), 0xc81c_bb75_c161_5e6e);
}

#[test]
fn the_monitor_replay_tape_has_not_moved() {
    let tape = TraceSet::stock_universe(100, 700, TAPE_SEED ^ 3);
    assert_eq!(tape_hash(&tape), 0xa748_a132_5ad8_719c);
}

#[test]
fn a_drifting_tape_has_not_moved() {
    let tape = TraceSet::drifting_universe(20, 100, 11);
    assert_eq!(tape_hash(&tape), 0xf430_214f_cc3a_3308);
}
