//! Property tests for the cross-query shared evaluation plan.
//!
//! [`SharedPlan`] defines its own deterministic float semantics: every
//! distinct monomial is computed once (coefficient-free) and scattered
//! as `c_q · m` per subscription, so it cannot promise bit-identity
//! with the naive [`Polynomial::eval`] (which folds coefficients first).
//! What it does promise, checked here across random books whose item
//! ids are scattered over a wider universe with random gaps (a book
//! reads a handful of items out of thousands; the plan's index must not
//! care where they sit):
//!
//! * full evaluation and long delta-maintained walks (with rebases
//!   interleaved at random cadences) track naive evaluation within
//!   the engine's `1e-9 · (1 + |v|)` tolerance at every step;
//! * its own semantics are *bit-deterministic*: permuting the book, or
//!   reaching the same live set through admit/retire churn (with or
//!   without compaction), reproduces every query value bit-for-bit
//!   against a fresh compile;
//! * retired slots pin to exactly `0.0` and never receive deltas, and
//!   items outside the book scatter nothing.

use proptest::prelude::*;

use pq_poly::{ItemId, PTerm, Polynomial, SharedPlan, SharedView};

const N_ITEMS: usize = 6;

fn x(i: u32) -> ItemId {
    ItemId(i)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Arbitrary sparse polynomial over `N_ITEMS` items with per-term total
/// degree <= 4: up to two factors `x_i^e`, `e in 1..=2` (duplicate items
/// merge, so shapes span constants through degree-4 general terms).
fn arb_poly() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec(
        (
            (-20.0f64..20.0).prop_filter("nonzero", |c| c.abs() > 1e-3),
            proptest::collection::vec((0u32..N_ITEMS as u32, 1u32..=2), 0..=2),
        ),
        1..8,
    )
    .prop_map(|terms| {
        Polynomial::from_terms(
            terms
                .into_iter()
                .map(|(c, vars)| PTerm::new(c, vars.into_iter().map(|(i, e)| (x(i), e))).unwrap()),
        )
    })
    .prop_filter("non-zero polynomial", |p| !p.is_zero())
}

/// A small book of overlapping queries — the regime CSE exists for.
fn arb_book() -> impl Strategy<Value = Vec<Polynomial>> {
    proptest::collection::vec(arb_poly(), 1..6)
}

/// `N_ITEMS` strictly ascending item ids with random gaps (a gap of 1
/// keeps neighbours contiguous; the first id may be 0 or far from it).
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..400, N_ITEMS).prop_map(|gaps| {
        gaps.iter()
            .scan(0u32, |next, &gap| {
                *next += gap;
                Some(*next - 1)
            })
            .collect()
    })
}

/// `book` with dense item `k` renamed to `ids[k]`.
fn scatter_book(book: &[Polynomial], ids: &[u32]) -> Vec<Polynomial> {
    book.iter()
        .map(|p| p.map_items(|i| x(ids[i.index()])))
        .collect()
}

/// A value slice over the scattered universe: `v[k]` at slot `ids[k]`,
/// NaN everywhere else, so reading a slot no item owns poisons the
/// result.
fn scatter_values(v: &[f64], ids: &[u32]) -> Vec<f64> {
    let mut out = vec![f64::NAN; ids[ids.len() - 1] as usize + 1];
    for (&id, &value) in ids.iter().zip(v) {
        out[id as usize] = value;
    }
    out
}

/// A random walk: which item moves, and the value it moves to.
fn arb_updates(len: usize) -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0..N_ITEMS, -10.0f64..10.0), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shared full evaluation agrees with naive evaluation of every
    /// query within the engine tolerance, and the scatter covers every
    /// live subscription of the book.
    #[test]
    fn shared_full_eval_tracks_naive(
        book in arb_book(),
        ids in arb_ids(),
        v in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
    ) {
        let (book, v) = (scatter_book(&book, &ids), scatter_values(&v, &ids));
        let plan = SharedPlan::compile(book.iter());
        prop_assert!(plan.degree() <= 4);
        let (mut scratch, mut qv) = (Vec::new(), Vec::new());
        plan.full_eval_into(&v, &mut scratch, &mut qv);
        prop_assert_eq!(qv.len(), book.len());
        prop_assert!(plan.n_terms() <= plan.scatter_fanout());
        for (qi, p) in book.iter().enumerate() {
            let naive = p.eval(&v);
            prop_assert!(
                close(qv[qi], naive),
                "q{}: shared {} vs naive {}", qi, qv[qi], naive
            );
        }
    }

    /// Shared semantics are bit-deterministic under book permutation:
    /// the distinct-monomial values and every per-query value are
    /// reproduced bit-for-bit when the book is rotated.
    #[test]
    fn shared_eval_is_bit_invariant_under_permutation(
        book in arb_book(),
        rot in 0usize..6,
        v in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
    ) {
        let rot = rot % book.len();
        let mut rotated: Vec<&Polynomial> = book.iter().collect();
        rotated.rotate_left(rot);
        let plan = SharedPlan::compile(book.iter());
        let plan_r = SharedPlan::compile(rotated.iter().copied());
        let (mut s1, mut qv1) = (Vec::new(), Vec::new());
        let (mut s2, mut qv2) = (Vec::new(), Vec::new());
        plan.full_eval_into(&v, &mut s1, &mut qv1);
        plan_r.full_eval_into(&v, &mut s2, &mut qv2);
        prop_assert_eq!(plan.n_terms(), plan_r.n_terms());
        for (qi, &q1) in qv1.iter().enumerate() {
            let ri = (qi + book.len() - rot) % book.len();
            prop_assert_eq!(
                q1.to_bits(), qv2[ri].to_bits(),
                "q{} (rotated slot {}): {} vs {}", qi, ri, q1, qv2[ri]
            );
        }
    }

    /// A long delta-maintained walk with rebases interleaved at a
    /// random cadence tracks naive evaluation within tolerance at every
    /// step, including the steps straddling rebase boundaries.
    #[test]
    fn shared_delta_walk_with_rebases_tracks_naive(
        book in arb_book(),
        ids in arb_ids(),
        v0 in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
        updates in arb_updates(150),
        rebase_every in 1usize..48,
    ) {
        let (book, mut v) = (scatter_book(&book, &ids), scatter_values(&v0, &ids));
        let plan = SharedPlan::compile(book.iter());
        let mut view = SharedView::new(&plan, &v);
        for (step, &(item, new)) in updates.iter().enumerate() {
            let item = ids[item] as usize;
            let old = v[item];
            view.apply(&plan, &v, item, old, new);
            v[item] = new;
            for (qi, p) in book.iter().enumerate() {
                let naive = p.eval(&v);
                prop_assert!(
                    close(view.value(qi), naive),
                    "step {} q{}: shared {} vs naive {}", step, qi, view.value(qi), naive
                );
            }
            if (step + 1) % rebase_every == 0 {
                // The periodic rebase: a fresh shared full evaluation,
                // bit-identical to a from-scratch pass.
                view.rebase(&plan, &v);
                let (mut s, mut fresh) = (Vec::new(), Vec::new());
                SharedPlan::compile(book.iter()).full_eval_into(&v, &mut s, &mut fresh);
                for (qi, fresh) in fresh.iter().enumerate() {
                    prop_assert_eq!(view.value(qi).to_bits(), fresh.to_bits());
                }
            }
        }
    }

    /// Any admit/retire churn sequence that lands on a given live set
    /// reproduces a fresh compile of that set bit-for-bit — before and
    /// after compaction — and the walk stays within tolerance after
    /// churn (deltas dispatch through the overlays).
    #[test]
    fn churned_plan_is_bit_identical_to_fresh_compile(
        book in arb_book(),
        admissions in proptest::collection::vec(arb_poly(), 1..4),
        retire_picks in proptest::collection::vec(0usize..8, 1..4),
        v in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
        updates in arb_updates(20),
        compact_pick in 0usize..2,
    ) {
        let mut plan = SharedPlan::compile(book.iter());
        // Live set as (slot, polynomial), kept in slot order.
        let mut live: Vec<(u32, Polynomial)> = book
            .iter()
            .cloned()
            .enumerate()
            .map(|(s, p)| (s as u32, p))
            .collect();
        let mut ops = admissions.into_iter();
        for pick in retire_picks {
            // Interleave: retire one live query, then admit a new one
            // (slot reuse exercises the tombstone free list).
            if !live.is_empty() {
                let victim = pick % live.len();
                let (slot, _) = live.remove(victim);
                prop_assert!(plan.retire(slot));
            }
            if let Some(p) = ops.next() {
                let slot = plan.admit(&p);
                let at = live.partition_point(|&(s, _)| s < slot);
                live.insert(at, (slot, p));
            }
        }
        if compact_pick == 1 {
            plan.compact();
        }
        prop_assert_eq!(plan.live_queries(), live.len());

        let fresh = SharedPlan::compile(live.iter().map(|(_, p)| p));
        let (mut s1, mut qv1) = (Vec::new(), Vec::new());
        let (mut s2, mut qv2) = (Vec::new(), Vec::new());
        plan.full_eval_into(&v, &mut s1, &mut qv1);
        fresh.full_eval_into(&v, &mut s2, &mut qv2);
        for (fi, &(slot, _)) in live.iter().enumerate() {
            prop_assert_eq!(
                qv1[slot as usize].to_bits(), qv2[fi].to_bits(),
                "slot {}: churned {} vs fresh {}", slot, qv1[slot as usize], qv2[fi]
            );
        }
        // Retired slots pin to exactly zero and stay there under deltas.
        let live_slots: Vec<usize> = live.iter().map(|&(s, _)| s as usize).collect();
        let mut v = v;
        for &(item, new) in &updates {
            let old = v[item];
            plan.delta_scatter(&v, x(item as u32), old, new, &mut qv1);
            v[item] = new;
        }
        for (slot, qv) in qv1.iter().enumerate() {
            if live_slots.binary_search(&slot).is_err() {
                prop_assert_eq!(*qv, 0.0, "retired slot {} drifted", slot);
            }
        }
        for &(slot, ref p) in &live {
            let full = p.eval(&v);
            prop_assert!(
                close(qv1[slot as usize], full),
                "slot {} after churned walk: {} vs {}", slot, qv1[slot as usize], full
            );
        }
    }

    /// Deltas touch exactly the terms containing the item: every id the
    /// book never references — below, between and above its own —
    /// scatters nothing, costs nothing and leaves every value alone.
    #[test]
    fn foreign_items_scatter_nothing(
        book in arb_book(),
        ids in arb_ids(),
        v in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
        old in -10.0f64..10.0,
        new in -10.0f64..10.0,
    ) {
        let (book, v) = (scatter_book(&book, &ids), scatter_values(&v, &ids));
        let plan = SharedPlan::compile(book.iter());
        let own: Vec<ItemId> = book.iter().flat_map(Polynomial::items).collect();
        let (mut scratch, mut qv) = (Vec::new(), Vec::new());
        plan.full_eval_into(&v, &mut scratch, &mut qv);
        let before = qv.clone();
        for id in 0..v.len() as u32 + 2 {
            if own.contains(&x(id)) {
                prop_assert!(plan.delta_cost(x(id)) > 0);
            } else {
                prop_assert_eq!(plan.delta_cost(x(id)), 0);
                prop_assert_eq!(plan.delta_scatter(&v, x(id), old, new, &mut qv), 0);
            }
        }
        prop_assert_eq!(qv, before);
    }
}
