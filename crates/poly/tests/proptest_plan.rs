//! Property tests for compiled evaluation plans and delta maintenance.
//!
//! The simulator's incremental views rest on two properties checked
//! here across random sparse polynomials up to degree 4, whose item ids
//! are scattered over a wider universe with random gaps (a query reads
//! a handful of items out of thousands; the plan's index must not care
//! where they sit):
//!
//! * [`EvalPlan::eval`] is *bit-identical* to the naive
//!   [`Polynomial::eval`], so switching to the compiled path can never
//!   flip a QAB comparison;
//! * a long random sequence of [`EvalPlan::delta_eval`] updates folded
//!   into a running sum (with rebases interleaved, as the engine does
//!   every `rebase_every` ticks) stays within tolerance of a fresh
//!   naive evaluation.

use proptest::prelude::*;

use pq_poly::{EvalPlan, ItemId, PTerm, Polynomial};

const N_ITEMS: usize = 6;

fn x(i: u32) -> ItemId {
    ItemId(i)
}

/// Arbitrary sparse polynomial over `N_ITEMS` items with per-term total
/// degree <= 4: up to three factors, each `x_i^e` with `e in 1..=2`
/// (duplicate items merge, so shapes span constants through degree-4
/// `General` terms).
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

/// `p` with dense item `k` renamed to `ids[k]`.
fn scatter_poly(p: &Polynomial, ids: &[u32]) -> Polynomial {
    p.map_items(|i| x(ids[i.index()]))
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

    /// Full compiled evaluation returns the exact same bits as naive.
    #[test]
    fn compiled_eval_is_bit_identical_to_naive(
        p in arb_poly(),
        ids in arb_ids(),
        v in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
    ) {
        let (p, v) = (scatter_poly(&p, &ids), scatter_values(&v, &ids));
        let plan = EvalPlan::compile(&p);
        prop_assert!(plan.degree() <= 4);
        let compiled = plan.eval(&v);
        let naive = p.eval(&v);
        prop_assert_eq!(
            compiled.to_bits(), naive.to_bits(),
            "compiled {} vs naive {}", compiled, naive
        );
    }

    /// A long delta-maintained running sum with interleaved rebases
    /// tracks fresh naive evaluation within tolerance at every step.
    #[test]
    fn delta_sequence_with_rebases_tracks_naive(
        p in arb_poly(),
        ids in arb_ids(),
        v0 in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
        updates in arb_updates(200),
        rebase_every in 1usize..64,
    ) {
        let (p, mut v) = (scatter_poly(&p, &ids), scatter_values(&v0, &ids));
        let plan = EvalPlan::compile(&p);
        let mut running = plan.eval(&v);
        for (step, &(item, new)) in updates.iter().enumerate() {
            let item = ids[item] as usize;
            let old = v[item];
            running += plan.delta_eval(&v, x(item as u32), old, new);
            v[item] = new;
            let naive = p.eval(&v);
            prop_assert!(
                (running - naive).abs() <= 1e-9 * (1.0 + naive.abs()),
                "step {}: running {} vs naive {}", step, running, naive
            );
            if (step + 1) % rebase_every == 0 {
                // The engine's periodic rebase: replace the running sum
                // with a fresh full evaluation (bit-identical to naive).
                running = plan.eval(&v);
                prop_assert_eq!(running.to_bits(), naive.to_bits());
            }
        }
    }

    /// Deltas touch exactly the terms containing the item: every id the
    /// polynomial never references — below, between and above its own —
    /// has no terms and produces a delta of exactly zero.
    #[test]
    fn foreign_items_produce_zero_delta(
        p in arb_poly(),
        ids in arb_ids(),
        v in proptest::collection::vec(-10.0f64..10.0, N_ITEMS),
        old in -10.0f64..10.0,
        new in -10.0f64..10.0,
    ) {
        let (p, v) = (scatter_poly(&p, &ids), scatter_values(&v, &ids));
        let plan = EvalPlan::compile(&p);
        let own = p.items();
        for id in 0..v.len() as u32 + 2 {
            if own.contains(&x(id)) {
                prop_assert!(!plan.terms_for(x(id)).is_empty());
            } else {
                prop_assert_eq!(plan.terms_for(x(id)), &[] as &[u32]);
                prop_assert_eq!(plan.delta_eval(&v, x(id), old, new), 0.0);
            }
        }
    }
}
