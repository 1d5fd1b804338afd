//! `DeviationMap` against the numeric expansion it replaced.
//!
//! The reference below is that expansion, kept verbatim: expand
//! `P(V + c + b) - P(V + c)` at the numbers `V`, push one monomial per
//! surviving entry, `simplify`. The map compiles the same expansion
//! symbolically once and evaluates coefficients from values; a warm DAB
//! recompute writes those straight into a compiled GP, so they have to be
//! the reference's coefficients bit for bit, in the reference's order.

use proptest::prelude::*;

use pq_gp::{Monomial, Posynomial};
use pq_poly::{
    coupled_items, deviation_posynomial, DabVarIndexer, DabVarMap, DeviationMap, ItemId, PTerm,
    PartialDabVarMap, Polynomial,
};

const ITEMS: u32 = 5;

mod reference {
    use super::*;

    struct Factor {
        coef: f64,
        exps: Vec<(usize, f64)>,
        has_b: bool,
    }

    fn pow_skip_zero(v: f64, j: u32) -> f64 {
        if j == 0 {
            1.0
        } else {
            v.powi(j as i32)
        }
    }

    fn binomial(n: u32, k: u32) -> f64 {
        let mut r = 1.0;
        for i in 0..k {
            r = r * (n - i) as f64 / (i + 1) as f64;
        }
        r
    }

    fn expand_item_factor(v: f64, p: u32, b_var: usize, c_var: Option<usize>) -> Vec<Factor> {
        let mut out = Vec::new();
        match c_var {
            Some(cv) => {
                for l in 0..=p {
                    for k in 0..=(p - l) {
                        let j = p - l - k;
                        let coef = binomial(p, j) * binomial(p - j, k) * pow_skip_zero(v, j);
                        if coef == 0.0 {
                            continue;
                        }
                        let mut exps = Vec::with_capacity(2);
                        if k > 0 {
                            exps.push((cv, k as f64));
                        }
                        if l > 0 {
                            exps.push((b_var, l as f64));
                        }
                        out.push(Factor {
                            coef,
                            exps,
                            has_b: l > 0,
                        });
                    }
                }
            }
            None => {
                for l in 0..=p {
                    let coef = binomial(p, l) * pow_skip_zero(v, p - l);
                    if coef == 0.0 {
                        continue;
                    }
                    let mut exps = Vec::with_capacity(1);
                    if l > 0 {
                        exps.push((b_var, l as f64));
                    }
                    out.push(Factor {
                        coef,
                        exps,
                        has_b: l > 0,
                    });
                }
            }
        }
        out
    }

    /// The deviation posynomial of a positive-coefficient `poly` at
    /// non-negative `values` (empty when every term vanished).
    pub fn deviation(poly: &Polynomial, values: &[f64], vars: &dyn DabVarIndexer) -> Posynomial {
        struct Entry {
            coef: f64,
            exps: Vec<(usize, f64)>,
            has_b: bool,
        }
        let mut out = Posynomial::zero();
        for term in poly.terms() {
            let mut partial = vec![Entry {
                coef: term.coef(),
                exps: Vec::new(),
                has_b: true,
            }];
            let mut first = true;
            for &(item, p) in term.vars() {
                let factors = expand_item_factor(
                    values[item.index()],
                    p,
                    vars.primary(item),
                    vars.secondary(item),
                );
                let mut next = Vec::with_capacity(partial.len() * factors.len());
                for e in &partial {
                    for f in &factors {
                        let mut exps = e.exps.clone();
                        exps.extend_from_slice(&f.exps);
                        next.push(Entry {
                            coef: e.coef * f.coef,
                            exps,
                            has_b: (e.has_b && !first) || f.has_b,
                        });
                    }
                }
                partial = next;
                first = false;
            }
            if first {
                continue;
            }
            for e in partial {
                if !e.has_b || e.coef == 0.0 {
                    continue;
                }
                out.push(Monomial::new(e.coef, e.exps).unwrap());
            }
        }
        out.simplify();
        out
    }
}

/// A PPQ of 1-6 terms over a 5-item pool (so items are shared between
/// terms), one or two items per term, powers 1-3.
fn arb_ppq() -> impl Strategy<Value = Polynomial> {
    proptest::collection::vec(
        (
            0.01f64..50.0,
            0..ITEMS,
            1u32..4,
            proptest::option::of((0..ITEMS, 1u32..4)),
        ),
        1..7,
    )
    .prop_map(|terms| {
        Polynomial::from_terms(terms.into_iter().map(|(w, a, pa, second)| {
            let mut vars = vec![(ItemId(a), pa)];
            if let Some((b, pb)) = second {
                vars.push((ItemId(b), pb));
            }
            PTerm::new(w, vars).unwrap()
        }))
    })
}

/// Values log-uniform over `1e-3 ..= 1e4`.
fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-3.0f64..4.0).prop_map(|e| 10f64.powf(e)), ITEMS as usize)
}

fn bits(p: &Posynomial) -> Vec<(u64, Vec<(usize, f64)>)> {
    p.terms()
        .iter()
        .map(|m| (m.coef().to_bits(), m.exponents().to_vec()))
        .collect()
}

fn layouts(poly: &Polynomial) -> Vec<Box<dyn DabVarIndexer>> {
    vec![
        Box::new(DabVarMap::for_polynomial(poly, false)),
        Box::new(DabVarMap::for_polynomial(poly, true)),
        Box::new(PartialDabVarMap::for_polynomial(poly)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// At positive values every monomial of the map is present and its
    /// coefficient is the reference's, bit for bit and in the same order,
    /// under every variable layout; one compiled map serves a second set
    /// of values. A unit's map over item lists handed down, refilled
    /// from empty or from another layout, is the one compiled over the
    /// layout that owns them.
    #[test]
    fn eval_into_is_bit_identical_to_the_numeric_expansion(
        poly in arb_ppq(),
        values in proptest::collection::vec(arb_values(), 2),
    ) {
        let single = DabVarMap::for_polynomial(&poly, false);
        let partial = PartialDabVarMap::for_polynomial(&poly);
        let mut map = DeviationMap::default();
        map.refill_for_unit(&poly, poly.items(), &[]).unwrap();
        prop_assert_eq!(&map, &DeviationMap::compile(&poly, &single).unwrap());
        // Refilled in place, either way, the map is the fresh one of its
        // new layout.
        map.refill_for_unit(&poly, poly.items(), &coupled_items(&poly)).unwrap();
        prop_assert_eq!(&map, &DeviationMap::compile(&poly, &partial).unwrap());
        map.refill_for_unit(&poly, poly.items(), &[]).unwrap();
        prop_assert_eq!(&map, &DeviationMap::compile(&poly, &single).unwrap());
        for vars in layouts(&poly) {
            let map = DeviationMap::compile(&poly, vars.as_ref()).unwrap();
            let mut coefs = vec![f64::NAN; map.n_terms()];
            for values in &values {
                map.eval_into(values, &mut coefs).unwrap();
                let want = reference::deviation(&poly, values, vars.as_ref());
                let got: Vec<_> = (map.terms(&coefs))
                    .map(|(c, e)| (c.to_bits(), e.to_vec()))
                    .collect();
                prop_assert_eq!(got.len(), map.n_terms());
                prop_assert_eq!(&got, &bits(&want));
                prop_assert_eq!(
                    bits(&deviation_posynomial(&poly, values, vars.as_ref()).unwrap()),
                    bits(&want)
                );
            }
        }
    }

    /// A value of exactly zero drops terms: their coefficients read 0.0
    /// and the assembled posynomial is the reference's.
    #[test]
    fn zero_values_zero_exactly_the_vanished_monomials(
        poly in arb_ppq(),
        values in arb_values(),
        zeroed in proptest::collection::vec(0..ITEMS as usize, 1..3),
    ) {
        let mut values = values;
        for z in zeroed {
            values[z] = 0.0;
        }
        for vars in layouts(&poly) {
            let map = DeviationMap::compile(&poly, vars.as_ref()).unwrap();
            let mut coefs = vec![f64::NAN; map.n_terms()];
            map.eval_into(&values, &mut coefs).unwrap();
            let want = reference::deviation(&poly, &values, vars.as_ref());
            prop_assert_eq!(coefs.iter().filter(|&&c| c != 0.0).count(), want.n_terms());
            match map.posynomial(&coefs) {
                Ok(got) => prop_assert_eq!(bits(&got), bits(&want)),
                Err(_) => prop_assert!(want.is_zero()),
            }
        }
    }
}
