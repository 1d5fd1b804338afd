//! Query shapes: one program structure, compiled once, for every unit
//! whose program differs only in its weights, items, values and rates.
//!
//! A DAB program's exponent rows follow from its body's monomial
//! structure alone (§III-A): which items each term multiplies, to which
//! powers. A unit's `UnitShape` numbers its items by first appearance
//! in term order (the *canonical* layout: `b_k` of the `k`-th item so
//! numbered) and keys that structure. Units of one key, under one method
//! and ddm, expand to the same rows in the canonical layout. The first
//! such unit solved, the *leader*, leaves a `Template`: the deviation
//! map compiled as a shape ([`pq_poly::DeviationMap::compile_shape`]),
//! the emitted program's rows and the offset between its optimum and its
//! predicted start. Every other unit of the shape binds the template to
//! its own weights, values and rates — it writes coefficients, nothing
//! else — and first tries its prediction moved by that offset
//! ([`pq_gp::CompiledGp::solve_shaped`]). A unit keeps its `Binding`
//! (the template and where its canonical variables sit) in its cache; a
//! unit with no binding keeps nothing of its shape.

use std::sync::Arc;

use pq_ddm::DataDynamicsModel;
use pq_gp::logsumexp::LogArena;
use pq_poly::{DabVarIndexer, DeviationMap, ItemId, Polynomial};

use crate::assignment::UnitColumns;
use crate::context::SolveContext;
use crate::heuristics::PpqMethod;
use crate::ppq::{last_prediction, Layout};
use crate::strategy::AssignmentUnit;

/// A unit's monomial structure in its canonical layout, and where that
/// layout's variables sit in the unit's own (items ascending): read into
/// arrays kept for the next unit.
#[derive(Debug, Default)]
pub(crate) struct UnitShape {
    /// Per term, in body order: its number of factors, then each
    /// factor's canonical item and exponent.
    key: Vec<u32>,
    /// `perm[k]`: the position among the unit's ascending items of its
    /// `k`-th item by first appearance.
    perm: Vec<u32>,
    /// The items by first appearance.
    canon: Vec<ItemId>,
}

impl UnitShape {
    /// The shape of a non-linear `body` over its ascending `items`;
    /// `None` for a linear body, which solves in closed form.
    pub(crate) fn of(body: &Polynomial, items: &[ItemId]) -> Option<Self> {
        let mut shape = UnitShape::default();
        shape.read(body, items).then_some(shape)
    }

    /// Makes this the shape of `body` over its ascending `items`; false,
    /// with the arrays unspecified, for a linear body.
    pub(crate) fn read(&mut self, body: &Polynomial, items: &[ItemId]) -> bool {
        if body.is_linear() {
            return false;
        }
        let UnitShape { key, perm, canon } = self;
        key.clear();
        perm.clear();
        canon.clear();
        for term in body.terms() {
            key.push(term.vars().len() as u32);
            for &(item, power) in term.vars() {
                let k = canon.iter().position(|&c| c == item).unwrap_or_else(|| {
                    canon.push(item);
                    canon.len() - 1
                });
                key.extend([k as u32, power]);
            }
        }
        let at = |item: &ItemId| items.binary_search(item).expect("a term's item is an item");
        perm.extend(canon.iter().map(|item| at(item) as u32));
        true
    }

    /// What units of one shape share.
    pub(crate) fn key(&self) -> &[u32] {
        &self.key
    }

    /// Where each canonical variable's item sits among the unit's items.
    pub(crate) fn perm(&self) -> &[u32] {
        &self.perm
    }
}

/// The canonical layout of one unit: `b` of its `k`-th item by first
/// appearance at variable `k`, `c` of its `j`-th coupled item in that
/// order at `n + j`.
struct CanonicalVars<'a> {
    canon: &'a [ItemId],
    coupled: &'a [ItemId],
}

impl DabVarIndexer for CanonicalVars<'_> {
    fn primary(&self, item: ItemId) -> usize {
        (self.canon.iter().position(|&c| c == item)).expect("item not covered by the unit's layout")
    }

    fn secondary(&self, item: ItemId) -> Option<usize> {
        let j = self.coupled.iter().position(|&c| c == item)?;
        Some(self.canon.len() + j)
    }
}

/// A shape's program, compiled once from its leader and shared (by
/// `Arc`) by every unit of the shape: see the module docs.
#[derive(Debug)]
pub(crate) struct Template {
    key: Box<[u32]>,
    pub(crate) method: PpqMethod,
    pub(crate) ddm: DataDynamicsModel,
    /// The deviation map as a shape over the canonical layout.
    pub(crate) map: DeviationMap,
    /// The canonical primary variable of the item that owns each `c_j`.
    pub(crate) coupled_b: Vec<usize>,
    /// The program emitted with every condition monomial present: the
    /// rows a bound program keeps, its coefficients rewritten.
    pub(crate) rows: LogArena,
    /// `exp(y* − ln prediction)` per canonical variable: the leader's
    /// optimum over its predicted start.
    pub(crate) ratio: Vec<f64>,
}

impl Template {
    /// The template `unit` of `shape` leaves for its shape, right after
    /// its unbound solve under `method` at `ctx`'s ddm wrote `columns` on
    /// this thread (whose last prediction is the solve's start); `None`
    /// when its program does not compile.
    pub(crate) fn after(
        shape: &UnitShape,
        unit: &AssignmentUnit,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
        columns: &UnitColumns,
    ) -> Option<Self> {
        let (perm, canon) = (shape.perm(), &shape.canon);
        let coupled_b: Vec<usize> = match method {
            PpqMethod::OptimalRefresh => Vec::new(),
            PpqMethod::DualDab { .. } => (0..canon.len())
                .filter(|&k| unit.coupled().binary_search(&canon[k]).is_ok())
                .collect(),
        };
        let coupled: Vec<ItemId> = coupled_b.iter().map(|&k| canon[k]).collect();
        let vars = CanonicalVars {
            canon,
            coupled: &coupled,
        };
        let map = DeviationMap::compile_shape(&unit.body, &vars).ok()?;
        // Every monomial present: the rows, their coefficients rewritten
        // by every binding.
        let layout = Layout {
            map: &map,
            coefs: &vec![1.0; map.n_terms()],
            lambdas: &vec![1.0; canon.len()],
            coupled_b: &coupled_b,
            qab: 1.0,
            method,
            ddm: ctx.ddm,
        };
        let rows = layout.emit(LogArena::default()).ok()?.into_arena();

        // The leader's optimum over its prediction, from its own layout
        // (items ascending, then its coupled items', then `R`) into the
        // canonical one.
        let (n, primary, secondary) = (perm.len(), columns.primary(), columns.secondary());
        let own_c = |k: usize| n + unit.coupled().binary_search(&canon[k]).expect("coupled");
        let own = (perm.iter().map(|&at| at as usize))
            .chain(coupled_b.iter().map(|&k| own_c(k)))
            .chain(method.mu().map(|_| n + unit.coupled().len()));
        let optimum = (perm.iter().map(|&at| primary[at as usize]))
            .chain(coupled_b.iter().map(|&k| secondary[perm[k] as usize]))
            .chain(method.mu().map(|_| columns.recompute_rate));
        let ratio: Vec<f64> = last_prediction(|guess| {
            let at = |v: usize| guess.get(v).copied().unwrap_or(f64::NAN);
            optimum.zip(own).map(|(x, v)| x / at(v)).collect()
        });
        let n_vars = n + coupled_b.len() + usize::from(method.mu().is_some());
        let finite = ratio.len() == n_vars && ratio.iter().all(|r| r.is_finite() && *r > 0.0);
        finite.then(|| Template {
            key: shape.key().into(),
            method,
            ddm: ctx.ddm,
            map,
            coupled_b,
            rows,
            ratio,
        })
    }
}

/// A unit bound to its shape's [`Template`]: what its solves bind.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    pub(crate) template: Arc<Template>,
    /// The body the binding was made for.
    body: Arc<Polynomial>,
    /// Where each canonical variable's item sits among the unit's items.
    pub(crate) perm: Box<[u32]>,
    /// True for the template's leader, whose solves start from their
    /// prediction alone: its offset is its own.
    pub(crate) leads: bool,
}

impl Binding {
    /// `unit` bound to `template` as a follower, its canonical variables'
    /// items at `perm` among its own.
    pub(crate) fn new(template: Arc<Template>, unit: &AssignmentUnit, perm: Box<[u32]>) -> Self {
        Binding {
            template,
            body: unit.body.clone(),
            perm,
            leads: false,
        }
    }

    /// The binding `unit`, solved under `method` at `ctx` into
    /// `columns`, leaves itself: a template of its own shape, which it
    /// leads.
    pub(crate) fn after(
        unit: &AssignmentUnit,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
        columns: &UnitColumns,
    ) -> Option<Self> {
        let shape = UnitShape::of(&unit.body, unit.items())?;
        let template = Template::after(&shape, unit, method, ctx, columns)?;
        let perm = shape.perm().into();
        let leader = Binding::new(Arc::new(template), unit, perm);
        Some(Binding {
            leads: true,
            ..leader
        })
    }

    /// True when `unit` under `method` at `ctx`'s ddm solves through this
    /// binding: the unit it was made for (or one of the same body), the
    /// template's method and ddm.
    pub(crate) fn serves(
        &self,
        unit: &AssignmentUnit,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
    ) -> bool {
        let template = &self.template;
        let same_unit = || {
            Arc::ptr_eq(&self.body, &unit.body)
                || UnitShape::of(&unit.body, unit.items())
                    .is_some_and(|shape| *shape.key == *template.key && *shape.perm == *self.perm)
        };
        template.method == method && template.ddm == ctx.ddm && same_unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DAB_GAP;
    use crate::coordinator::{eq2_holds, EQ2_ROUNDING};
    use crate::ppq::solve_ppq;
    use pq_obs::{Obs, Value};
    use pq_poly::PTerm;
    use proptest::prelude::*;

    /// Canonical items a generated shape draws its legs from, and the
    /// item ids its units are spread over.
    const POOL: u32 = 6;
    const IDS: u32 = 4 * POOL + 1;
    /// Units of the shape besides its leader.
    const FOLLOWERS: usize = 3;

    /// One generated shape and its units: legs `x_i^p [x_j^q]` over
    /// canonical items (`i == j`: one factor); per unit the gaps between
    /// its item ids (ascending, so every unit keeps its terms' factor
    /// order, and so the shape), its leg weights (`log10`), its `log10`
    /// values and rates over the pool, and its `log10` QAB / value; then
    /// `log10` mu, the ddm and the method.
    type Unit = (Vec<u32>, Vec<f64>, Vec<f64>, Vec<f64>, f64);
    type RawCase = (Vec<(u32, u32, u32, u32)>, Vec<Unit>, f64, (bool, bool));

    /// Legs a shape has at most.
    const LEGS: usize = 6;

    fn raw_case() -> impl Strategy<Value = RawCase> {
        let unit = (
            proptest::collection::vec(1u32..=4, POOL as usize),
            proptest::collection::vec(-1.0f64..1.0, LEGS),
            proptest::collection::vec(-0.5f64..2.0, POOL as usize),
            proptest::collection::vec(-4.0f64..0.0, POOL as usize),
            -3.0f64..-1.0,
        );
        (
            proptest::collection::vec((0..POOL, 0..POOL, 1u32..=2, 1u32..=2), 1..=LEGS),
            proptest::collection::vec(unit, 1 + FOLLOWERS),
            -1.0f64..2.0,
            (0u8..2, 0u8..2).prop_map(|(a, b)| (a == 1, b == 1)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Units of one shape at their own weights, values and rates:
        /// the first leaves a template, and every other one's solve
        /// through it either stops at its shape start — its assignment
        /// keeps Eq. 2 (within [`EQ2_ROUNDING`]) and its objective is
        /// within [`DAB_GAP`], in log units, of the blended solve's from
        /// its prediction alone — or falls back to that blend.
        #[test]
        fn a_shape_start_certifies_within_the_gap_or_falls_back(raw in raw_case()) {
            let (legs, units, mu, (walk, refresh_only)) = raw;
            let method = if refresh_only {
                PpqMethod::OptimalRefresh
            } else {
                PpqMethod::DualDab { mu: 10f64.powf(mu) }
            };
            let ddm = if walk { DataDynamicsModel::RandomWalk } else { DataDynamicsModel::Monotonic };
            let made: Vec<_> = units.iter().map(|(gaps, weights, values, rates, qab)| {
                let ids: Vec<u32> = gaps.iter().scan(0, |id, gap| { *id += gap; Some(*id) }).collect();
                let item = |k: u32| ItemId(ids[k as usize]);
                let terms = legs.iter().zip(weights).map(|(&(i, j, p, q), &w)| {
                    let vars = if i == j { vec![(item(i), p)] } else { vec![(item(i), p), (item(j), q)] };
                    PTerm::new(10f64.powf(w), vars).expect("positive weight")
                });
                let body = Polynomial::from_terms(terms);
                let mut all = vec![0.0; IDS as usize];
                let mut lambdas = vec![1.0; IDS as usize];
                for (k, &id) in ids.iter().enumerate() {
                    all[id as usize] = 10f64.powf(values[k]);
                    lambdas[id as usize] = 10f64.powf(rates[k]);
                }
                let qab = 10f64.powf(*qab) * body.eval(&all);
                (AssignmentUnit::new(body, qab), all, lambdas)
            }).collect();
            let (leader, values, rates) = &made[0];
            prop_assume!(!leader.body.is_linear());
            let ctx = SolveContext::new(values, rates).with_ddm(ddm);
            let mut columns = UnitColumns::default();
            solve_ppq(leader, method, &ctx, None, None, &mut columns).unwrap();
            let Some(binding) = Binding::after(leader, method, &ctx, &columns) else {
                return Ok(());
            };
            let objective = |c: &UnitColumns| c.refresh_rate + method.mu().map_or(0.0, |mu| mu * c.recompute_rate);
            for (unit, values, rates) in &made[1..] {
                let shape = UnitShape::of(&unit.body, unit.items()).unwrap();
                prop_assert_eq!(shape.key(), &*binding.template.key);
                let bound = Binding::new(binding.template.clone(), unit, shape.perm().into());
                let (obs, ring) = Obs::ring(16);
                let mut ctx = SolveContext::new(values, rates).with_ddm(ddm);
                ctx.gp.obs = obs;
                let (mut shaped, mut blended) = (UnitColumns::default(), UnitColumns::default());
                solve_ppq(unit, method, &ctx, None, Some(&bound), &mut shaped).unwrap();
                // One record per solve, whichever way it stopped.
                let events = ring.events();
                let spans: Vec<_> = events.iter().filter(|e| e.target == "gp.solve_ns").collect();
                prop_assert_eq!(spans.len(), 1);
                solve_ppq(unit, method, &ctx, None, None, &mut blended).unwrap();
                if spans[0].field("shape_start") != Some(&Value::Bool(true)) {
                    continue;
                }
                let within = |key| matches!(spans[0].field(key), Some(&Value::F64(v)) if v <= DAB_GAP);
                prop_assert_eq!(spans[0].field("newton_steps"), Some(&Value::U64(0)));
                prop_assert!(within("gap") && within("r_dual"), "{:?}", spans[0]);
                let mut point = vec![0.0; IDS as usize];
                prop_assert!(eq2_holds(unit, &shaped, values, 1.0, EQ2_ROUNDING, &mut point));
                let excess = objective(&shaped).ln() - objective(&blended).ln();
                prop_assert!(excess <= DAB_GAP, "objective {} over the blend's {}", objective(&shaped), objective(&blended));
            }
        }
    }

    /// Two units of one shape whose items appear in different orders
    /// share a key, and each unit's layout places its canonical items.
    #[test]
    fn units_of_one_shape_share_a_key() {
        let x = ItemId;
        let body = |a, b, c| {
            Polynomial::from_terms([
                PTerm::new(2.0, [(x(a), 1), (x(b), 1)]).unwrap(),
                PTerm::new(3.0, [(x(b), 2), (x(c), 1)]).unwrap(),
            ])
        };
        let (p, q) = (body(4, 9, 1), body(2, 5, 0));
        let shape = |p: &Polynomial| UnitShape::of(p, &p.items()).unwrap();
        assert_eq!(shape(&p).key(), shape(&q).key());
        assert_eq!(shape(&p).perm(), [1, 2, 0]);
        let other = body(4, 1, 9);
        assert_ne!(shape(&p).key(), shape(&other).key(), "x1 now precedes x9");
        assert!(UnitShape::of(
            &Polynomial::from_terms([PTerm::new(1.0, [(x(0), 1)]).unwrap()]),
            &[x(0)]
        )
        .is_none());
    }
}
