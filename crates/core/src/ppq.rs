//! Optimal DAB assignment for positive-coefficient polynomial queries.
//!
//! Two formulations from §III-A, both geometric programs:
//!
//! * [`optimal_refresh`] — Conditions 1 + 2 only (§III-A.1): minimize the
//!   estimated refresh rate subject to the necessary-and-sufficient QAB
//!   condition `P(V+b) − P(V) ≤ B`. Optimal in refreshes, but the
//!   assignment is valid only at the anchor values, so *every* refresh
//!   triggers a recomputation.
//!
//! * [`dual_dab`] — the paper's novel Dual-DAB approach (§III-A.2): assign
//!   a smaller primary DAB `b` (the source filter) and a larger secondary
//!   DAB `c` (the validity range at the coordinator), minimizing
//!   `sum_i lambda_i/b_i + mu * R` subject to
//!   `P(V+c+b) − P(V+c) ≤ B`, `b ≤ c`, and `rate(lambda_i, c_i) ≤ R`.
//!   Slightly more refreshes, far fewer recomputations.

use std::cell::RefCell;
use std::sync::Arc;

use pq_ddm::DataDynamicsModel;
use pq_gp::logsumexp::LogArena;
use pq_gp::{CompiledGp, GpError, GpSolution, Posynomial};
use pq_poly::{DeviationMap, ItemId, PolyError, Polynomial, PolynomialQuery};

use crate::assignment::{QueryAssignment, RangeKind, UnitColumns};
use crate::cache::solve_compiled;
use crate::context::SolveContext;
use crate::error::DabError;
use crate::heuristics::PpqMethod;
use crate::strategy::AssignmentUnit;

/// Optimal-Refresh assignment for a PPQ (§III-A.1).
///
/// # Errors
/// [`DabError::UnsupportedQueryClass`] if the query has negative
/// coefficients (use the heuristics of [`crate::heuristics`] instead) or
/// is linear (use the closed forms of [`crate::laq`]).
pub fn optimal_refresh(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
) -> Result<QueryAssignment, DabError> {
    let unit = AssignmentUnit::of_query(query, query.shared_poly().clone(), query.qab());
    UnitColumns::one_shot(|out| solve_ppq(&unit, PpqMethod::OptimalRefresh, ctx, None, None, out))
}

/// Dual-DAB assignment for a PPQ (§III-A.2–3).
///
/// `mu` is the recomputation cost in messages (§III-A.3); larger `mu`
/// buys larger validity ranges (fewer recomputations) with tighter primary
/// DABs (more refreshes).
///
/// # Errors
/// [`DabError::InvalidMu`] unless `mu > 0` and finite; query-class errors
/// as for [`optimal_refresh`].
pub fn dual_dab(
    query: &PolynomialQuery,
    ctx: &SolveContext<'_>,
    mu: f64,
) -> Result<QueryAssignment, DabError> {
    let unit = AssignmentUnit::of_query(query, query.shared_poly().clone(), query.qab());
    UnitColumns::one_shot(|out| solve_ppq(&unit, PpqMethod::DualDab { mu }, ctx, None, None, out))
}

/// Solves the positive-coefficient unit under `method` at `ctx`'s values
/// into `out`: makes `kept` the unit's program, when given, unless it
/// already is, and this thread's [`PpqProgram`] otherwise; then emits
/// the program into this thread's arena, predicts, solves and writes the
/// columns. `first` is what [`solve_compiled`] counts the solve as
/// (`None` for a one-shot solve).
pub(crate) fn solve_ppq(
    unit: &AssignmentUnit,
    method: PpqMethod,
    ctx: &SolveContext<'_>,
    first: Option<bool>,
    kept: Option<&mut Option<Box<PpqProgram>>>,
    out: &mut UnitColumns,
) -> Result<(), DabError> {
    if let Some(kept) = kept {
        let program = kept.get_or_insert_with(Box::default);
        if !program.serves(unit, method, ctx) {
            program.refill(unit, method, ctx)?;
        }
        return program.solve_into(ctx, first, out);
    }
    let mut program = PROGRAM.take();
    let solved = program
        .refill(unit, method, ctx)
        .and_then(|()| program.solve_into(ctx, first, out));
    PROGRAM.set(program);
    solved
}

/// A PPQ unit's program: everything about its GP that is fixed for as
/// long as its body, QAB, method, ddm and item rates are, and the values'
/// coefficients of its condition.
///
/// The variables are `b_k` for the body's `k`-th item, then (Dual-DAB)
/// one `c_j` per coupled item — secondary DABs only for items whose
/// reference value can invalidate the condition; a linear-only item gets
/// `c = infinity`, it never triggers recomputation, like a LAQ item — and
/// `R` last. The objective `sum_k refresh(lambda_k, b_k) [+ mu R]` and
/// the Dual-DAB rows `b_j <= c_j`, `rate(lambda_j, c_j) <= R` depend on
/// nothing that moves. Only the QAB condition (Eq. 1 / Eq. 2, constraint
/// 0) follows the values, and only through its coefficients, which `map`
/// derives from them. A solve emits the rows straight into the solver's
/// form ([`PpqProgram::compiled`]), and that emitted program is the only
/// form the GP takes: when the blend toward the predicted start's anchor
/// fails, phase I runs on it too.
///
/// A unit whose assignment is anchor-only keeps its program in its
/// [`crate::UnitCache`] (see [`crate::assign_unit_cached`]). Any other
/// solve refills this thread's (`PROGRAM`, [`PpqProgram::refill`]) in
/// the arrays it already has. Either way the GP is emitted into this
/// thread's arena (`ARENA`), never kept.
#[derive(Debug, Default)]
pub(crate) struct PpqProgram {
    /// The unit's body, once a refill has succeeded: what
    /// [`PpqProgram::serves`] tells units apart by.
    body: Option<Arc<Polynomial>>,
    qab: f64,
    method: PpqMethod,
    ddm: DataDynamicsModel,
    /// The body's items, ascending (the map's): `b_k` is `items[k]`'s.
    items: Arc<[ItemId]>,
    /// `lambda_k` of the body's `k`-th item, floored positive.
    lambdas: Vec<f64>,
    /// The primary variable of the item that owns each `c_j`, ascending.
    coupled_b: Vec<usize>,
    /// Values to the condition's coefficients, before the division by
    /// the QAB.
    map: DeviationMap,
    /// `map` at the values of the last solve.
    coefs: Vec<f64>,
}

thread_local! {
    /// This thread's scratch for predicted starts (beside the solver's,
    /// `cache.rs`'s `WORKSPACE`): with both, a solve allocates nothing
    /// between the values and the Newton loop.
    static START: RefCell<StartScratch> = RefCell::default();
    /// This thread's program, refilled by every solve of a unit that
    /// keeps none.
    static PROGRAM: RefCell<PpqProgram> = RefCell::default();
    /// The arena the last solve's compiled GP handed back: room for the
    /// next emission.
    static ARENA: RefCell<LogArena> = RefCell::default();
}

impl PpqProgram {
    /// Makes this the program of `unit` under `method` at `ctx`'s rates:
    /// Optimal Refresh ignores the unit's coupled items.
    fn refill(
        &mut self,
        unit: &AssignmentUnit,
        method: PpqMethod,
        ctx: &SolveContext<'_>,
    ) -> Result<(), DabError> {
        let (items, qab) = (unit.items(), unit.qab);
        // No unit's program until the refill succeeds.
        self.body = None;
        if let Some(mu) = method.mu().filter(|mu| !(mu.is_finite() && *mu > 0.0)) {
            return Err(DabError::InvalidMu(mu));
        }
        if !(qab.is_finite() && qab > 0.0) {
            return Err(PolyError::InvalidBound(qab).into());
        }
        require_ppq(&unit.body)?;
        let coupled = match method {
            PpqMethod::OptimalRefresh => &[],
            PpqMethod::DualDab { .. } => &unit.coupled()[..],
        };
        // `b` of the `k`-th item is variable `k`.
        let primary = |c| items.binary_search(c).expect("a coupled item is an item");
        self.coupled_b.clear();
        self.coupled_b.extend(coupled.iter().map(primary));
        self.map
            .refill_for_unit(&unit.body, items.clone(), coupled)?;
        self.lambdas.clear();
        for &item in items.iter() {
            self.lambdas.push(ctx.rate(item)?);
        }
        self.coefs.clear();
        self.coefs.resize(self.map.n_terms(), 0.0);
        (self.qab, self.method, self.ddm) = (qab, method, ctx.ddm);
        self.items = items.clone();
        self.body = Some(unit.body.clone());
        Ok(())
    }

    /// True when this is the program [`PpqProgram::refill`] would make of
    /// `unit` under `method` at `ctx`'s rates.
    fn serves(&self, unit: &AssignmentUnit, method: PpqMethod, ctx: &SolveContext<'_>) -> bool {
        let same_body =
            |body: &Arc<Polynomial>| Arc::ptr_eq(body, &unit.body) || *body == unit.body;
        let same_rate = |(&item, &lambda)| ctx.rate(item).is_ok_and(|r| r == lambda);
        self.body.as_ref().is_some_and(same_body)
            && self.qab == unit.qab
            && self.method == method
            && self.ddm == ctx.ddm
            && self.items.iter().zip(&self.lambdas).all(same_rate)
    }

    /// Solves the program at `ctx`'s values and writes the assignment
    /// into `out`.
    fn solve_into(
        &mut self,
        ctx: &SolveContext<'_>,
        first: Option<bool>,
        out: &mut UnitColumns,
    ) -> Result<(), DabError> {
        self.map.eval_into(ctx.values, &mut self.coefs)?;
        let mut start = START.take();
        let dual = self.method.mu().map(|mu| (mu, &self.coupled_b[..]));
        let condition = self.map.terms(&self.coefs);
        let sol = start
            .predict(condition, self.qab, &self.lambdas, self.ddm, dual)
            .and_then(|()| self.solve_from(&start.guess, &start.interior, ctx, first));
        START.set(start);
        self.write(&sol?, ctx, out);
        Ok(())
    }

    /// The solve at the values `coefs` was evaluated at, from their
    /// predicted start, on the program emitted into this thread's arena,
    /// which the compiled GP hands back after.
    fn solve_from(
        &self,
        guess: &[f64],
        interior: &[f64],
        ctx: &SolveContext<'_>,
        first: Option<bool>,
    ) -> Result<GpSolution, DabError> {
        let compiled = self.compiled()?;
        let sol = solve_compiled(&compiled, guess, interior, &ctx.gp, first);
        ARENA.set(compiled.into_arena());
        sol
    }

    /// Writes the assignment `sol` stands for, anchored at `ctx`'s
    /// values, into `out`.
    fn write(&self, sol: &GpSolution, ctx: &SolveContext<'_>, out: &mut UnitColumns) {
        let n = self.items.len();
        let mu = self.method.mu();
        let kind = if mu.is_some() {
            RangeKind::Box
        } else {
            RangeKind::AnchorOnly
        };
        let cols = out.start(&self.items, kind);
        for (v0, item) in cols.anchor.iter_mut().zip(self.items.iter()) {
            *v0 = ctx.values[item.index()];
        }
        cols.primary.copy_from_slice(&sol.x[..n]);
        if mu.is_none() {
            out.refresh_rate = sol.objective;
            return;
        }
        // An uncoupled item keeps its `+∞`: its value cannot invalidate.
        for (&b_var, &c) in self.coupled_b.iter().zip(&sol.x[n..]) {
            cols.secondary[b_var] = c;
        }
        let recompute_rate = sol.x[n + self.coupled_b.len()];
        let refresh_rate: f64 = (self.lambdas.iter().zip(&sol.x))
            .map(|(&l, &b)| self.ddm.refresh_rate(l, b))
            .sum();
        (out.recompute_rate, out.refresh_rate) = (recompute_rate, refresh_rate);
    }

    /// The assignment `sol` stands for, anchored at `ctx`'s values.
    #[cfg(test)]
    fn assignment(&self, sol: &GpSolution, ctx: &SolveContext<'_>) -> QueryAssignment {
        let mut out = UnitColumns::default();
        self.write(sol, ctx, &mut out);
        out.assignment()
    }

    /// The program at the values `coefs` was evaluated at, in the
    /// solver's own form: every posynomial emitted in one pass into this
    /// thread's arena, its counts reserved beforehand, with nothing built
    /// in between — term for term and bit for bit what compiling the
    /// program spelled out as a problem gives (the tests'
    /// `PpqProgram::problem`).
    fn compiled(&self) -> Result<CompiledGp, GpError> {
        let n = self.lambdas.len();
        let coupled = self.coupled_b.len();
        let r_var = n + coupled;
        let mu = self.method.mu();
        let n_vars = r_var + usize::from(mu.is_some());
        let p = self.ddm.exponent();
        let refresh = |k: usize| self.ddm.refresh_coef(self.lambdas[k]);

        // The QAB condition: at the anchor (Eq. 1), or over the validity
        // range (Eq. 2), sized by the map.
        let condition = self.map.terms(&self.coefs);
        let (condition_terms, condition_exps) = self.map.counts(&self.coefs);
        let objective_terms = n + usize::from(mu.is_some());
        let mut arena = ARENA.take();
        arena.reset(
            n_vars,
            2 + 2 * coupled,
            objective_terms + condition_terms + 2 * coupled,
            objective_terms + condition_exps + 4 * coupled,
        );
        let refreshes = (0..n).map(|k| (refresh(k), [(k, -p)]));
        let recomputes = mu.map(|mu| (mu, [(r_var, 1.0)]));
        arena.push(refreshes.chain(recomputes), 1.0)?;
        arena.push(condition, 1.0 / self.qab)?;
        // For coupled items: b_j <= c_j and the recompute-rate coupling
        // rate(lambda_j, c_j) <= R.
        for (j, &b_var) in self.coupled_b.iter().enumerate() {
            let c_var = n + j;
            arena.push([(1.0, [(b_var, 1.0), (c_var, -1.0)])].into_iter(), 1.0)?;
            let escape = (refresh(b_var), [(c_var, -p), (r_var, -1.0)]);
            arena.push([escape].into_iter(), 1.0)?;
        }
        CompiledGp::from_arena(arena)
    }
}

fn require_ppq(poly: &Polynomial) -> Result<(), DabError> {
    if poly.is_linear() {
        Err(DabError::UnsupportedQueryClass {
            detail: "linear query: use the closed forms in pq_core::laq",
        })
    } else if !poly.is_positive_coefficient() {
        Err(DabError::UnsupportedQueryClass {
            detail: "mixed-sign query: solve its Half-and-Half or Different-Sum units (pq_core::assignment_units)",
        })
    } else {
        Ok(())
    }
}

/// Refinement rounds a prediction may take (one pass over the condition's
/// terms each); a round that moves no coordinate by more than `SETTLED`
/// in log space is the last.
const MAX_ROUNDS: usize = 8;
const SETTLED: f64 = 0.01;

/// The predicted optimum of a PPQ program and the strictly feasible point
/// anchoring the solver's blend toward it, as `(guess, interior)` over the
/// layout `b: 0..n`, then (Dual-DAB only) one `c` per coupled item and `R`.
/// `dual = Some((mu, coupled))` selects Dual-DAB, `coupled[j]` being the
/// primary variable of the item that owns `c_j`.
///
/// Linearized at a point, `condition <= B` is the budget
/// `sum_k w_k b_k + sum_j g_j c_j <= B'` of a linear query, `(w, g)` the
/// condition's gradient there. The objective charges `mu R` and nothing
/// for a `c`, so each `c_j` sits on the larger of its two lower bounds,
/// `max(lambda_j u, b_j)` with `u = R^(-1/p)`, and what is left is a LAQ
/// over `(b, u)` with the Lagrange closed form of [`crate::laq`]:
/// `b_k = beta (lambda_k^p / W_k)^(1/(p+1))`, `u = beta (mu / D)^(1/(p+1))`,
/// `beta` spending the budget. `D = sum_j theta_j lambda_j g_j` and
/// `W_k = w_k + (1 - theta_k) g_k` split every `g_j` between the bound it
/// sits on (`theta_j = 1`: `c_j` follows `u`); on the kink
/// `lambda_j u = b_j` the split is whatever keeps it there,
/// `W_j = D / (mu lambda_j)`.
///
/// Round 0 linearizes at the origin, where `w` is the coefficients of the
/// pure-`b` terms (the tangent linear query at the current values) and
/// `g` comes from the `b·c` terms; later rounds re-linearize at the
/// previous round's point until it settles. On a book whose QABs are a
/// percent of the query value round 0 is already within a few percent.
/// Every DAB solve, first or recompute, starts from this prediction.
///
/// Only a start: a component that comes out non-finite or non-positive
/// (`a_k = 0` in round 0, an empty first-order part) falls back to 1.
pub fn predicted_start(
    condition: &Posynomial,
    qab: f64,
    lambdas: &[f64],
    ddm: DataDynamicsModel,
    dual: Option<(f64, &[usize])>,
) -> Result<(Vec<f64>, Vec<f64>), DabError> {
    let terms = condition.terms().iter();
    let condition = terms.map(|m| (m.coef(), m.exponents()));
    let mut start = START.take();
    let predicted = start
        .predict(condition, qab, lambdas, ddm, dual)
        .map(|()| (start.guess.clone(), start.interior.clone()));
    START.set(start);
    predicted
}

/// Every vector a prediction works in, and the two it leaves behind.
#[derive(Debug, Default)]
struct StartScratch {
    /// `lambda_k^p`.
    rates: Vec<f64>,
    /// The condition's gradient at the current point: over `b`, over `c`.
    w: Vec<f64>,
    g: Vec<f64>,
    /// The current round's `b`, and the next one's.
    b: Vec<f64>,
    next: Vec<f64>,
    /// Per coupled item, where its kink ends; every end, sorted.
    kinks: Vec<(f64, f64)>,
    ends: Vec<f64>,
    /// The GP point of the current round, the prediction in the end, and
    /// the strictly feasible anchor below it.
    guess: Vec<f64>,
    interior: Vec<f64>,
}

fn or_one(v: f64) -> f64 {
    if v.is_finite() && v > 0.0 {
        v
    } else {
        1.0
    }
}

/// The term `coef * prod x_v^e` at `x`. Most exponents of a deviation
/// condition are 1, where `powf` would return its argument.
fn term_at(coef: f64, exps: &[(usize, f64)], x: &[f64]) -> f64 {
    let factor = |&(v, e): &(usize, f64)| if e == 1.0 { x[v] } else { x[v].powf(e) };
    exps.iter().map(factor).fold(coef, |t, f| t * f)
}

/// What every linearization of one program shares.
struct Linearized<'a> {
    lambdas: &'a [f64],
    rates: &'a [f64],
    coupled: &'a [usize],
    mu: f64,
    p: f64,
    kinks: &'a mut Vec<(f64, f64)>,
    ends: &'a mut Vec<f64>,
}

impl Linearized<'_> {
    /// Solves the linearized program `(w, g, budget)`: writes `b`, returns
    /// `u` (meaningless without a Dual-DAB block).
    fn solve(&mut self, w: &[f64], g: &[f64], budget: f64, b: &mut [f64]) -> f64 {
        let Linearized {
            lambdas,
            rates,
            coupled,
            mu,
            p,
            ref mut kinks,
            ref mut ends,
        } = *self;
        let shape = |r: f64, w: f64| or_one((r / w).powf(1.0 / (p + 1.0)));
        // `mu D = sum_j clamp(t0_j - D, 0, t0_j - t1_j)`: `c_j` follows
        // `u` below its kink's end `t1`, `b_j` above `t0`. The two sides
        // cross on one linear piece between neighbouring ends.
        kinks.clear();
        kinks.extend(
            (coupled.iter().zip(g))
                .map(|(&k, g)| (mu * lambdas[k] * w[k], mu * lambdas[k] * (w[k] + g))),
        );
        let gap = |d: f64| {
            let follows = kinks.iter().map(|&(t1, t0)| (t0 - d).max(0.0).min(t0 - t1));
            mu * d - follows.sum::<f64>()
        };
        ends.clear();
        ends.extend(kinks.iter().flat_map(|&(t1, t0)| [t1, t0]));
        ends.sort_by(f64::total_cmp);
        let (mut d, mut below) = (0.0, gap(0.0));
        for &end in ends.iter() {
            let above = gap(end);
            if above >= 0.0 {
                if above > below {
                    d += (end - d) * below / (below - above);
                }
                break;
            }
            (d, below) = (end, above);
        }
        b.copy_from_slice(w);
        for (&k, &(t1, t0)) in coupled.iter().zip(kinks.iter()) {
            b[k] = d.max(t1).min(t0) / (mu * lambdas[k]);
        }
        let su = shape(mu, d);
        b.iter_mut()
            .zip(rates)
            .for_each(|(s, &r)| *s = shape(r, *s));
        let spent_b: f64 = w.iter().zip(&*b).map(|(w, s)| w * s).sum();
        let spent_c: f64 = coupled
            .iter()
            .zip(g)
            .map(|(&k, g)| g * (lambdas[k] * su).max(b[k]))
            .sum();
        let beta = or_one(budget / (spent_b + spent_c));
        b.iter_mut().for_each(|s| *s *= beta);
        beta * su
    }
}

impl StartScratch {
    /// [`predicted_start`] over the condition's terms as `(coefficient,
    /// exponent row)` pairs, wherever they are kept; leaves the prediction
    /// in `self.guess` and its anchor in `self.interior`.
    fn predict<'t>(
        &mut self,
        condition: impl Iterator<Item = (f64, &'t [(usize, f64)])> + Clone,
        qab: f64,
        lambdas: &[f64],
        ddm: DataDynamicsModel,
        dual: Option<(f64, &[usize])>,
    ) -> Result<(), DabError> {
        let StartScratch {
            rates,
            w,
            g,
            b,
            next,
            kinks,
            ends,
            guess,
            interior,
        } = self;
        let n = lambdas.len();
        let p = ddm.exponent();
        let (mu, coupled) = dual.unwrap_or((0.0, &[]));
        rates.clear();
        rates.extend(lambdas.iter().map(|l| l.powf(p)));
        let mut program = Linearized {
            lambdas,
            rates,
            coupled,
            mu,
            p,
            kinks,
            ends,
        };
        let zeroed = |v: &mut Vec<f64>, len: usize| {
            v.clear();
            v.resize(len, 0.0);
        };

        // Round 0: the tangent LAQ, then the escape block from `c = 0`.
        zeroed(w, n);
        zeroed(g, coupled.len());
        for (coef, exps) in condition.clone() {
            if let [(k, e)] = *exps {
                if k < n && e == 1.0 {
                    w[k] += coef;
                }
            }
        }
        zeroed(b, n);
        let mut u = program.solve(w, &[], qab, b);
        if dual.is_some() {
            for (coef, exps) in condition.clone() {
                if let [(k, ek), (v, ev)] = *exps {
                    if k < n && v >= n && ek == 1.0 && ev == 1.0 {
                        g[v - n] += coef * b[k];
                    }
                }
            }
            u = program.solve(w, g, qab, b);
        }

        // The GP point of `(b, u)`.
        let point = |b: &[f64], u: f64, x: &mut Vec<f64>| {
            x.clear();
            x.extend_from_slice(b);
            x.extend(coupled.iter().map(|&k| (lambdas[k] * u).max(b[k])));
            if dual.is_some() {
                x.push(u.powf(-p));
            }
        };
        zeroed(next, n);
        for _ in 0..MAX_ROUNDS {
            point(b, u, guess);
            w.iter_mut().chain(g.iter_mut()).for_each(|v| *v = 0.0);
            // The condition's value, and `w·b + g·c` (each term times its
            // degree), beside the gradient.
            let (mut value, mut tangent) = (0.0, 0.0);
            for (coef, exps) in condition.clone() {
                let t = term_at(coef, exps, guess);
                value += t;
                for &(v, e) in exps {
                    tangent += e * t;
                    let slot = if v < n { &mut w[v] } else { &mut g[v - n] };
                    *slot += e * t / guess[v];
                }
            }
            let next_u = program.solve(w, g, qab - value + tangent, next);
            let of_u = if dual.is_some() { next_u / u } else { 1.0 };
            let moved = (next.iter().zip(b.iter()))
                .map(|(s, b)| s / b)
                .chain([of_u])
                .fold(0.0_f64, |m, ratio| m.max(ratio.ln().abs()));
            std::mem::swap(b, next);
            u = next_u;
            if moved < SETTLED {
                break;
            }
        }

        point(b, u, guess);
        guess.iter_mut().for_each(|v| *v = or_one(*v));
        let at_guess = condition.map(|(coef, exps)| term_at(coef, exps, guess));
        scalar_feasible_start(at_guess.sum(), qab, guess, n, interior)?;
        if dual.is_some() {
            // `rate(lambda_j, c_j) <= R` holds at the guess by construction.
            interior[n + coupled.len()] *= 2.0;
        }
        Ok(())
    }
}

/// The strictly feasible anchor below `guess`, into `x`: its first `n`
/// coordinates (the primary DABs) scaled by the largest power of two
/// `s <= 1/2` that puts the condition at or under half of `qab`. Every
/// term of a deviation condition carries a primary factor, so
/// `condition(s b) <= s condition(b)` and its one evaluation `at_guess`
/// fixes `s`.
fn scalar_feasible_start(
    at_guess: f64,
    qab: f64,
    guess: &[f64],
    n: usize,
    x: &mut Vec<f64>,
) -> Result<(), DabError> {
    let s = (0.5 * qab / at_guess).log2().floor().exp2();
    x.clear();
    x.extend_from_slice(guess);
    x[..n].iter_mut().for_each(|v| *v *= s.min(0.5));
    // A NaN `s` (non-finite condition) fails the first test.
    if s > 0.0 && x.iter().all(|v| v.is_finite() && *v > 0.0) {
        Ok(())
    } else {
        Err(DabError::NoFeasibleStart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ValidityRange;
    use pq_ddm::DataDynamicsModel;
    use pq_gp::{GpProblem, Monomial};
    use pq_poly::{ItemId, PTerm, Polynomial};

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    fn product_query(qab: f64) -> PolynomialQuery {
        PolynomialQuery::new(
            Polynomial::term(PTerm::new(1.0, [(x(0), 1), (x(1), 1)]).unwrap()),
            qab,
        )
        .unwrap()
    }

    /// Brute-force reference for optimal refresh on Q = xy : B with the
    /// monotonic ddm: minimize l0/bx + l1/by s.t. Vx by + Vy bx + bx by <= B.
    fn grid_optimal(v: [f64; 2], l: [f64; 2], qab: f64) -> f64 {
        let mut best = f64::INFINITY;
        let steps = 2000;
        let hi = qab / v[1].min(v[0]) * 2.0;
        for i in 1..steps {
            let bx = hi * i as f64 / steps as f64;
            // Given bx, the best by saturates the constraint.
            let by = (qab - v[1] * bx) / (v[0] + bx);
            if by <= 0.0 {
                continue;
            }
            best = best.min(l[0] / bx + l[1] / by);
        }
        best
    }

    #[test]
    fn optimal_refresh_matches_grid_on_product_query() {
        let q = product_query(5.0);
        let values = [40.0, 20.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = optimal_refresh(&q, &ctx).unwrap();
        let got = a.refresh_rate;
        let want = grid_optimal([40.0, 20.0], [1.0, 1.0], 5.0);
        assert!(
            (got - want).abs() < 1e-3 * want,
            "solver {got} vs grid {want}"
        );
        assert!(a.respects_qab(&q, 1e-6));
        assert_eq!(a.validity, ValidityRange::AnchorOnly);
    }

    #[test]
    fn optimal_refresh_favours_fast_items_with_wide_dabs() {
        // Item 0 changes 100x faster; its DAB should be wider than item 1's
        // (wider filter = fewer refreshes for the fast mover).
        let q = product_query(5.0);
        let values = [20.0, 20.0];
        let rates = [100.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = optimal_refresh(&q, &ctx).unwrap();
        let b0 = a.primary_dab(x(0)).unwrap();
        let b1 = a.primary_dab(x(1)).unwrap();
        assert!(b0 > b1, "b0 = {b0}, b1 = {b1}");
    }

    #[test]
    fn dual_dab_is_valid_over_its_whole_range() {
        let q = product_query(5.0);
        let values = [2.0, 2.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = dual_dab(&q, &ctx, 5.0).unwrap();
        assert!(a.respects_qab(&q, 1e-6));
        match &a.validity {
            ValidityRange::Box(c) => {
                for (&item, &cx) in c {
                    assert!(
                        cx >= a.primary_dab(item).unwrap() - 1e-9,
                        "secondary must dominate primary"
                    );
                }
            }
            other => panic!("expected Box validity, got {other:?}"),
        }
        assert!(a.recompute_rate > 0.0);
    }

    #[test]
    fn dual_dab_trades_refreshes_for_recomputations() {
        // Versus Optimal Refresh: more refreshes, but a real validity
        // range; and larger mu widens the range further (fewer recomputes).
        let q = product_query(5.0);
        let values = [20.0, 30.0];
        let rates = [2.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let opt = optimal_refresh(&q, &ctx).unwrap();
        let d1 = dual_dab(&q, &ctx, 1.0).unwrap();
        let d10 = dual_dab(&q, &ctx, 10.0).unwrap();
        assert!(d1.refresh_rate >= opt.refresh_rate - 1e-6);
        assert!(d10.refresh_rate >= d1.refresh_rate - 1e-6);
        assert!(
            d10.recompute_rate <= d1.recompute_rate + 1e-9,
            "larger mu must not increase the recompute rate: {} vs {}",
            d10.recompute_rate,
            d1.recompute_rate
        );
        // Secondary ranges grow with mu.
        let c1: f64 = d1.secondary_dab(x(0)).unwrap();
        let c10: f64 = d10.secondary_dab(x(0)).unwrap();
        assert!(c10 >= c1 - 1e-9, "c grew {c1} -> {c10}");
    }

    #[test]
    fn dual_dab_total_cost_beats_optimal_refresh_with_recompute_costs() {
        // The whole point of §III-A.2: once recomputations cost mu messages
        // (and Optimal Refresh recomputes on *every* refresh), Dual-DAB's
        // modelled total cost wins.
        let q = product_query(5.0);
        let values = [20.0, 30.0];
        let rates = [2.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        for mu in [1.0, 5.0, 10.0] {
            let opt = optimal_refresh(&q, &ctx).unwrap();
            let dual = dual_dab(&q, &ctx, mu).unwrap();
            let opt_cost = opt.refresh_rate * (1.0 + mu); // every refresh recomputes
            let dual_cost = dual.refresh_rate + mu * dual.recompute_rate;
            assert!(
                dual_cost < opt_cost,
                "mu={mu}: dual {dual_cost} vs optimal-refresh {opt_cost}"
            );
        }
    }

    #[test]
    fn random_walk_model_gives_less_stringent_dabs() {
        // §V-B.1: the (lambda/b)^2 objective pushes toward larger b.
        let q = product_query(5.0);
        let values = [20.0, 30.0];
        let rates = [0.05, 0.02];
        let mono = SolveContext::new(&values, &rates);
        let walk = SolveContext::new(&values, &rates).with_ddm(DataDynamicsModel::RandomWalk);
        let am = dual_dab(&q, &mono, 5.0).unwrap();
        let aw = dual_dab(&q, &walk, 5.0).unwrap();
        let sum_m: f64 = am.primary.values().sum();
        let sum_w: f64 = aw.primary.values().sum();
        assert!(
            sum_w > sum_m,
            "random-walk DABs should be wider: {sum_w} vs {sum_m}"
        );
    }

    #[test]
    fn rejects_wrong_classes_and_bad_mu() {
        let laq = PolynomialQuery::linear_aggregate([(1.0, x(0))], 1.0).unwrap();
        let values = [1.0];
        let rates = [1.0];
        let ctx = SolveContext::new(&values, &rates);
        assert!(matches!(
            optimal_refresh(&laq, &ctx),
            Err(DabError::UnsupportedQueryClass { .. })
        ));
        let q = product_query(5.0);
        let values = [2.0, 2.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        assert!(matches!(
            dual_dab(&q, &ctx, 0.0),
            Err(DabError::InvalidMu(_))
        ));
        assert!(matches!(
            dual_dab(&q, &ctx, f64::NAN),
            Err(DabError::InvalidMu(_))
        ));
    }

    #[test]
    fn portfolio_query_with_shared_items_solves() {
        // sum of products sharing item x1: w1 x0 x1 + w2 x1 x2 : B.
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 1), (x(2), 1)]).unwrap(),
        ]);
        let q = PolynomialQuery::new(p, 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let rates = [0.5, 0.01, 0.3];
        let ctx = SolveContext::new(&values, &rates);
        let a = dual_dab(&q, &ctx, 5.0).unwrap();
        assert_eq!(a.primary.len(), 3);
        assert!(a.respects_qab(&q, 1e-6));
    }

    /// A unit's filter is a function of the unit and the values, not of
    /// its solve history: solved at `V0` and then recomputed at `V1` and
    /// `V2`, through this thread's program or through the unit's kept
    /// one, each recompute is bit for bit the solve of a fresh program at
    /// its values — whether `V0` is all positive or a value at zero in
    /// `V0` left a monomial out of the condition the program last held.
    #[test]
    fn a_recompute_is_the_fresh_solve_at_the_same_values() {
        let p = Polynomial::from_terms([
            PTerm::new(2.0, [(x(0), 1), (x(1), 1)]).unwrap(),
            PTerm::new(3.0, [(x(1), 1), (x(2), 1)]).unwrap(),
            PTerm::new(0.5, [(x(3), 2)]).unwrap(),
            PTerm::new(4.0, [(x(4), 1)]).unwrap(),
        ]);
        let q = PolynomialQuery::new(p, 10.0).unwrap();
        let rates = [0.5, 0.01, 0.3, 0.2, 0.1];
        let drifts = [
            [50.4, 1.98, 30.3, 7.05, 11.2],
            [49.7, 2.03, 29.8, 6.9, 11.1],
        ];
        let methods = [PpqMethod::DualDab { mu: 5.0 }, PpqMethod::OptimalRefresh];
        let installs = [[50.0, 2.0, 30.0, 7.0, 11.0], [50.0, 2.0, 30.0, 0.0, 11.0]];
        for ddm in [DataDynamicsModel::Monotonic, DataDynamicsModel::RandomWalk] {
            let at = |values| SolveContext::new(values, &rates).with_ddm(ddm);
            for (method, keep) in methods.into_iter().flat_map(|m| [(m, false), (m, true)]) {
                for installed in &installs {
                    let (mut columns, mut kept) = (UnitColumns::default(), None);
                    let unit = unit_of(&q);
                    solve_ppq(
                        &unit,
                        method,
                        &at(installed),
                        Some(true),
                        None,
                        &mut columns,
                    )
                    .unwrap();
                    for drifted in &drifts {
                        let slot = keep.then_some(&mut kept);
                        solve_ppq(&unit, method, &at(drifted), Some(false), slot, &mut columns)
                            .unwrap();
                        let fresh = PpqProgram::compile(&q, method, &at(drifted))
                            .unwrap()
                            .solve(&at(drifted), None)
                            .unwrap();
                        assert_eq!(
                            columns.assignment().all_bits(),
                            fresh.all_bits(),
                            "{method:?} {ddm} kept {keep} from {installed:?} to {drifted:?}"
                        );
                    }
                    assert_eq!(kept.is_some(), keep);
                }
            }
        }
    }

    /// A kept program is the unit's only while the unit, method, ddm and
    /// rates are those it was built for: a solve through it under any
    /// other rebuilds it, and is the fresh solve.
    #[test]
    fn a_kept_program_that_is_not_the_units_is_rebuilt() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(1), x(2))], 10.0).unwrap();
        let wider = q.with_qab(12.0).unwrap();
        let other = PolynomialQuery::portfolio([(2.0, x(0), x(2))], 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let (rates, faster) = ([0.5, 0.01, 0.3], [0.5, 0.02, 0.3]);
        let dual = PpqMethod::DualDab { mu: 5.0 };
        let at = |rates| SolveContext::new(&values, rates);
        let walk = SolveContext::new(&values, &rates).with_ddm(DataDynamicsModel::RandomWalk);
        let cases = [
            (&q, PpqMethod::OptimalRefresh, at(&rates)),
            (&q, dual, at(&rates)),
            (&wider, dual, at(&rates)),
            (&other, dual, at(&rates)),
            (&other, dual, at(&faster)),
            (&other, dual, walk),
            (&q, dual, at(&rates)),
        ];
        let mut kept = None;
        for (query, method, ctx) in &cases {
            let mut columns = UnitColumns::default();
            let unit = unit_of(query);
            solve_ppq(&unit, *method, ctx, None, Some(&mut kept), &mut columns).unwrap();
            assert!(kept.as_ref().unwrap().serves(&unit, *method, ctx));
            let fresh = PpqProgram::compile(query, *method, ctx)
                .unwrap()
                .solve(ctx, None)
                .unwrap();
            assert_eq!(
                columns.assignment().all_bits(),
                fresh.all_bits(),
                "{query} {method:?}"
            );
        }
        // A failed rebuild leaves the program no unit's.
        let unit = unit_of(&q);
        let bad = PpqMethod::DualDab { mu: -1.0 };
        let mut columns = UnitColumns::default();
        assert!(solve_ppq(&unit, bad, &at(&rates), None, Some(&mut kept), &mut columns).is_err());
        assert!(!kept.unwrap().serves(&unit, dual, &at(&rates)));
    }

    /// A value reaching exactly zero removes monomials from the condition:
    /// the program emitted at it has fewer condition terms, and every
    /// solve on the way to zero and back respects the QAB.
    #[test]
    fn a_value_at_zero_takes_the_rebuild_path_and_still_respects_the_qab() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(2), x(3))], 10.0).unwrap();
        let rates = [0.5, 0.01, 0.3, 0.2];
        let unit = unit_of(&q);
        let mut columns = UnitColumns::default();
        let mut solve = |values: &[f64; 4]| {
            let ctx = SolveContext::new(values, &rates);
            let first = columns.items().is_empty();
            let dual = PpqMethod::DualDab { mu: 5.0 };
            solve_ppq(&unit, dual, &ctx, Some(first), None, &mut columns).unwrap();
            let a = columns.assignment();
            assert!(a.respects_qab(&q, 1e-6), "at {values:?}");
            a
        };
        let full = solve(&[50.0, 2.0, 30.0, 4.0]);
        let at_zero = solve(&[0.0, 2.0, 30.0, 4.0]);
        assert!(at_zero.primary[&x(1)] > full.primary[&x(1)]);
        solve(&[0.0, 2.01, 30.0, 4.0]);
        solve(&[0.3, 2.01, 30.0, 4.0]);
        solve(&[0.31, 2.0, 30.1, 4.0]);
    }

    /// The solve as it ran before programs were emitted: spell the
    /// program out as a [`GpProblem`], compile that, and solve it.
    fn solve_through_the_problem(
        program: &mut PpqProgram,
        ctx: &SolveContext<'_>,
    ) -> Result<QueryAssignment, DabError> {
        program.map.eval_into(ctx.values, &mut program.coefs)?;
        let dual = program.method.mu().map(|mu| (mu, &program.coupled_b[..]));
        let (guess, interior) = predicted_start(
            &program.map.posynomial(&program.coefs)?,
            program.qab,
            &program.lambdas,
            program.ddm,
            dual,
        )?;
        let compiled = CompiledGp::compile(&program.problem()?)?;
        let sol = solve_compiled(&compiled, &guess, &interior, &ctx.gp, None)?;
        Ok(program.assignment(&sol, ctx))
    }

    /// The query as a unit of its own.
    fn unit_of(query: &PolynomialQuery) -> AssignmentUnit {
        AssignmentUnit::of_query(query, query.shared_poly().clone(), query.qab())
    }

    impl PpqProgram {
        /// The program of `query` under `method` at `ctx`'s rates, fresh:
        /// not this thread's scratch.
        fn compile(
            query: &PolynomialQuery,
            method: PpqMethod,
            ctx: &SolveContext<'_>,
        ) -> Result<Self, DabError> {
            let mut program = PpqProgram::default();
            program.refill(&unit_of(query), method, ctx)?;
            Ok(program)
        }

        /// The program solved at `ctx`'s values, counted as `first` says.
        fn solve(
            &mut self,
            ctx: &SolveContext<'_>,
            first: Option<bool>,
        ) -> Result<QueryAssignment, DabError> {
            UnitColumns::one_shot(|out| self.solve_into(ctx, first, out))
        }

        /// [`PpqProgram::compiled`] spelled out as a problem: the reference
        /// the emitted rows are tested against.
        fn problem(&self) -> Result<GpProblem, DabError> {
            let n = self.lambdas.len();
            let r_var = n + self.coupled_b.len();
            let refresh = |lambda: f64, var: usize| {
                let coef = self.ddm.refresh_coef(lambda);
                Monomial::new(coef, [(var, -self.ddm.exponent())])
                    .expect("rate is floored positive")
            };
            let mut objective = Posynomial::zero();
            for (k, &lambda) in self.lambdas.iter().enumerate() {
                objective.push(refresh(lambda, k));
            }
            let mu = self.method.mu();
            let mut problem = GpProblem::new(r_var + usize::from(mu.is_some()));
            if let Some(mu) = mu {
                objective.push(Monomial::new(mu, [(r_var, 1.0)])?);
            }
            problem.set_objective(objective)?;
            problem.add_constraint_le(self.map.posynomial(&self.coefs)?, self.qab)?;
            for (j, &b_var) in self.coupled_b.iter().enumerate() {
                let c_var = n + j;
                problem.add_var_le_var(b_var, c_var)?;
                let escape = refresh(self.lambdas[b_var], c_var);
                let coupled = escape.mul(&Monomial::new(1.0, [(r_var, -1.0)])?);
                problem.add_constraint(Posynomial::monomial(coupled))?;
            }
            Ok(problem)
        }
    }

    /// One term: the bits of its `ln` coefficient, its row.
    type TermBits<'a> = (u64, &'a [(usize, f64)]);

    /// Every term of every posynomial of `gp`, objective first.
    fn rows_and_bits(gp: &CompiledGp) -> Vec<Vec<TermBits<'_>>> {
        fn terms(f: pq_gp::logsumexp::LogPosynomial<'_>) -> Vec<TermBits<'_>> {
            let bits = f.log_coefs().iter().map(|c| c.to_bits());
            bits.zip(f.rows()).collect()
        }
        gp.arena().iter().map(terms).collect()
    }

    mod emitted_program {
        use super::*;
        use proptest::prelude::*;

        const POOL: u32 = 8;

        /// Legs `w * x_i^p [* x_j^q]` (`i == j`: one factor), then per
        /// item `log10` value, whether the value is exactly 0 instead, and
        /// `log10` rate; `log10` of QAB / query value, `log10` of mu, the
        /// ddm and the method.
        type RawCase = (
            Vec<(u32, u32, u32, u32, f64)>,
            Vec<(f64, bool, f64)>,
            f64,
            f64,
            (bool, bool),
        );

        fn raw_case() -> impl Strategy<Value = RawCase> {
            (
                proptest::collection::vec(
                    (0..POOL, 0..POOL, 1u32..=3, 1u32..=3, -1.0f64..2.0),
                    1..=8,
                ),
                proptest::collection::vec(
                    (-3.0f64..4.0, (0u8..6).prop_map(|z| z == 0), -9.0f64..1.0),
                    POOL as usize,
                ),
                -6.0f64..-0.7,
                -1.0f64..2.0,
                (0u8..2, 0u8..2).prop_map(|(a, b)| (a == 1, b == 1)),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The flat arena a program emits is the one compiling its
            /// spelled-out problem gives — posynomial for posynomial, row
            /// for row, same exponents, same `ln` coefficients bit for
            /// bit, same backend, no array grown twice — and the
            /// solves through them, a first one and one after every zero
            /// value turned positive, return the assignments the solves
            /// through the problem return.
            #[test]
            fn emitted_rows_are_the_compiled_problem(raw in raw_case()) {
                let (legs, items, qab_share, mu, (walk, refresh_only)) = raw;
                let body = Polynomial::from_terms(legs.iter().map(|&(i, j, p, q, w)| {
                    let vars = if i == j { vec![(x(i), p)] } else { vec![(x(i), p), (x(j), q)] };
                    PTerm::new(10f64.powf(w), vars).expect("positive weight")
                }));
                prop_assume!(!body.is_linear());
                let installed: Vec<f64> = (items.iter())
                    .map(|&(v, zero, _)| if zero { 0.0 } else { 10f64.powf(v) })
                    .collect();
                let drifted: Vec<f64> = (items.iter())
                    .map(|&(v, _, _)| 1.01 * 10f64.powf(v))
                    .collect();
                let rates: Vec<f64> = items.iter().map(|&(_, _, r)| 10f64.powf(r)).collect();
                let qab = 10f64.powf(qab_share) * body.eval(&drifted);
                let query = PolynomialQuery::new(body, qab).unwrap();
                let ddm = if walk { DataDynamicsModel::RandomWalk } else { DataDynamicsModel::Monotonic };
                let method = if refresh_only {
                    PpqMethod::OptimalRefresh
                } else {
                    PpqMethod::DualDab { mu: 10f64.powf(mu) }
                };
                let at = |values| SolveContext::new(values, &rates).with_ddm(ddm);

                let mut emitting = PpqProgram::compile(&query, method, &at(&installed)).unwrap();
                let mut spelling = PpqProgram::compile(&query, method, &at(&installed)).unwrap();
                emitting.map.eval_into(&installed, &mut emitting.coefs).unwrap();
                let reference = emitting.problem().map(|p| CompiledGp::compile(&p).unwrap());
                // Emitted into an empty arena, not the one a case before left.
                drop(ARENA.take());
                match (emitting.compiled(), reference) {
                    (Ok(emitted), Ok(compiled)) => {
                        prop_assert_eq!(emitted.n_vars(), compiled.n_vars());
                        prop_assert_eq!(emitted.has_sparse_plan(), compiled.has_sparse_plan());
                        prop_assert_eq!(emitted.n_constraints(), compiled.n_constraints());
                        prop_assert_eq!(rows_and_bits(&emitted), rows_and_bits(&compiled));
                        // Counted exactly: each array was allocated once.
                        prop_assert_eq!(emitted.arena().spare_capacity(), 0);
                    }
                    // Every item of a leg at zero: no condition either way.
                    (Err(_), Err(_)) => {}
                    (emitted, compiled) => prop_assert!(
                        false,
                        "emitted {:?}, compiled {:?}",
                        emitted.map(|_| ()),
                        compiled.map(|_| ())
                    ),
                }

                for values in [&installed, &drifted] {
                    let emitted = emitting.solve(&at(values), None);
                    let spelled = solve_through_the_problem(&mut spelling, &at(values));
                    match (emitted, spelled) {
                        (Ok(e), Ok(s)) => prop_assert_eq!(e.all_bits(), s.all_bits()),
                        (Err(_), Err(_)) => {}
                        (e, s) => prop_assert!(false, "emitted {:?}, spelled out {:?}", e, s),
                    }
                }
            }
        }
    }

    /// A start whose blend fails — here an anchor outside the condition —
    /// still ends in phase I, on the emitted program, counted as the one
    /// cold start a unit's first solve is; the unit's next solve starts
    /// from the prediction and counts its blend.
    #[test]
    fn a_failed_blend_reaches_phase_one_through_the_emitted_program() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(1), x(2))], 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let rates = [0.5, 0.01, 0.3];
        let (obs, _ring) = pq_obs::Obs::ring(64);
        let mut ctx = SolveContext::new(&values, &rates);
        ctx.gp.obs = obs.clone();
        let mut program = PpqProgram::compile(&q, PpqMethod::DualDab { mu: 5.0 }, &ctx).unwrap();
        program.map.eval_into(&values, &mut program.coefs).unwrap();
        let outside = vec![1e3; 3 + 3 + 1];
        assert!(program.problem().unwrap().max_violation(&outside) > 0.0);

        let sol = program
            .solve_from(&outside, &outside, &ctx, Some(true))
            .unwrap();
        let oracle = pq_gp::solve(&program.problem().unwrap(), &ctx.gp).unwrap();
        assert_eq!(sol.x, oracle.x);
        assert!(program.assignment(&sol, &ctx).respects_qab(&q, 1e-6));
        let snap = obs.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(count(pq_obs::names::SOLVE_COLD_START), 1);
        assert_eq!(count(pq_obs::names::SOLVE_COLD_FALLBACK), 0);
        assert_eq!(count(pq_obs::names::SOLVE_WARM_HIT), 0);
        assert_eq!(count(pq_obs::names::SOLVE_WARM_REPAIR), 0);

        // The next solve starts from the prediction at the drifted values.
        let drifted = [50.4, 1.98, 30.3];
        let next = program
            .solve(
                &SolveContext {
                    values: &drifted,
                    ..ctx.clone()
                },
                Some(false),
            )
            .unwrap();
        assert!(next.respects_qab(&q, 1e-6));
        assert_eq!(obs.snapshot().counters[pq_obs::names::SOLVE_WARM_HIT], 1);
    }

    /// A Dual-DAB and an Optimal-Refresh unit whose blend fails (start
    /// and anchor both outside the condition) end in phase I on the
    /// emitted program, and the answer is, bit for bit, the one the
    /// phase-I solve of the program spelled out as a problem gave when
    /// phase I still ran on that: the FNV-1a hash of every float of the
    /// solution and the assignment was taken from it.
    #[test]
    fn a_failed_blend_solves_phase_one_on_the_compiled_program() {
        let q = PolynomialQuery::portfolio([(2.0, x(0), x(1)), (3.0, x(1), x(2))], 10.0).unwrap();
        let values = [50.0, 2.0, 30.0];
        let rates = [0.5, 0.01, 0.3];
        let cases = [
            (
                PpqMethod::DualDab { mu: 5.0 },
                3 + 3 + 1,
                0xf1e4_38ca_6740_733d_u64,
            ),
            (PpqMethod::OptimalRefresh, 3, 0x0da4_7cd2_f9ed_4bee),
        ];
        for (method, n_vars, golden) in cases {
            let (obs, ring) = pq_obs::Obs::ring(1024);
            let mut ctx = SolveContext::new(&values, &rates);
            ctx.gp.obs = obs.clone();
            let mut program = PpqProgram::compile(&q, method, &ctx).unwrap();
            program.map.eval_into(&values, &mut program.coefs).unwrap();
            let outside = vec![1e3; n_vars];
            let sol = program
                .solve_from(&outside, &outside, &ctx, Some(true))
                .unwrap();
            let phase_one = ring.events().iter().any(|e| {
                e.target == "gp.solve_ns"
                    && e.field("phase_one") == Some(&pq_obs::Value::Bool(true))
            });
            assert!(phase_one, "{method:?}: phase I ran");
            let oracle = pq_gp::solve(&program.problem().unwrap(), &ctx.gp).unwrap();
            assert_eq!(sol.x, oracle.x, "{method:?}");
            let a = program.assignment(&sol, &ctx);
            assert!(a.respects_qab(&q, 1e-6), "{method:?}");
            let bits = (sol.x.iter().chain([&sol.objective]))
                .map(|v| v.to_bits())
                .chain(a.all_bits());
            let mut hash = 0xcbf2_9ce4_8422_2325_u64;
            for byte in bits.flat_map(u64::to_le_bytes) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
            assert_eq!(hash, golden, "{method:?}");
        }
    }

    #[test]
    fn tight_qab_still_finds_feasible_start() {
        let q = product_query(1e-6);
        let values = [1000.0, 1000.0];
        let rates = [1.0, 1.0];
        let ctx = SolveContext::new(&values, &rates);
        let a = optimal_refresh(&q, &ctx).unwrap();
        assert!(a.respects_qab(&q, 1e-9));
    }
}
