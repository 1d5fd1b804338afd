//! A posteriori optimality verification via KKT residuals.
//!
//! Given a claimed solution of a GP, this module reconstructs Lagrange
//! multipliers for the log-transformed convex program and reports the KKT
//! residuals. Tests (and sceptical users) can thereby *verify* optimality
//! independently of the solver's own convergence claims.
//!
//! In log variables the program is `min F0(y) s.t. Fi(y) <= 0`; at an
//! optimum there exist `nu_i >= 0` with
//!
//! ```text
//! grad F0(y) + sum_i nu_i grad Fi(y) = 0      (stationarity)
//! nu_i * Fi(y) = 0                            (complementary slackness)
//! ```
//!
//! We find the `nu >= 0` minimizing the stationarity residual by
//! non-negative least squares (projected coordinate descent — problems
//! here have few constraints) and report both residuals.

use crate::linalg::{dot, norm2, Matrix};
use crate::logsumexp::{softmax_in_place, LogArena, LogPosynomial};
use crate::ordering::{invert_permutation, min_degree};
use crate::problem::GpProblem;
use crate::sparse::{upper_csc_from_pairs, SymbolicChol};

/// KKT residuals of a claimed solution.
#[derive(Debug, Clone)]
pub struct KktReport {
    /// Euclidean norm of the stationarity residual
    /// `grad F0 + sum nu_i grad Fi` (should be ~0 at an optimum).
    pub stationarity: f64,
    /// Largest `nu_i * |Fi(y)|` (complementary slackness; ~0).
    pub complementarity: f64,
    /// Largest constraint violation `max_i Fi(y)` (<= 0 when feasible).
    pub feasibility: f64,
    /// The recovered multipliers.
    pub multipliers: Vec<f64>,
}

impl KktReport {
    /// True if all residuals are within `tol` (feasibility within `tol`
    /// above zero).
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.stationarity <= tol && self.complementarity <= tol && self.feasibility <= tol
    }
}

/// Computes KKT residuals for `x` on `problem`.
///
/// # Panics
/// Panics if the problem has no objective or `x` has the wrong length or
/// non-positive entries (callers verify solutions, which are positive).
pub fn kkt_report(problem: &GpProblem, x: &[f64]) -> KktReport {
    let (objective, constraints) = problem.validated().expect("problem must have an objective");
    assert_eq!(x.len(), problem.n_vars());
    assert!(x.iter().all(|&v| v > 0.0), "point must be positive");
    let n = problem.n_vars();
    let y: Vec<f64> = x.iter().map(|&v| v.ln()).collect();

    let arena = LogArena::compile(std::iter::once(objective).chain(constraints), n);
    let (_, g0) = arena.get(0).value_grad(&y);

    let mut values = Vec::with_capacity(constraints.len());
    let mut grads = Vec::with_capacity(constraints.len());
    for lc in arena.iter().skip(1) {
        let (v, g) = lc.value_grad(&y);
        values.push(v);
        grads.push(g);
    }
    let feasibility = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    // Non-negative least squares: min || g0 + G^T nu ||^2, nu >= 0, via
    // projected coordinate descent (m is small).
    let m = grads.len();
    let mut nu = vec![0.0; m];
    let mut residual: Vec<f64> = g0.clone();
    // residual = g0 + sum nu_i grads_i; start nu = 0.
    let diag: Vec<f64> = grads.iter().map(|g| dot(g, g).max(1e-300)).collect();
    for _ in 0..400 {
        let mut moved = 0.0_f64;
        for i in 0..m {
            let step = -dot(&grads[i], &residual) / diag[i];
            let new = (nu[i] + step).max(0.0);
            let delta = new - nu[i];
            if delta != 0.0 {
                for (r, g) in residual.iter_mut().zip(&grads[i]) {
                    *r += delta * g;
                }
                nu[i] = new;
                moved = moved.max(delta.abs());
            }
        }
        if moved < 1e-14 {
            break;
        }
    }

    // The descent loop maintains `residual` incrementally; recompute it
    // exactly as `g0 + G^T nu` before reporting, so the published number
    // carries no accumulated update error.
    let mut gt = Matrix::zeros(n, m);
    for (i, g) in grads.iter().enumerate() {
        for (j, &gj) in g.iter().enumerate() {
            gt[(j, i)] = gj;
        }
    }
    let mut correction = vec![0.0; n];
    gt.matvec_into(&nu, &mut correction);
    for ((r, &g), &c) in residual.iter_mut().zip(&g0).zip(&correction) {
        *r = g + c;
    }
    let stationarity = norm2(&residual);
    let complementarity = nu
        .iter()
        .zip(&values)
        .map(|(&ni, &vi)| ni * vi.abs())
        .fold(0.0_f64, f64::max);
    KktReport {
        stationarity,
        complementarity,
        feasibility,
        multipliers: nu,
    }
}

// ---------------------------------------------------------------------------
// Sparse KKT plan
// ---------------------------------------------------------------------------
//
// The reduced primal–dual Newton matrix at duals `λ` is
//
// ```text
// H = (SM0 − g0 g0ᵀ)                                   (objective, multi-term)
//   + Σ_i [ λ_i (SMi − gi giᵀ) + λ_i/s_i gi giᵀ ]      (constraints)
// ```
//
// where `SMi = Σ_k p_k a_k a_kᵀ` is the softmax second moment of posynomial
// `i`'s exponent rows, `gi = ∇Fi`, and `s_i = −Fi > 0` is the slack (with
// centred duals `λ_i = 1/(t s_i)` this is the barrier Hessian over `t`).
// Every `SM` term only touches the handful of variables its monomial
// mentions, so `H` splits as `H = S + Σ_r β_r g_r g_rᵀ`:
//
// * `S` — a sparse matrix collecting, per posynomial, either the *whole*
//   contribution (when the posynomial's support is small: a support-clique
//   of nonzeros, and positive semidefinite because it is `λ · ∇²Fi`
//   plus `λ/s gi giᵀ`), or only the per-term second-moment cliques (when
//   the support is large).
// * the corrections — gradient outer products of the few wide-support
//   posynomials (in AAO units: the joint objective), *hoisted* out of the
//   factorization and applied by Sherman–Morrison–Woodbury at solve time.
//
// `S` is positive semidefinite by construction, so `S + reg·I` factors for
// any `reg > 0`; solving `(S̃ + Σ β g gᵀ) x = b` by SMW then solves exactly
// `(H + reg·I) x = b` — the same regularization semantics as the dense
// ladder. A residual check guards the (possibly indefinite) capacitance
// system at `reg = 0`.
//
// Everything structural — canonical term order, supports, the min-degree
// permutation, the symbolic factorization, and every scatter slot — is
// computed once per compiled GP and reused across all Newton steps,
// regularization retries, and coefficient refreshes.

/// Posynomial supports larger than this keep their gradient outer product
/// out of `S` (hoisted into an SMW correction) instead of materializing an
/// `s × s` clique.
const GRAD_CLIQUE_CUTOFF: usize = 48;
/// A compiled program smaller than this never takes the sparse
/// backend — dense wins below it.
const SPARSE_MIN_N: usize = 192;
/// A compiled program stays dense when more than this many posynomials need
/// hoisting (each costs a dense triangular solve per Newton step).
const MAX_HOISTED_AUTO: usize = 16;
/// Relative residual accepted from an SMW-corrected solve before the
/// regularization ladder escalates.
const SMW_RESIDUAL_TOL: f64 = 1e-6;

/// How one posynomial's gradient outer product `β g gᵀ` enters the KKT
/// system.
#[derive(Debug, Clone)]
enum GradKind {
    /// Affine objective: no Hessian contribution at all.
    Skip,
    /// Small support: scattered into `S` as a support-clique. Slots cover
    /// the `(li, lj)`, `li <= lj` local pairs in row-major order.
    Clique(Vec<u32>),
    /// Wide support: hoisted into SMW correction `h`.
    Hoisted(u32),
}

/// One monomial term, pre-resolved against the global pattern.
#[derive(Debug, Clone)]
struct TermPlan {
    /// Index of this term's coefficient in the source [`LogPosynomial`]
    /// (terms are re-sorted canonically; coefficients are read live so
    /// in-place refreshes keep working).
    coef_idx: u32,
    /// `(local support index, exponent)` pairs, locals ascending.
    entries: Vec<(u32, f64)>,
    /// Second-moment scatter: `(value slot, e_a · e_b)` per unordered
    /// support pair of this term (diagonal included). Empty for affine
    /// posynomials (their second moment cancels against `g gᵀ`).
    sm_slots: Vec<(u32, f64)>,
}

/// One posynomial (objective or constraint) in plan form.
#[derive(Debug, Clone)]
struct PosyPlan {
    /// Sorted original variable ids this posynomial touches.
    support: Vec<u32>,
    /// Terms in canonical (insertion-order-independent) order.
    terms: Vec<TermPlan>,
    grad: GradKind,
}

/// The per-compiled-GP sparse KKT structure: canonical term ordering,
/// fill-reducing permutation, cached symbolic factorization, and
/// pre-resolved scatter slots for assembling `S` directly in permuted
/// upper-CSC form. Built once (it depends only on the term *structure*,
/// not coefficients) and shared via `Arc` across warm-started solves.
#[derive(Debug, Clone)]
pub struct SparseKktPlan {
    n: usize,
    posys: Vec<PosyPlan>,
    /// `perm[new] = old` (min-degree order).
    perm: Vec<u32>,
    sym: SymbolicChol,
    /// Value slot of diagonal `(k, k)` per permuted index `k`.
    diag_slots: Vec<u32>,
    /// Permuted variable ids of hoisted gradients, flat.
    hoist_pvars: Vec<u32>,
    /// Offsets into `hoist_pvars` / scratch values, length `n_hoisted+1`.
    hoist_offsets: Vec<u32>,
    max_support: usize,
}

/// Caller-owned numeric buffers for one solver workspace; every slice is
/// sized by [`SparseScratch::ensure`] against the active plan.
#[derive(Debug, Default)]
pub struct SparseScratch {
    /// Assembled values of `S`, positionally matching the plan's pattern.
    a_values: Vec<f64>,
    /// Numeric factor of `S + reg I`.
    lvals: Vec<f64>,
    /// Dense factor scratch (kept all-zero between factorizations).
    fx: Vec<f64>,
    cursor: Vec<u32>,
    /// Support-local gradient of the current posynomial.
    glocal: Vec<f64>,
    /// Permuted right-hand side, solution, residual, diagonal.
    pb: Vec<f64>,
    sol: Vec<f64>,
    resid: Vec<f64>,
    diag: Vec<f64>,
    /// Hoisted gradient values (aligned with the plan's `hoist_pvars`) and
    /// their per-eval `β` weights.
    hoist_vals: Vec<f64>,
    hoist_beta: Vec<f64>,
    /// Dense SMW workspace: `k` solved columns, capacitance matrix, rhs.
    w: Vec<f64>,
    cap: Vec<f64>,
    cap_rhs: Vec<f64>,
    active: Vec<usize>,
    /// Largest |diagonal| of the last assembled `H` (regularization scale).
    scale: f64,
}

impl SparseScratch {
    /// Grows every buffer to fit `plan`, re-establishing the all-zero
    /// invariant of the factor scratch.
    pub fn ensure(&mut self, plan: &SparseKktPlan) {
        let n = plan.n;
        let k = plan.n_hoisted();
        self.a_values.resize(plan.sym.a_pattern().1.len(), 0.0);
        self.lvals.resize(plan.sym.l_nnz(), 0.0);
        self.fx.clear();
        self.fx.resize(n, 0.0);
        self.cursor.resize(n, 0);
        self.glocal.resize(plan.max_support, 0.0);
        self.pb.resize(n, 0.0);
        self.sol.resize(n, 0.0);
        self.resid.resize(n, 0.0);
        self.diag.resize(n, 0.0);
        self.hoist_vals.resize(plan.hoist_pvars.len(), 0.0);
        self.hoist_beta.resize(k, 0.0);
        self.w.resize(k * n, 0.0);
        self.cap.resize(k * k, 0.0);
        self.cap_rhs.resize(k, 0.0);
    }
}

/// Weights with which one posynomial enters the reduced Newton system
/// `[∇²F0 + Σ λ_i ∇²Fi + Σ (λ_i/s_i) ∇Fi∇Fiᵀ] Δy = −(∇F0 + (1/t) Σ ∇Fi/s_i)`:
/// `(weight of ∇F on the right-hand side, of its second moment, of
/// ∇F∇Fᵀ)`. `dual` is `None` for the objective and `(λ_i, s_i)` for a
/// constraint; `∇²F = SM − ∇F∇Fᵀ` vanishes for affine (one-term) rows.
pub(crate) fn newton_weights(dual: Option<(f64, f64)>, multi: bool, inv_t: f64) -> (f64, f64, f64) {
    let curved = if multi { 1.0 } else { 0.0 };
    match dual {
        None => (1.0, curved, -curved),
        Some((l, s)) => (inv_t / s, l * curved, l / s - l * curved),
    }
}

/// Canonical order of a posynomial's terms: by exponent row (variable
/// ascending, then exponent, then row length), then log-coefficient, then
/// original index. Any insertion order of the same term multiset yields
/// the same plan — the root of the sparse path's byte-determinism.
fn canonical_term_order(lp: LogPosynomial<'_>) -> Vec<u32> {
    let mut order: Vec<u32> = (0..lp.n_terms() as u32).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (lp.row(a as usize), lp.row(b as usize));
        for ((va, ea), (vb, eb)) in ra.iter().zip(rb.iter()) {
            match va.cmp(vb).then(ea.total_cmp(eb)) {
                std::cmp::Ordering::Equal => {}
                ord => return ord,
            }
        }
        ra.len()
            .cmp(&rb.len())
            .then(lp.log_coef(a as usize).total_cmp(&lp.log_coef(b as usize)))
            .then(a.cmp(&b))
    });
    order
}

/// Sorted distinct variables of a posynomial.
fn posy_support(lp: LogPosynomial<'_>) -> Vec<u32> {
    let mut support: Vec<u32> = lp
        .rows()
        .flat_map(|r| r.iter().map(|&(v, _)| v as u32))
        .collect();
    support.sort_unstable();
    support.dedup();
    support
}

/// Slot of the symmetric entry `(pi, pj)` (permuted indices) in the
/// upper-CSC pattern.
fn slot_of(col_ptr: &[u32], row_idx: &[u32], pi: u32, pj: u32) -> u32 {
    let (r, c) = if pi <= pj { (pi, pj) } else { (pj, pi) };
    let lo = col_ptr[c as usize] as usize;
    let hi = col_ptr[c as usize + 1] as usize;
    let off = row_idx[lo..hi]
        .binary_search(&r)
        .expect("pattern must contain every scatter target");
    (lo + off) as u32
}

/// True when a program compiled from `arena` should solve on the
/// sparse backend: large enough, clique density low enough, and few
/// enough wide-support posynomials to hoist.
pub(crate) fn auto_wanted(arena: &LogArena) -> bool {
    let n = arena.n_vars();
    if n < SPARSE_MIN_N {
        return false;
    }
    let mut hoisted = 0usize;
    let mut est_nnz: u64 = 0;
    for (pi, lp) in arena.iter().enumerate() {
        let affine = lp.n_terms() == 1;
        if pi == 0 && affine {
            continue;
        }
        let s = posy_support(lp).len() as u64;
        if s as usize > GRAD_CLIQUE_CUTOFF {
            hoisted += 1;
            for r in lp.rows() {
                let t = r.len() as u64;
                est_nnz += t * (t + 1) / 2;
            }
        } else {
            est_nnz += s * (s + 1) / 2;
        }
    }
    let n = n as u64;
    hoisted <= MAX_HOISTED_AUTO && est_nnz <= n * (n + 1) / 8
}

impl SparseKktPlan {
    /// Analyzes the structure of a compiled GP (`arena`'s first posynomial
    /// is the objective, the rest are the constraints): canonical term
    /// order, hoisting decisions, sparsity pattern, min-degree
    /// permutation, symbolic factorization, and scatter slots.
    pub fn build(arena: &LogArena) -> Self {
        let n = arena.n_vars();
        struct Raw {
            support: Vec<u32>,
            order: Vec<u32>,
            kind: u8, // 0 = skip, 1 = clique, 2 = hoisted
        }
        let mut raws = Vec::with_capacity(arena.len());
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (pi, lp) in arena.iter().enumerate() {
            let support = posy_support(lp);
            let order = canonical_term_order(lp);
            let affine = lp.n_terms() == 1;
            let kind = if pi == 0 && affine {
                0
            } else if support.len() <= GRAD_CLIQUE_CUTOFF {
                1
            } else {
                2
            };
            match kind {
                1 => {
                    // The support clique covers every term pair too.
                    for (ai, &va) in support.iter().enumerate() {
                        for &vb in &support[ai + 1..] {
                            pairs.push((va, vb));
                        }
                    }
                }
                2 if !affine => {
                    // Only the per-term second-moment cliques enter `S`.
                    for row in lp.rows() {
                        for (ai, &(va, _)) in row.iter().enumerate() {
                            for &(vb, _) in &row[ai + 1..] {
                                pairs.push((va as u32, vb as u32));
                            }
                        }
                    }
                }
                _ => {}
            }
            raws.push(Raw {
                support,
                order,
                kind,
            });
        }

        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in &pairs {
            adjacency[a as usize].push(b);
            adjacency[b as usize].push(a);
        }
        let perm = min_degree(n, &adjacency);
        let inv = invert_permutation(&perm);

        let permuted: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(a, b)| (inv[a as usize], inv[b as usize]))
            .collect();
        let (col_ptr, row_idx) = upper_csc_from_pairs(n, &permuted);
        let sym = SymbolicChol::analyze(n, col_ptr, row_idx);
        let (cp, ri) = sym.a_pattern();
        let diag_slots: Vec<u32> = (0..n)
            .map(|k| {
                let slot = cp[k + 1] - 1;
                debug_assert_eq!(ri[slot as usize] as usize, k, "diagonal is last in column");
                slot
            })
            .collect();

        // Second pass: resolve slots now that the pattern exists.
        let mut posys = Vec::with_capacity(raws.len());
        let mut hoist_pvars = Vec::new();
        let mut hoist_offsets = vec![0u32];
        let mut max_support = 0usize;
        let mut n_hoisted = 0u32;
        for (raw, lp) in raws.iter().zip(arena.iter()) {
            let multi = lp.n_terms() > 1;
            max_support = max_support.max(raw.support.len());
            let terms: Vec<TermPlan> = raw
                .order
                .iter()
                .map(|&orig| {
                    let row = lp.row(orig as usize);
                    let entries: Vec<(u32, f64)> = row
                        .iter()
                        .map(|&(v, e)| {
                            let li = raw.support.binary_search(&(v as u32)).unwrap() as u32;
                            (li, e)
                        })
                        .collect();
                    let mut sm_slots = Vec::new();
                    if multi {
                        sm_slots.reserve(row.len() * (row.len() + 1) / 2);
                        for (ai, &(va, ea)) in row.iter().enumerate() {
                            for &(vb, eb) in &row[ai..] {
                                let slot = slot_of(cp, ri, inv[va], inv[vb]);
                                sm_slots.push((slot, ea * eb));
                            }
                        }
                    }
                    TermPlan {
                        coef_idx: orig,
                        entries,
                        sm_slots,
                    }
                })
                .collect();
            let grad = match raw.kind {
                0 => GradKind::Skip,
                1 => {
                    let s = raw.support.len();
                    let mut slots = Vec::with_capacity(s * (s + 1) / 2);
                    for (ai, &va) in raw.support.iter().enumerate() {
                        for &vb in &raw.support[ai..] {
                            slots.push(slot_of(cp, ri, inv[va as usize], inv[vb as usize]));
                        }
                    }
                    GradKind::Clique(slots)
                }
                _ => {
                    for &v in &raw.support {
                        hoist_pvars.push(inv[v as usize]);
                    }
                    hoist_offsets.push(hoist_pvars.len() as u32);
                    n_hoisted += 1;
                    GradKind::Hoisted(n_hoisted - 1)
                }
            };
            posys.push(PosyPlan {
                support: raw.support.clone(),
                terms,
                grad,
            });
        }

        SparseKktPlan {
            n,
            posys,
            perm,
            sym,
            diag_slots,
            hoist_pvars,
            hoist_offsets,
            max_support,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Number of hoisted (SMW-corrected) gradient outer products.
    pub fn n_hoisted(&self) -> usize {
        self.hoist_offsets.len() - 1
    }

    /// Nonzeros in the factor `L`.
    pub fn l_nnz(&self) -> usize {
        self.sym.l_nnz()
    }

    /// Evaluates every posynomial at `y` in canonical term order (so the
    /// arithmetic is independent of term insertion order): appends the
    /// softmax weights to `probs` (objective first), writes the slacks
    /// `−Fi(y)` and returns `F0(y)` — or `None` as soon as a constraint is
    /// not strictly satisfied.
    pub(crate) fn eval_point(
        &self,
        arena: &LogArena,
        y: &[f64],
        probs: &mut Vec<f64>,
        slack: &mut [f64],
    ) -> Option<f64> {
        let mut v0 = 0.0;
        for (pi, (pp, lp)) in self.posys.iter().zip(arena.iter()).enumerate() {
            let at = probs.len();
            for tp in &pp.terms {
                let mut zk = lp.log_coef(tp.coef_idx as usize);
                for &(li, e) in &tp.entries {
                    zk += e * y[pp.support[li as usize] as usize];
                }
                probs.push(zk);
            }
            let v = softmax_in_place(&mut probs[at..]);
            if pi == 0 {
                v0 = v;
            } else if v < 0.0 {
                slack[pi - 1] = -v;
            } else {
                return None;
            }
        }
        Some(v0)
    }

    /// Calls `f(posynomial index, plan, its softmax weights)` for every
    /// posynomial over the flat `probs` buffer of [`Self::eval_point`].
    fn for_each_posy(&self, probs: &[f64], mut f: impl FnMut(usize, &PosyPlan, &[f64])) {
        let mut at = 0;
        for (pi, pp) in self.posys.iter().enumerate() {
            let k = pp.terms.len();
            f(pi, pp, &probs[at..at + k]);
            at += k;
        }
    }

    /// `r = ∇F0 + Σ λi ∇Fi` from the weights of [`Self::eval_point`].
    pub(crate) fn dual_residual(&self, probs: &[f64], lam: &[f64], r: &mut [f64]) {
        r.fill(0.0);
        self.for_each_posy(probs, |pi, pp, p| {
            let w = if pi == 0 { 1.0 } else { lam[pi - 1] };
            for (tp, pk) in pp.terms.iter().zip(p) {
                let wp = w * pk;
                for &(li, e) in &tp.entries {
                    r[pp.support[li as usize] as usize] += wp * e;
                }
            }
        });
    }

    /// `out[i] = ∇Fi · dy` per constraint.
    pub(crate) fn directional(&self, probs: &[f64], dy: &[f64], out: &mut [f64]) {
        self.for_each_posy(probs, |pi, pp, p| {
            if pi == 0 {
                return;
            }
            let mut acc = 0.0;
            for (tp, pk) in pp.terms.iter().zip(p) {
                let mut ad = 0.0;
                for &(li, e) in &tp.entries {
                    ad += e * dy[pp.support[li as usize] as usize];
                }
                acc += pk * ad;
            }
            out[pi - 1] = acc;
        });
    }

    /// Assembles the reduced Newton system at the point whose weights and
    /// slacks [`Self::eval_point`] produced: the matrix
    /// `∇²F0 + Σ λi ∇²Fi + Σ (λi/si) ∇Fi∇Fiᵀ` in decomposed form (`S`
    /// values + hoisted corrections) into `s`, and the right-hand side
    /// `−(∇F0 + inv_t Σ ∇Fi/si)` into `rhs` (original variable order).
    pub(crate) fn assemble(
        &self,
        probs: &[f64],
        lam: &[f64],
        slack: &[f64],
        inv_t: f64,
        s: &mut SparseScratch,
        rhs: &mut [f64],
    ) {
        s.a_values.fill(0.0);
        rhs.fill(0.0);
        self.for_each_posy(probs, |pi, pp, p| {
            let dual = pi.checked_sub(1).map(|i| (lam[i], slack[i]));
            let (w_rhs, alpha, beta) = newton_weights(dual, pp.terms.len() > 1, inv_t);
            let sup = pp.support.len();
            s.glocal[..sup].fill(0.0);
            for (tp, &pk) in pp.terms.iter().zip(p) {
                if pk == 0.0 {
                    continue;
                }
                for &(li, e) in &tp.entries {
                    s.glocal[li as usize] += pk * e;
                }
                let apk = alpha * pk;
                for &(slot, eprod) in &tp.sm_slots {
                    s.a_values[slot as usize] += apk * eprod;
                }
            }
            for li in 0..sup {
                rhs[pp.support[li] as usize] -= w_rhs * s.glocal[li];
            }
            match &pp.grad {
                GradKind::Skip => {}
                GradKind::Clique(slots) => {
                    let mut si = 0usize;
                    for li in 0..sup {
                        let gli = beta * s.glocal[li];
                        for lj in li..sup {
                            s.a_values[slots[si] as usize] += gli * s.glocal[lj];
                            si += 1;
                        }
                    }
                }
                GradKind::Hoisted(h) => {
                    let h = *h as usize;
                    s.hoist_beta[h] = beta;
                    let off = self.hoist_offsets[h] as usize;
                    s.hoist_vals[off..off + sup].copy_from_slice(&s.glocal[..sup]);
                }
            }
        });

        // Regularization scale: |diag H| = |diag S + Σ β g²| at its max.
        for k in 0..self.n {
            s.diag[k] = s.a_values[self.diag_slots[k] as usize];
        }
        for h in 0..self.n_hoisted() {
            let b = s.hoist_beta[h];
            let (o0, o1) = (
                self.hoist_offsets[h] as usize,
                self.hoist_offsets[h + 1] as usize,
            );
            for i in o0..o1 {
                let g = s.hoist_vals[i];
                s.diag[self.hoist_pvars[i] as usize] += b * g * g;
            }
        }
        s.scale = s.diag.iter().fold(0.0_f64, |m, &d| m.max(d.abs())).max(1.0);
    }

    /// Solves `H dy = rhs` for the matrix last assembled by
    /// [`SparseKktPlan::assemble`], walking the same regularization ladder as
    /// the dense path (`(H + reg I) dy = rhs`, `reg` escalating from 0).
    /// Returns the shift that was needed, or `None` when every level
    /// failed.
    pub(crate) fn solve_newton(
        &self,
        s: &mut SparseScratch,
        rhs: &[f64],
        dy: &mut Vec<f64>,
    ) -> Option<f64> {
        let n = self.n;
        for k in 0..n {
            s.pb[k] = rhs[self.perm[k] as usize];
        }
        let mut reg = 0.0;
        for _ in 0..41 {
            if self.try_solve(s, reg) {
                dy.clear();
                dy.resize(n, 0.0);
                for k in 0..n {
                    dy[self.perm[k] as usize] = s.sol[k];
                }
                return Some(reg);
            }
            reg = if reg == 0.0 {
                1e-12 * s.scale
            } else {
                reg * 10.0
            };
        }
        None
    }

    /// One rung of the ladder: factor `S + reg I`, apply the SMW
    /// correction for the hoisted outer products, verify the residual.
    fn try_solve(&self, s: &mut SparseScratch, reg: f64) -> bool {
        let n = self.n;
        if !self
            .sym
            .factor(&s.a_values, reg, &mut s.lvals, &mut s.fx, &mut s.cursor)
        {
            return false;
        }
        s.sol.copy_from_slice(&s.pb);
        self.sym.solve(&s.lvals, &mut s.sol);

        // Corrections with β = 0 contribute nothing; skip them.
        s.active.clear();
        for h in 0..self.n_hoisted() {
            if s.hoist_beta[h] != 0.0 {
                s.active.push(h);
            }
        }
        if s.active.is_empty() {
            return true;
        }

        // W = S̃⁻¹ G, capacitance M = diag(1/β) + Gᵀ W, u = Gᵀ z.
        let k = s.active.len();
        for (ci, &h) in s.active.iter().enumerate() {
            let (o0, o1) = (
                self.hoist_offsets[h] as usize,
                self.hoist_offsets[h + 1] as usize,
            );
            let w = &mut s.w[ci * n..(ci + 1) * n];
            w.fill(0.0);
            for i in o0..o1 {
                w[self.hoist_pvars[i] as usize] = s.hoist_vals[i];
            }
            self.sym.solve(&s.lvals, w);
        }
        for (ri, &h) in s.active.iter().enumerate() {
            let (o0, o1) = (
                self.hoist_offsets[h] as usize,
                self.hoist_offsets[h + 1] as usize,
            );
            let mut u = 0.0;
            for i in o0..o1 {
                u += s.hoist_vals[i] * s.sol[self.hoist_pvars[i] as usize];
            }
            s.cap_rhs[ri] = u;
            for ci in 0..k {
                let w = &s.w[ci * n..(ci + 1) * n];
                let mut m = 0.0;
                for i in o0..o1 {
                    m += s.hoist_vals[i] * w[self.hoist_pvars[i] as usize];
                }
                if ri == ci {
                    m += 1.0 / s.hoist_beta[h];
                }
                s.cap[ri * k + ci] = m;
            }
        }
        if !solve_small_pivoted(&mut s.cap[..k * k], &mut s.cap_rhs[..k], k) {
            return false;
        }
        for ci in 0..k {
            let v = s.cap_rhs[ci];
            if v != 0.0 {
                let w = &s.w[ci * n..(ci + 1) * n];
                for (xi, wi) in s.sol.iter_mut().zip(w) {
                    *xi -= v * wi;
                }
            }
        }

        // The capacitance system can be indefinite (mixed β signs), so a
        // successful elimination does not certify the solve — check the
        // true residual `(S̃ + Σ β g gᵀ) x − b` before accepting.
        for k2 in 0..n {
            s.resid[k2] = reg * s.sol[k2] - s.pb[k2];
        }
        let (cp, ri) = self.sym.a_pattern();
        for col in 0..n {
            let xc = s.sol[col];
            let (lo, hi) = (cp[col] as usize, cp[col + 1] as usize);
            for (&r, &v) in ri[lo..hi].iter().zip(&s.a_values[lo..hi]) {
                let row = r as usize;
                if row == col {
                    s.resid[col] += v * xc;
                } else {
                    s.resid[row] += v * xc;
                    s.resid[col] += v * s.sol[row];
                }
            }
        }
        for &h in &s.active {
            let (o0, o1) = (
                self.hoist_offsets[h] as usize,
                self.hoist_offsets[h + 1] as usize,
            );
            let mut gx = 0.0;
            for i in o0..o1 {
                gx += s.hoist_vals[i] * s.sol[self.hoist_pvars[i] as usize];
            }
            let bgx = s.hoist_beta[h] * gx;
            for i in o0..o1 {
                s.resid[self.hoist_pvars[i] as usize] += bgx * s.hoist_vals[i];
            }
        }
        let rmax = s.resid.iter().fold(0.0_f64, |m, &r| m.max(r.abs()));
        let bmax = s.pb.iter().fold(0.0_f64, |m, &b| m.max(b.abs()));
        let xmax = s.sol.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        rmax.is_finite()
            && rmax <= SMW_RESIDUAL_TOL * bmax.max(s.scale * xmax).max(f64::MIN_POSITIVE)
    }
}

/// Gaussian elimination with partial pivoting on a small row-major `k × k`
/// system, solving in place into `rhs`. Returns `false` on a (near-)
/// singular pivot.
fn solve_small_pivoted(m: &mut [f64], rhs: &mut [f64], k: usize) -> bool {
    for col in 0..k {
        let mut piv = col;
        let mut best = m[col * k + col].abs();
        for r in col + 1..k {
            let a = m[r * k + col].abs();
            if a > best {
                best = a;
                piv = r;
            }
        }
        if best <= 0.0 || !best.is_finite() {
            return false;
        }
        if piv != col {
            for c in 0..k {
                m.swap(col * k + c, piv * k + c);
            }
            rhs.swap(col, piv);
        }
        let d = m[col * k + col];
        for r in col + 1..k {
            let f = m[r * k + col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..k {
                m[r * k + c] -= f * m[col * k + c];
            }
            rhs[r] -= f * rhs[col];
        }
    }
    for col in (0..k).rev() {
        let mut acc = rhs[col];
        for c in col + 1..k {
            acc -= m[col * k + c] * rhs[c];
        }
        rhs[col] = acc / m[col * k + col];
    }
    rhs.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posynomial::{Monomial, Posynomial};
    use crate::solver::{solve_with_start, CompiledGp, SolveWorkspace, SolverOptions};
    use crate::GpSolution;

    fn mono(c: f64, e: &[(usize, f64)]) -> Posynomial {
        Posynomial::monomial(Monomial::new(c, e.iter().copied()).unwrap())
    }

    /// `p` solved from `start` (or phase I, without one) on the dense or
    /// the sparse backend, whichever the program would pick.
    fn solve_on(p: &GpProblem, start: &[f64], sparse: bool) -> GpSolution {
        let compiled = CompiledGp::compile(p).unwrap().with_backend(sparse);
        let (options, mut ws) = (SolverOptions::default(), SolveWorkspace::new());
        match start {
            [] => compiled.solve_cold(&options, &mut ws),
            x0 => compiled.solve_from(x0, &options, &mut ws),
        }
        .unwrap()
    }

    fn sample_problem() -> GpProblem {
        // min 2/x + 3/y s.t. x y <= 4, x + y <= 5.
        let mut p = GpProblem::new(2);
        let mut obj = mono(2.0, &[(0, -1.0)]);
        obj.add(&mono(3.0, &[(1, -1.0)]));
        p.set_objective(obj).unwrap();
        p.add_constraint_le(mono(1.0, &[(0, 1.0), (1, 1.0)]), 4.0)
            .unwrap();
        let mut c2 = mono(1.0, &[(0, 1.0)]);
        c2.add(&mono(1.0, &[(1, 1.0)]));
        p.add_constraint_le(c2, 5.0).unwrap();
        p
    }

    #[test]
    fn solver_output_passes_kkt() {
        let p = sample_problem();
        let s = solve_with_start(&p, &[0.5, 0.5], &SolverOptions::default()).unwrap();
        let report = kkt_report(&p, &s.x);
        assert!(
            report.is_optimal(1e-4),
            "stationarity {} complementarity {} feasibility {}",
            report.stationarity,
            report.complementarity,
            report.feasibility
        );
        assert!(report.multipliers.iter().all(|&nu| nu >= 0.0));
    }

    #[test]
    fn non_optimal_point_fails_kkt() {
        let p = sample_problem();
        // Interior, feasible, clearly not optimal.
        let report = kkt_report(&p, &[0.5, 0.5]);
        assert!(report.feasibility < 0.0, "point should be feasible");
        assert!(
            report.stationarity > 1e-2,
            "stationarity should be large away from the optimum, got {}",
            report.stationarity
        );
    }

    #[test]
    fn unconstrained_interior_minimum_has_zero_gradient() {
        // min x + 1/x: optimum x = 1, no constraints -> stationarity is
        // just the objective gradient.
        let mut p = GpProblem::new(1);
        let mut obj = mono(1.0, &[(0, 1.0)]);
        obj.add(&mono(1.0, &[(0, -1.0)]));
        p.set_objective(obj).unwrap();
        let report = kkt_report(&p, &[1.0]);
        assert!(report.stationarity < 1e-12);
        assert!(report.multipliers.is_empty());
    }

    // --- sparse KKT plan -------------------------------------------------

    /// AAO-shaped test program in compiled form: one wide-support
    /// multi-term objective (hoisted when `n > GRAD_CLIQUE_CUTOFF`) plus
    /// chains of narrow-support constraints (clique-scattered), all
    /// strictly feasible on `y ∈ [-0.1, 0.1]`.
    fn aao_like_logposys(n: usize) -> LogArena {
        let mut obj = Posynomial::monomial(Monomial::new(1.5, [(0, -1.0)]).unwrap());
        for v in 1..n {
            obj.add(&Posynomial::monomial(
                Monomial::new(1.5 + 0.01 * v as f64, [(v, -1.0)]).unwrap(),
            ));
        }
        for v in 0..n {
            obj.add(&Posynomial::monomial(
                Monomial::new(0.5 + 0.003 * v as f64, [(v, 1.0)]).unwrap(),
            ));
        }
        let mut cons = Vec::new();
        for v in 0..n - 1 {
            // 0.25 x_v x_{v+1} <= 1: single-term (affine in log space).
            cons.push(Posynomial::monomial(
                Monomial::new(0.25, [(v, 1.0), (v + 1, 1.0)]).unwrap(),
            ));
        }
        for v in (0..n.saturating_sub(3)).step_by(3) {
            // (x_v + x_{v+3}) / 6 <= 1: multi-term, narrow support.
            let mut c = Posynomial::monomial(Monomial::new(1.0 / 6.0, [(v, 1.0)]).unwrap());
            c.add(&Posynomial::monomial(
                Monomial::new(1.0 / 6.0, [(v + 3, 1.0)]).unwrap(),
            ));
            cons.push(c);
        }
        // One mixed-exponent three-variable posynomial for variety.
        let mut c = Posynomial::monomial(Monomial::new(0.125, [(0, 1.0), (1, 1.0)]).unwrap());
        c.add(&Posynomial::monomial(
            Monomial::new(0.125, [(2, 0.5)]).unwrap(),
        ));
        c.add(&Posynomial::monomial(
            Monomial::new(0.125, [(0, 1.0)]).unwrap(),
        ));
        cons.push(c);
        LogArena::compile(std::iter::once(&obj).chain(&cons), n)
    }

    fn test_point(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.1 * (((i * 37 + 11) % 19) as f64 / 9.0 - 1.0))
            .collect()
    }

    /// Dense oracle: the reduced Newton matrix and right-hand side for
    /// duals `lam` and centring `inv_t`, assembled exactly as the dense
    /// backend does. Also returns the slacks.
    fn dense_newton_oracle(
        arena: &LogArena,
        lam: &[f64],
        inv_t: f64,
        y: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Matrix) {
        let n = y.len();
        let mut probs = Vec::new();
        let mut gi = vec![0.0; n];
        let mut hess = Matrix::zeros(n, n);
        let f0 = arena.get(0);
        f0.value_grad_buf(y, &mut probs, &mut gi);
        let mut rhs: Vec<f64> = gi.iter().map(|&g| -g).collect();
        if f0.n_terms() > 1 {
            f0.add_second_moment(&probs, 1.0, &mut hess);
            hess.add_outer(-1.0, &gi);
        }
        let mut slack = Vec::new();
        for (fi, &l) in arena.iter().skip(1).zip(lam) {
            let vi = fi.value_grad_buf(y, &mut probs, &mut gi);
            assert!(vi < 0.0, "test point must be strictly feasible");
            let s = -vi;
            slack.push(s);
            for (r, &gg) in rhs.iter_mut().zip(&gi) {
                *r -= inv_t / s * gg;
            }
            if fi.n_terms() > 1 {
                fi.add_second_moment(&probs, l, &mut hess);
                hess.add_outer(l / s - l, &gi);
            } else {
                hess.add_outer(l / s, &gi);
            }
        }
        (slack, rhs, hess)
    }

    /// Evaluates `plan` at `y` and assembles its Newton system for
    /// deliberately uncentred duals (so `λ` and `λ/s` weigh differently).
    fn assemble_at(
        plan: &SparseKktPlan,
        arena: &LogArena,
        y: &[f64],
        inv_t: f64,
        s: &mut SparseScratch,
    ) -> (Vec<f64>, Vec<f64>) {
        s.ensure(plan);
        let mut probs = Vec::new();
        let m = arena.len() - 1;
        let mut slack = vec![0.0; m];
        plan.eval_point(arena, y, &mut probs, &mut slack).unwrap();
        let lam: Vec<f64> = (0..m).map(|i| 0.2 + 0.1 * (i % 5) as f64).collect();
        let mut rhs = vec![0.0; y.len()];
        plan.assemble(&probs, &lam, &slack, inv_t, s, &mut rhs);
        (lam, rhs)
    }

    /// Expands the sparse decomposition (`S` values plus hoisted `β g gᵀ`
    /// corrections) held in `s` back into a dense matrix in original
    /// variable order.
    fn reconstruct_dense(plan: &SparseKktPlan, s: &SparseScratch) -> Matrix {
        let n = plan.n;
        let mut h = Matrix::zeros(n, n);
        let (cp, ri) = plan.sym.a_pattern();
        for col in 0..n {
            let (lo, hi) = (cp[col] as usize, cp[col + 1] as usize);
            for (&r, &v) in ri[lo..hi].iter().zip(&s.a_values[lo..hi]) {
                let row = r as usize;
                let (oi, oj) = (plan.perm[row] as usize, plan.perm[col] as usize);
                h[(oi, oj)] += v;
                if row != col {
                    h[(oj, oi)] += v;
                }
            }
        }
        for hi in 0..plan.n_hoisted() {
            let b = s.hoist_beta[hi];
            let (o0, o1) = (
                plan.hoist_offsets[hi] as usize,
                plan.hoist_offsets[hi + 1] as usize,
            );
            for i in o0..o1 {
                let gi = s.hoist_vals[i];
                let oi = plan.perm[plan.hoist_pvars[i] as usize] as usize;
                for j in o0..o1 {
                    let oj = plan.perm[plan.hoist_pvars[j] as usize] as usize;
                    h[(oi, oj)] += b * gi * s.hoist_vals[j];
                }
            }
        }
        h
    }

    #[test]
    fn sparse_decomposition_reconstructs_dense_hessian() {
        // n > GRAD_CLIQUE_CUTOFF so the objective gradient is hoisted.
        let n = 60;
        let arena = aao_like_logposys(n);
        let plan = SparseKktPlan::build(&arena);
        assert_eq!(plan.n_hoisted(), 1, "wide objective must be hoisted");
        let mut s = SparseScratch::default();
        let y = test_point(n);
        let inv_t = 0.3;
        let (lam, rhs) = assemble_at(&plan, &arena, &y, inv_t, &mut s);

        let (_, drhs, dhess) = dense_newton_oracle(&arena, &lam, inv_t, &y);
        for (r, dr) in rhs.iter().zip(&drhs) {
            assert!((r - dr).abs() <= 1e-9 * dr.abs().max(1.0), "rhs mismatch");
        }
        let h = reconstruct_dense(&plan, &s);
        let scale = dhess.max_abs_diagonal().max(1.0);
        // The dense assembly keeps the lower triangle only.
        for i in 0..n {
            for j in 0..=i {
                let (a, b) = (h[(i, j)], dhess[(i, j)]);
                assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "H[{i}][{j}]: sparse {a} vs dense {b}"
                );
            }
        }
    }

    #[test]
    fn sparse_newton_solve_matches_dense() {
        let n = 60;
        let arena = aao_like_logposys(n);
        let plan = SparseKktPlan::build(&arena);
        let mut s = SparseScratch::default();
        let y = test_point(n);
        let (lam, _) = assemble_at(&plan, &arena, &y, 0.3, &mut s);

        let rhs: Vec<f64> = (0..n)
            .map(|i| ((i * 29 + 3) % 13) as f64 / 13.0 - 0.5)
            .collect();
        let mut dy = Vec::new();
        let reg = plan.solve_newton(&mut s, &rhs, &mut dy).unwrap();
        assert_eq!(reg, 0.0, "well-conditioned system needs no shift");

        let (_, _, dhess) = dense_newton_oracle(&arena, &lam, 0.3, &y);
        let mut chol = Matrix::zeros(n, n);
        let mut expect = Vec::new();
        assert!(dhess.cholesky_solve_into(&rhs, &mut chol, &mut expect));
        let xmax = expect.iter().fold(0.0_f64, |m, &v| m.max(v.abs())).max(1.0);
        for (a, b) in dy.iter().zip(&expect) {
            assert!((a - b).abs() <= 1e-6 * xmax, "dy mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn dense_and_sparse_backends_reach_same_optimum() {
        // Same program solved end-to-end by both backends (forced modes,
        // below the Auto size floor on purpose).
        let n = 60;
        let mut p = GpProblem::new(n);
        let mut obj = mono(1.5, &[(0, -1.0)]);
        for v in 1..n {
            obj.add(&mono(1.5 + 0.01 * v as f64, &[(v, -1.0)]));
        }
        for v in 0..n {
            obj.add(&mono(0.5 + 0.003 * v as f64, &[(v, 1.0)]));
        }
        p.set_objective(obj).unwrap();
        for v in 0..n - 1 {
            p.add_constraint_le(mono(1.0, &[(v, 1.0), (v + 1, 1.0)]), 4.0)
                .unwrap();
        }
        for v in (0..n - 3).step_by(3) {
            let mut c = mono(1.0, &[(v, 1.0)]);
            c.add(&mono(1.0, &[(v + 3, 1.0)]));
            p.add_constraint_le(c, 6.0).unwrap();
        }
        let start = vec![1.0; n];
        let [dense, sparse] = [false, true].map(|sparse| solve_on(&p, &start, sparse));
        assert!(
            (dense.objective - sparse.objective).abs() <= 1e-6 * dense.objective.abs(),
            "objectives diverge: dense {} sparse {}",
            dense.objective,
            sparse.objective
        );
        for (a, b) in dense.x.iter().zip(&sparse.x) {
            assert!(
                (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                "x mismatch: {a} vs {b}"
            );
        }
    }

    #[test]
    fn active_constraint_receives_positive_multiplier() {
        // min 1/x s.t. x <= 2: optimum at x = 2 with active bound.
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, -1.0)])).unwrap();
        p.add_upper_bound(0, 2.0).unwrap();
        let report = kkt_report(&p, &[2.0]);
        assert!(report.is_optimal(1e-9));
        assert!(report.multipliers[0] > 0.5, "bound must be active");
    }

    /// Property tests of the sparse backend against the dense one: the
    /// same optimum on random query↔item-graph-shaped programs, and bitwise
    /// determinism of the sparse path under term-insertion-order
    /// permutations (the canonical term order at plan-build time must make
    /// the arithmetic independent of how callers assembled the
    /// posynomials).
    mod backend_parity {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic xorshift64* so structure is generated from one seed.
        struct Rng(u64);

        impl Rng {
            fn next_u64(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.0 = x;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            }

            fn unit(&mut self) -> f64 {
                (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next_u64() % n as u64) as usize
            }
        }

        /// Random AAO-shaped program as raw term lists: a coercive
        /// objective touching every variable (wide support, like the joint
        /// AAO objective) plus narrow-support constraints over random
        /// variable pairs/triples (like per-item coupling constraints).
        /// Every constraint evaluates to at most 0.5 at `x = 1`, so the
        /// all-ones start is strictly feasible.
        fn random_terms(seed: u64, n: usize) -> (Vec<Monomial>, Vec<Vec<Monomial>>) {
            let mut rng = Rng(seed | 1);
            let mut obj = Vec::new();
            for v in 0..n {
                obj.push(Monomial::new(0.5 + rng.unit(), [(v, -1.0)]).unwrap());
                obj.push(Monomial::new(0.1 + 0.5 * rng.unit(), [(v, 1.0)]).unwrap());
            }
            let mut cons = Vec::new();
            for _ in 0..n {
                let n_terms = 1 + rng.below(3);
                let mut terms = Vec::new();
                for _ in 0..n_terms {
                    let a = rng.below(n);
                    let b = rng.below(n);
                    let ea = [1.0, 0.5, -1.0][rng.below(3)];
                    let coef = (0.1 + 0.8 * rng.unit()) * 0.5 / n_terms as f64;
                    let m = if a == b {
                        Monomial::new(coef, [(a, ea)]).unwrap()
                    } else {
                        Monomial::new(coef, [(a, ea), (b, 1.0)]).unwrap()
                    };
                    terms.push(m);
                }
                cons.push(terms);
            }
            (obj, cons)
        }

        /// Assembles the program, each posynomial's terms in the given
        /// order or reversed.
        fn assemble(
            n: usize,
            obj: &[Monomial],
            cons: &[Vec<Monomial>],
            reverse: bool,
        ) -> GpProblem {
            let build = |terms: &[Monomial]| {
                let mut p = Posynomial::zero();
                if reverse {
                    terms.iter().rev().for_each(|m| p.push(m.clone()));
                } else {
                    terms.iter().for_each(|m| p.push(m.clone()));
                }
                p
            };
            let mut prob = GpProblem::new(n);
            prob.set_objective(build(obj)).unwrap();
            for terms in cons {
                prob.add_constraint(build(terms)).unwrap();
            }
            prob
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Sparse and dense backends agree on random programs: same
            /// objective to 1e-5 relative, same point to 1e-3 relative, both
            /// feasible.
            #[test]
            fn sparse_agrees_with_dense(seed in 0u64..u64::MAX, n in 8usize..32) {
                let (obj, cons) = random_terms(seed, n);
                let prob = assemble(n, &obj, &cons, false);
                let start = vec![1.0; n];
                let dense = solve_on(&prob, &start, false);
                let sparse = solve_on(&prob, &start, true);
                prop_assert!(prob.max_violation(&sparse.x) <= 1e-7,
                    "sparse point infeasible by {}", prob.max_violation(&sparse.x));
                prop_assert!(
                    (dense.objective - sparse.objective).abs() <= 1e-5 * dense.objective.abs().max(1e-12),
                    "objective: dense {} vs sparse {}", dense.objective, sparse.objective);
                for (a, b) in dense.x.iter().zip(&sparse.x) {
                    prop_assert!((a - b).abs() <= 1e-3 * a.abs().max(1.0),
                        "x: dense {a} vs sparse {b}");
                }
            }

            /// The sparse path is *bitwise* deterministic under permutation
            /// of the term insertion order: the canonical term order inside
            /// the plan makes every softmax and scatter run in the same
            /// sequence regardless of how the posynomials were assembled.
            #[test]
            fn sparse_solution_is_insertion_order_invariant(seed in 0u64..u64::MAX, n in 8usize..24) {
                let (obj, cons) = random_terms(seed, n);
                let start = vec![1.0; n];
                let a = solve_on(&assemble(n, &obj, &cons, false), &start, true);
                let b = solve_on(&assemble(n, &obj, &cons, true), &start, true);
                for (va, vb) in a.x.iter().zip(&b.x) {
                    prop_assert_eq!(va.to_bits(), vb.to_bits(),
                        "sparse path must be insertion-order invariant: {} vs {}", va, vb);
                }
            }
        }

        /// A fig5 Dual-DAB unit — six weighted two-item products, QAB
        /// 1 % of the value — spelled out as its GP (Eq. 2 over the
        /// validity range, `b <= c` and `rate(lambda, c) <= R` per item),
        /// solved cold on each backend: the primary DABs and the recompute
        /// rate agree to 1e-3, relative.
        #[test]
        fn forced_dense_and_forced_sparse_agree_on_a_fig5_unit() {
            const LEGS: usize = 6;
            let n = 2 * LEGS;
            let (c0, r) = (n, 2 * n);
            let values: Vec<f64> = (0..n).map(|i| 20.0 + 7.0 * (i % 5) as f64).collect();
            let rates: Vec<f64> = (0..n).map(|i| 0.05 + 0.04 * (i % 4) as f64).collect();
            let weight = |leg: usize| 1.0 + 0.5 * leg as f64;
            let value: f64 = (0..LEGS)
                .map(|l| weight(l) * values[2 * l] * values[2 * l + 1])
                .sum();

            let mut p = GpProblem::new(2 * n + 1);
            let mut objective = mono(5.0, &[(r, 1.0)]);
            for (k, &lambda) in rates.iter().enumerate() {
                objective.add(&mono(lambda, &[(k, -1.0)]));
            }
            p.set_objective(objective).unwrap();
            // (V_i + c_i + b_i)(V_j + c_j + b_j) - (V_i + c_i)(V_j + c_j).
            let mut condition = Posynomial::zero();
            for leg in 0..LEGS {
                let (i, j, w) = (2 * leg, 2 * leg + 1, weight(leg));
                for (a, b) in [(i, j), (j, i)] {
                    condition.add(&mono(w * values[a], &[(b, 1.0)]));
                    condition.add(&mono(w, &[(c0 + a, 1.0), (b, 1.0)]));
                }
                condition.add(&mono(w, &[(i, 1.0), (j, 1.0)]));
            }
            p.add_constraint_le(condition, 0.01 * value).unwrap();
            for (k, &lambda) in rates.iter().enumerate() {
                p.add_var_le_var(k, c0 + k).unwrap();
                p.add_constraint(mono(lambda, &[(c0 + k, -1.0), (r, -1.0)]))
                    .unwrap();
            }

            let [d, s] = [false, true].map(|sparse| solve_on(&p, &[], sparse));
            let worst = (0..n)
                .chain([r])
                .map(|v| (d.x[v] - s.x[v]).abs() / d.x[v].abs().max(1e-12))
                .fold(0.0f64, f64::max);
            assert!(worst <= 1e-3, "dense and sparse differ by {worst:.2e}");
        }
    }
}
