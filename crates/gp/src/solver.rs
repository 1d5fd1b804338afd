//! Primal–dual interior-point solver for geometric programs.
//!
//! After the log transform (see [`crate::logsumexp`]) a GP becomes the
//! smooth convex program
//!
//! ```text
//! minimize    F0(y)
//! subject to  Fi(y) <= 0,   i = 1..m
//! ```
//!
//! which one path-following loop solves (Boyd & Vandenberghe §11.7): the
//! iterate is a primal–dual pair `(y, λ)` with slacks `s_i = −Fi(y) > 0`
//! and duals `λ_i > 0`; every step re-derives the centring parameter
//! `1/t = σ η̂ / m` from the *current* surrogate gap `η̂ = Σ λ_i s_i`
//! (`σ = 1/μ` while full steps are accepted, more after a damped one),
//! takes one Newton step on the perturbed KKT conditions
//!
//! ```text
//! r_dual = ∇F0 + Σ λ_i ∇Fi = 0,     r_cent,i = λ_i s_i − 1/t = 0
//! ```
//!
//! reduced to an `n × n` positive-definite system, and backtracks on the
//! residual norm with every trial point kept strictly feasible. It stops
//! at `η̂ <= tolerance` and `‖r_dual‖ <= tolerance`, which certifies the
//! duality gap, or at both within a warm start's own certified stop
//! when its caller passes a looser one. Cold starts, warm starts
//! ([`CompiledGp::solve_warm`]), both KKT backends and phase I all run
//! this same loop; they differ only in where it starts, a warm start's
//! duals fitted to its point rather than centred. DESIGN.md §2 has the
//! derivation and the three safeguards the textbook loop needs.
//!
//! The program the loop runs on is one [`CompiledGp`]: a flat
//! [`LogArena`] — the objective, then every constraint, term rows and
//! `ln` coefficients back to back — read through borrowed per-posynomial
//! views, and the sparse KKT plan compiled with it when the program is
//! large and sparse enough to want one. An iterate's softmax weights
//! ([`SolveWorkspace`]) are one flat buffer in the same term order.
//!
//! If the caller has no strictly feasible starting point
//! ([`CompiledGp::solve_cold`]), the phase-I program
//! `minimize σ  s.t.  fi(x)/σ <= 1` — itself a GP — is solved first,
//! stopping as soon as `σ` is comfortably below one.

use crate::error::GpError;
use crate::kkt::{auto_wanted, newton_weights, SparseKktPlan, SparseScratch};
use crate::linalg::{axpy, dot, norm2, Matrix};
use crate::logsumexp::{LogArena, LogPosynomial};
use crate::posynomial::Posynomial;
use crate::problem::{GpProblem, GpSolution};
use pq_obs::{names, Obs, TimedGuard};
use std::sync::Arc;

/// Which KKT backend solves the Newton systems inside the solver.
///
/// The dense path assembles the reduced Newton matrix and factors it in
/// place, an `O(n³)` Cholesky per step — unbeatable for the small
/// per-query programs. The sparse path assembles it directly in
/// compressed form (exploiting the query↔item structure of joint AAO
/// units), factors it under the compiled program's fill-reducing
/// ordering, and hoists the few dense gradient outer products into
/// Sherman–Morrison–Woodbury corrections — scaling joint units to 10k+
/// variables.
enum Backend {
    Dense,
    Sparse(Arc<SparseKktPlan>),
}

/// A compiled program — objective first, then the constraints
/// `Fi(y) <= 0` — together with its backend: what the loop iterates on.
struct Program<'a> {
    arena: &'a LogArena,
    backend: Backend,
}

impl Program<'_> {
    /// Number of constraints.
    fn n_constraints(&self) -> usize {
        self.arena.len() - 1
    }
}

/// Tuning knobs for the solver. The defaults solve every program in this
/// workspace; they are exposed for experimentation.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Convergence tolerance: the solve stops once the surrogate duality
    /// gap `Σ λ_i s_i` and the dual residual `‖∇F0 + Σ λ_i ∇Fi‖` are both
    /// at most this, or within the looser `stop` a caller of
    /// [`CompiledGp::solve_warm`] passes. Default `1e-8`.
    pub tolerance: f64,
    /// Initial path parameter of a cold start: its duals are centred at
    /// `λ_i = 1 / (t0 s_i)`, i.e. the initial gap is `m / t0`. A warm
    /// start ([`CompiledGp::solve_warm`]) fits its duals instead and reads
    /// `t0` only when the fit falls back to centred ones. Default `1.0`.
    pub t0: f64,
    /// Gap-reduction factor: every Newton step aims at the central point
    /// with gap `η̂ / mu`. Default `20.0`.
    pub mu: f64,
    /// Maximum Newton steps per solve. Default `200`.
    pub max_newton_steps: usize,
    /// Telemetry handle. Defaults to the disabled handle, which records
    /// nothing: a caller that wants the solves' timings passes its own
    /// (see [`SolverOptions::observed_by`]).
    pub obs: Obs,
    /// Attribution label: the id of the query this solve serves, if any
    /// (a coordinator passes the id its deployment knows the query by).
    /// When set, the `gp.solve` span's event carries a `query` field, so
    /// `pq-trace` can answer "whose recomputations eat the budget?".
    pub query: Option<u32>,
    /// Pre-resolved `gp.solve` span timer (see [`Obs::timer`]). Callers
    /// that solve in a loop set this once so the per-solve hot path never
    /// touches the registry mutex; when unset the span resolves per solve.
    pub solve_timer: Option<pq_obs::Timer>,
    /// Pre-resolved handles for what the DAB layer records around a solve
    /// (it reads its [`Obs`] from these options too); same caching
    /// contract as [`SolverOptions::solve_timer`].
    pub dab: Option<Arc<DabTelemetry>>,
}

/// The `dab.solve` span and the four `solve.*` outcome counters of one
/// [`Obs`], resolved once by a coordinator that solves in a loop.
#[derive(Debug)]
pub struct DabTelemetry {
    /// Timer of the `dab.solve` span.
    pub span: pq_obs::Timer,
    /// `solve.cold_start`: a solve into a cache with no compiled program.
    pub cold_start: Arc<pq_obs::Counter>,
    /// `solve.warm_hit`: a later solve whose start needed only a light
    /// blend off the predicted optimum.
    pub warm_hit: Arc<pq_obs::Counter>,
    /// `solve.warm_repair`: a later solve whose start needed a deeper
    /// blend.
    pub warm_repair: Arc<pq_obs::Counter>,
    /// `solve.cold_fallback`: the blend failed, phase I ran.
    pub cold_fallback: Arc<pq_obs::Counter>,
}

impl SolverOptions {
    /// These options reporting to `obs`, with every per-solve handle
    /// (`gp.solve` timer, [`DabTelemetry`]) resolved on it now: what a
    /// coordinator calls once, so its solves never touch the registry.
    pub fn observed_by(self, obs: &Obs) -> Self {
        SolverOptions {
            obs: obs.clone(),
            solve_timer: Some(obs.timer(names::GP_SOLVE)),
            dab: Some(Arc::new(DabTelemetry {
                span: obs.timer(names::DAB_SOLVE),
                cold_start: obs.counter(names::SOLVE_COLD_START),
                warm_hit: obs.counter(names::SOLVE_WARM_HIT),
                warm_repair: obs.counter(names::SOLVE_WARM_REPAIR),
                cold_fallback: obs.counter(names::SOLVE_COLD_FALLBACK),
            })),
            ..self
        }
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-8,
            t0: 1.0,
            mu: 20.0,
            max_newton_steps: 200,
            obs: Obs::disabled(),
            query: None,
            solve_timer: None,
            dab: None,
        }
    }
}

/// Starts the `gp.solve` span, tagged with the originating query when
/// the caller attributed the solve. Prefers the pre-resolved timer in the
/// options (set once by looping callers) over per-solve resolution.
fn solve_span(options: &SolverOptions) -> TimedGuard {
    let mut span = match &options.solve_timer {
        Some(timer) => timer.start(&options.obs),
        None => options.obs.timed(names::GP_SOLVE),
    };
    if let Some(q) = options.query {
        span.set(names::LABEL_QUERY, q);
    }
    span
}

/// One primal–dual point together with everything evaluated at it.
#[derive(Debug, Default)]
struct Iterate {
    /// Log variables.
    y: Vec<f64>,
    /// Duals `λ_i > 0`.
    lam: Vec<f64>,
    /// Slacks `s_i = −Fi(y) > 0`.
    slack: Vec<f64>,
    /// Softmax weights of every posynomial's terms, flat, objective first.
    probs: Vec<f64>,
    /// `F0(y)`.
    f0: f64,
}

/// Reusable buffers for the solver: one workspace amortizes every
/// per-iteration allocation (iterates, duals, Newton system) across
/// repeated solves of same-shaped programs.
///
/// A fresh (empty) workspace is valid for any program; buffers grow on
/// first use and are reused afterwards. Not thread-safe: use one workspace
/// per worker thread.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// Current iterate (its `y` is the start handed to the solver) and the
    /// line search's trial iterate; an accepted trial is swapped in.
    cur: Iterate,
    trial: Iterate,
    /// Per-constraint `∇Fi · Δy`, then the dual step `Δλ`.
    dlam: Vec<f64>,
    /// Newton right-hand side (sparse backend; the dense one solves in
    /// place in `dy`).
    rhs: Vec<f64>,
    /// Newton direction `Δy`.
    dy: Vec<f64>,
    /// One gradient-sized scratch: the dual residual, or one posynomial's
    /// dense gradient during assembly.
    grad: Vec<f64>,
    /// Reduced Newton matrix, factored in place (dense backend only).
    hess: Matrix,
    /// Sparse-backend buffers (empty unless a sparse solve ran).
    sparse: SparseScratch,
    /// A warm start's dual fit (empty until one ran).
    fit: DualFit,
}

/// Buffers of a warm start's dual fit ([`Program::fit_duals`]).
#[derive(Debug, Default)]
struct DualFit {
    /// Dense gradients, `n` each: the objective's, then one per
    /// near-active constraint.
    grads: Vec<f64>,
    /// The near-active gradients' Gram matrix (lower triangle), factored
    /// in place.
    gram: Matrix,
    /// The Gram diagonal before the factorization, for the dependence
    /// test.
    diag: Vec<f64>,
    /// `−∇Fi · ∇F0` per near-active constraint, solved in place into the
    /// fitted duals.
    lam: Vec<f64>,
}

impl SolveWorkspace {
    /// Creates an empty workspace (buffers grow on first solve).
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// Grows the buffers to fit `n` variables and `m` constraints on
    /// `backend`. The dense `n × n` matrix is sized only for the dense
    /// backend, so a 10k-variable sparse solve never allocates it.
    fn ensure(&mut self, n: usize, m: usize, backend: &Backend) {
        for it in [&mut self.cur, &mut self.trial] {
            it.y.resize(n, 0.0);
            it.lam.resize(m, 0.0);
            it.slack.resize(m, 0.0);
        }
        self.dlam.resize(m, 0.0);
        self.dy.resize(n, 0.0);
        self.grad.resize(n, 0.0);
        match backend {
            Backend::Dense => {
                if self.hess.n_rows() != n {
                    self.hess.resize_zeroed(n, n);
                }
            }
            Backend::Sparse(plan) => {
                self.rhs.resize(n, 0.0);
                self.sparse.ensure(plan);
            }
        }
    }

    /// Loads `ln x0` as the start.
    fn seed_from_x(&mut self, x0: &[f64]) {
        self.cur.y.clear();
        self.cur.y.extend(x0.iter().map(|&v| v.ln()));
    }
}

/// Compiles a validated problem's posynomials to log space, objective
/// first.
fn compile_all(objective: &Posynomial, constraints: &[Posynomial], n: usize) -> LogArena {
    LogArena::compile(std::iter::once(objective).chain(constraints), n)
}

/// Solves `problem` starting from a caller-supplied strictly feasible point
/// `x0 > 0`: [`CompiledGp::solve_from`] on the program compiled for this
/// one solve.
///
/// # Errors
/// [`GpError::InvalidStartingPoint`] if `x0` is not strictly positive, not
/// finite, or violates a constraint; solver errors otherwise.
pub fn solve_with_start(
    problem: &GpProblem,
    x0: &[f64],
    options: &SolverOptions,
) -> Result<GpSolution, GpError> {
    let compiled = CompiledGp::compile(problem)?;
    if !problem.is_strictly_feasible(x0, 0.0) {
        return Err(GpError::InvalidStartingPoint);
    }
    compiled.solve_from(x0, options, &mut SolveWorkspace::new())
}

/// Solves `problem`, running a phase-I feasibility search first if needed:
/// [`CompiledGp::solve_cold`] on the program compiled for this one solve.
pub fn solve(problem: &GpProblem, options: &SolverOptions) -> Result<GpSolution, GpError> {
    let compiled = CompiledGp::compile(problem)?;
    compiled.solve_cold(options, &mut SolveWorkspace::new())
}

/// A geometric program compiled once to log-space for repeated solves.
///
/// DAB recomputation re-derives the *same* program shape with coefficients
/// that track the drifting data values; compiling the posynomials and
/// allocating solver buffers each time is the dominant fixed cost.
/// `CompiledGp` keeps every posynomial of the program — objective first,
/// then the constraints `fs[i] <= 1` — in one flat [`LogArena`] (four
/// arrays however many constraints there are) and rewrites a constraint's
/// coefficients in place via [`CompiledGp::set_constraint_coefs`].
#[derive(Debug, Clone)]
pub struct CompiledGp {
    arena: LogArena,
    /// Cached sparse KKT structure (term ordering, min-degree permutation,
    /// symbolic factorization, scatter slots). Built at compile time when
    /// the program is large and structurally sparse enough for the sparse
    /// backend to win, and shared across clones, so the per-unit solve
    /// caches upstream reuse one symbolic analysis across every
    /// warm-started refresh. Its presence is the backend decision: every
    /// solve of a program with a plan runs sparse, every other one dense.
    plan: Option<Arc<SparseKktPlan>>,
}

/// How far a warm-started solve had to move off the caller's predicted
/// optimum to regain a strictly feasible start (see
/// [`CompiledGp::solve_warm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// A blend of at most 0.1 toward the interior point sufficed: the
    /// start is essentially the prediction.
    Hit,
    /// The prediction lay outside or on the feasible set's boundary and
    /// needed a deeper blend toward the interior point.
    Repaired,
}

/// Largest blend of the predicted start toward the interior point that
/// still counts as a warm *hit*; anything deeper is a *repair*.
const WARM_HIT_BLEND: f64 = 0.1;

/// Log-space slack a warm start restores on every constraint:
/// `Fi(y) <= -WARM_SLACK` (each `fi(x)` about this share below its bound).
const WARM_SLACK: f64 = 1e-3;

/// A warm start's constraint is *near-active*, and its starting dual is
/// fitted rather than levelled, below this slack: ten times
/// [`WARM_SLACK`].
const NEAR_ACTIVE_SLACK: f64 = 10.0 * WARM_SLACK;

/// No fitted dual starts below this share of the level `η / s_i`, which
/// keeps a warm start in a wide `N₋∞` neighbourhood of the central path:
/// near-degenerate rows fitted at `λ ≈ 1e-10` otherwise cost hard units
/// up to 30 Newton steps.
const FIT_FLOOR: f64 = 0.1;

/// A Gram pivot below this share of its diagonal entry — the squared sine
/// between a near-active gradient and the span of those before it — reads
/// as linearly dependent: the fit is not unique, and the duals stay
/// centred.
const DEPENDENT_PIVOT: f64 = 1e-10;

impl CompiledGp {
    /// Compiles `problem` (which must have an objective).
    pub fn compile(problem: &GpProblem) -> Result<Self, GpError> {
        let (objective, constraints) = problem.validated()?;
        Self::from_arena(compile_all(objective, constraints, problem.n_vars()))
    }

    /// The program `minimize f0 s.t. fs[i] <= 1` over already compiled
    /// posynomials: `arena`'s first is `f0`, the rest are the `fs` (see
    /// [`LogArena::push`]).
    ///
    /// # Errors
    /// [`GpError::EmptyPosynomial`] for an empty arena: no objective.
    pub fn from_arena(arena: LogArena) -> Result<Self, GpError> {
        if arena.is_empty() {
            return Err(GpError::EmptyPosynomial);
        }
        let plan = auto_wanted(&arena).then(|| Arc::new(SparseKktPlan::build(&arena)));
        Ok(CompiledGp { arena, plan })
    }

    /// The compiled posynomials: the objective, then the constraints
    /// `fs[i] <= 1`.
    pub fn arena(&self) -> &LogArena {
        &self.arena
    }

    /// True when a cached sparse plan exists, i.e. this program solves on
    /// the sparse backend.
    pub fn has_sparse_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// This program with the backend forced: sparse with a plan built now,
    /// or dense. The oracle tests compare the two on one program.
    #[cfg(test)]
    pub(crate) fn with_backend(mut self, sparse: bool) -> Self {
        self.plan = sparse.then(|| Arc::new(SparseKktPlan::build(&self.arena)));
        self
    }

    /// What the loop iterates on: the arena on the backend its plan
    /// decided.
    fn program(&self) -> Program<'_> {
        let backend = match &self.plan {
            Some(plan) => Backend::Sparse(plan.clone()),
            None => Backend::Dense,
        };
        Program {
            arena: &self.arena,
            backend,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.arena.n_vars()
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.arena.len() - 1
    }

    /// Overwrites the coefficients of constraint `i` with
    /// `scale * coefs[k]`, in the constraint's term order, keeping its
    /// exponent structure (and with it the cached sparse plan): the
    /// program compiling a rebuilt `add_constraint_le(f, 1 / scale)` row
    /// of the same structure gives, without the row.
    ///
    /// # Errors
    /// [`GpError::EmptyPosynomial`] when there is no constraint `i` or
    /// `coefs` is not one per term; [`GpError::NonPositiveCoefficient`]
    /// when a scaled coefficient is not strictly positive and finite. The
    /// program is unchanged on error.
    pub fn set_constraint_coefs(
        &mut self,
        i: usize,
        coefs: &[f64],
        scale: f64,
    ) -> Result<(), GpError> {
        self.arena.set_coefs(i + 1, coefs, scale)
    }

    /// Solves from a strictly feasible `x0 > 0`, reusing `ws` buffers.
    ///
    /// # Errors
    /// [`GpError::InvalidStartingPoint`] for an invalid or infeasible
    /// start; solver errors otherwise.
    pub fn solve_from(
        &self,
        x0: &[f64],
        options: &SolverOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<GpSolution, GpError> {
        if x0.len() != self.n_vars() || x0.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
            return Err(GpError::InvalidStartingPoint);
        }
        ws.seed_from_x(x0);
        let mut span = solve_span(options);
        phase_two(
            &self.program(),
            options,
            ws,
            Duals::Centred(COLD_DUAL_SLACK),
            0.0,
            &mut span,
        )
    }

    /// Solves without a start, reusing `ws` buffers. The all-ones point
    /// is the start when it is comfortably inside every constraint (by
    /// the margin phase I itself stops at — a start hugging a constraint
    /// costs more Newton steps than phase I does); otherwise phase I on
    /// this program's lift `minimize σ  s.t.  fi(x)/σ <= 1` locates a
    /// strictly feasible point or certifies infeasibility.
    ///
    /// # Errors
    /// [`GpError::Infeasible`] when phase I proves the program has no
    /// feasible point; solver errors otherwise.
    pub fn solve_cold(
        &self,
        options: &SolverOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<GpSolution, GpError> {
        let mut span = solve_span(options);
        // `y = ln 1`.
        ws.cur.y.clear();
        ws.cur.y.resize(self.n_vars(), 0.0);
        let worst = (self.arena.iter().skip(1))
            .map(|f| f.value(&ws.cur.y))
            .fold(f64::NEG_INFINITY, f64::max);
        if worst >= -PHASE_ONE_MARGIN {
            phase_one(&self.arena, worst, options, ws)?;
            span.set("phase_one", true);
        }
        phase_two(
            &self.program(),
            options,
            ws,
            Duals::Centred(COLD_DUAL_SLACK),
            0.0,
            &mut span,
        )
    }

    /// Warm-started solve: blends `start`, the caller's predicted optimum,
    /// toward the strictly interior `interior_x` in log space,
    /// `y(theta) = (1-theta) ln start + theta ln interior_x`, by the
    /// *smallest* `theta` that restores a log-space slack of `1e-3` on
    /// every constraint, and starts the primal–dual loop there with the
    /// duals that point implies.
    ///
    /// A good prediction sits on or near the active constraint boundary,
    /// so the blended start is already close to the optimum, and so are
    /// its multipliers. The constraints within a slack of `1e-2` start at
    /// the least-squares fit of `∇F0 + Σ λ_i ∇Fi = 0`; with `η` the mean
    /// `λ_i s_i` of the positive fits, every other constraint, and every
    /// fit `≤ 0`, starts at `λ_i = η / s_i`, and no fit below
    /// `0.1 η / s_i`. The loop then spends its steps on the primal point
    /// instead of on repairing centred duals: two Newton steps to a `1e-5`
    /// gap on a DAB unit, where `λ_i = 1 / (t0 s_i)` took four. When no
    /// constraint is near-active, the near-active gradients are linearly dependent, or
    /// no fit is positive, the duals start centred at `1 / (t0 s_i)`, as
    /// they always do on a program with a sparse plan. Nothing here
    /// estimates how close the start is: the loop re-derives its path
    /// parameter from the surrogate gap of the current iterate every
    /// step, so a start far from optimal simply takes more steps.
    ///
    /// `stop` is the caller's certified stop: the loop also returns the
    /// first iterate, the start included, whose surrogate gap and dual
    /// residual are both at most `stop`, even while they exceed
    /// `options.tolerance`. The gap is in units of `ln F0`, so it bounds
    /// the relative excess of the objective over the optimum; every
    /// iterate is strictly feasible, so an early stop costs optimality
    /// only. `0.0` leaves `options.tolerance` the only stop.
    ///
    /// A blend of at most 0.1 counts as [`WarmStart::Hit`], a deeper one
    /// as [`WarmStart::Repaired`].
    ///
    /// # Errors
    /// [`GpError::InvalidStartingPoint`] when not even the interior point
    /// is strictly feasible (callers should fall back to
    /// [`CompiledGp::solve_cold`]); solver errors otherwise.
    pub fn solve_warm(
        &self,
        start: &[f64],
        interior_x: &[f64],
        options: &SolverOptions,
        stop: f64,
        ws: &mut SolveWorkspace,
    ) -> Result<(GpSolution, WarmStart), GpError> {
        if start.len() != self.n_vars()
            || interior_x.len() != self.n_vars()
            || start.iter().any(|&v| !(v.is_finite() && v > 0.0))
            || interior_x.iter().any(|&v| !(v.is_finite() && v > 0.0))
        {
            return Err(GpError::InvalidStartingPoint);
        }
        let mut span = solve_span(options);
        let theta = self.blend_into(start, interior_x, ws);
        let solution = phase_two(&self.program(), options, ws, Duals::Fitted, stop, &mut span)?;
        let kind = if theta <= WARM_HIT_BLEND {
            WarmStart::Hit
        } else {
            WarmStart::Repaired
        };
        Ok((solution, kind))
    }

    /// Writes the blend of [`CompiledGp::solve_warm`] into `ws.cur.y`:
    /// `start` moved toward `interior_x` in log space by the smallest
    /// `theta` that restores a slack of [`WARM_SLACK`] on every
    /// constraint, or `interior_x` itself where it lacks that slack.
    /// Returns `theta`.
    fn blend_into(&self, start: &[f64], interior_x: &[f64], ws: &mut SolveWorkspace) -> f64 {
        // The Newton buffers hold the two endpoints until the loop starts.
        let (y_start, y_int, z) = (&mut ws.rhs, &mut ws.dy, &mut ws.cur.probs);
        y_start.clear();
        y_start.extend(start.iter().map(|&v| v.ln()));
        y_int.clear();
        y_int.extend(interior_x.iter().map(|&v| v.ln()));

        // Smallest theta whose convex interpolation between the endpoint
        // constraint values guarantees the slack everywhere (Fi is convex
        // along the segment, so the chord bound is sufficient). Where the
        // interior point itself lacks the slack, start from it outright.
        let mut theta = 0.0f64;
        for fi in self.arena.iter().skip(1) {
            let fp = fi.value_buf(y_start, z);
            if fp <= -WARM_SLACK {
                continue;
            }
            let fint = fi.value_buf(y_int, z);
            theta = if fint < -WARM_SLACK {
                theta.max((fp + WARM_SLACK) / (fp - fint))
            } else {
                1.0
            };
        }
        ws.cur.y.clear();
        ws.cur.y.extend(
            y_start
                .iter()
                .zip(y_int.iter())
                .map(|(&p, &q)| (1.0 - theta) * p + theta * q),
        );
        theta
    }
}

impl Program<'_> {
    /// Calls `f(index, posynomial, its softmax weights)` for the objective
    /// (index 0) and every constraint over an iterate's flat `probs`.
    fn for_each_posy(&self, probs: &[f64], mut f: impl FnMut(usize, LogPosynomial<'_>, &[f64])) {
        let mut at = 0;
        for (pi, lp) in self.arena.iter().enumerate() {
            let k = lp.n_terms();
            f(pi, lp, &probs[at..at + k]);
            at += k;
        }
    }

    /// Evaluates every posynomial at `it.y`, filling `it.probs`,
    /// `it.slack` and `it.f0`. Returns `false` when a constraint is not
    /// strictly satisfied (or not finite) there. The sparse backend
    /// evaluates in its plan's canonical term order, which keeps its
    /// arithmetic independent of term insertion order.
    fn eval_point(&self, it: &mut Iterate) -> bool {
        it.probs.clear();
        match &self.backend {
            Backend::Dense => {
                // One walk of the arena, objective included: `get(0)` plus
                // `iter().skip(1)` for the constraints ran the Newton step
                // 15 % slower on a 6-item Dual-DAB unit.
                for (pi, lp) in self.arena.iter().enumerate() {
                    let value = lp.softmax_append(&it.y, &mut it.probs);
                    let Some(i) = pi.checked_sub(1) else {
                        it.f0 = value;
                        continue;
                    };
                    // A NaN value must count as infeasible too.
                    let s = -value;
                    it.slack[i] = s;
                    if s.is_nan() || s <= 0.0 {
                        return false;
                    }
                }
                true
            }
            Backend::Sparse(plan) => plan
                .eval_point(self.arena, &it.y, &mut it.probs, &mut it.slack)
                .map(|v0| it.f0 = v0)
                .is_some(),
        }
    }

    /// Norm of the dual residual `∇F0 + Σ λ_i ∇Fi` at `it`, from the
    /// weights [`Program::eval_point`] left and the iterate's duals;
    /// `r` is scratch.
    fn dual_residual(&self, it: &Iterate, r: &mut [f64]) -> f64 {
        match &self.backend {
            Backend::Dense => {
                r.fill(0.0);
                self.for_each_posy(&it.probs, |pi, lp, p| {
                    let w = if pi == 0 { 1.0 } else { it.lam[pi - 1] };
                    lp.add_gradient(p, w, r);
                });
            }
            Backend::Sparse(plan) => plan.dual_residual(&it.probs, &it.lam, r),
        }
        norm2(r)
    }

    /// Replaces the centred duals of the evaluated warm start in `ws.cur`
    /// by the ones it implies (dense backend). The near-active
    /// constraints, slack below [`NEAR_ACTIVE_SLACK`], get
    /// `argmin ‖∇F0 + Σ λ_i ∇Fi‖` through the Gram matrix of their
    /// gradients; with `η` the mean `λ_i s_i` of the positive fits, every
    /// other constraint and every fit `≤ 0` gets `λ_i = η / s_i`, and no
    /// fit starts below `FIT_FLOOR · η / s_i`. The duals stay as they are
    /// when no constraint is near-active, the near-active gradients are
    /// linearly dependent, or no fit is positive.
    fn fit_duals(&self, ws: &mut SolveWorkspace) {
        let (it, fit) = (&mut ws.cur, &mut ws.fit);
        let n = it.y.len();
        let near = |s: f64| s < NEAR_ACTIVE_SLACK;
        let k = it.slack.iter().filter(|&&s| near(s)).count();
        // More gradients than variables are dependent.
        if k == 0 || k > n {
            return;
        }
        fit.grads.clear();
        fit.grads.resize((1 + k) * n, 0.0);
        fit.gram.resize_zeroed(k, k);
        fit.diag.clear();
        fit.lam.clear();
        // One walk: the objective's gradient, then each near-active
        // constraint's and its Gram row against the ones before it. A
        // one-term row's gradient is its exponent row, so it dots through
        // that; only a multi-term one pays dense dot products.
        let (g0, grads) = fit.grads.split_at_mut(n);
        self.for_each_posy(&it.probs, |pi, lp, p| {
            let Some(i) = pi.checked_sub(1) else {
                lp.add_gradient(p, 1.0, g0);
                return;
            };
            if !near(it.slack[i]) {
                return;
            }
            let a = fit.lam.len();
            let (before, rest) = grads.split_at_mut(a * n);
            let ga = &mut rest[..n];
            lp.add_gradient(p, 1.0, ga);
            let ga = &*ga;
            let dot_a = |g: &[f64]| -> f64 {
                if lp.is_affine() {
                    lp.row(0).iter().map(|&(v, e)| e * g[v]).sum()
                } else {
                    dot(ga, g)
                }
            };
            let row = fit.gram.row_mut(a);
            for (r, gb) in row.iter_mut().zip(before.chunks_exact(n)) {
                *r = dot_a(gb);
            }
            row[a] = dot_a(ga);
            fit.diag.push(row[a]);
            fit.lam.push(-dot_a(g0));
        });
        let gram = &mut fit.gram;
        if !gram.factor_in_place()
            || (fit.diag.iter().enumerate())
                .any(|(j, &d)| gram[(j, j)].powi(2) < DEPENDENT_PIVOT * d)
        {
            return;
        }
        gram.solve_factored(&mut fit.lam);

        let (sum, count) = (it.slack.iter().filter(|&&s| near(s)))
            .zip(&fit.lam)
            .filter(|&(_, &l)| l > 0.0)
            .fold((0.0, 0u32), |(sum, count), (s, l)| (sum + l * s, count + 1));
        // `0 / 0` when no fit is positive.
        let eta = sum / f64::from(count);
        if !(eta.is_finite() && eta > 0.0) {
            return;
        }
        let mut fitted = fit.lam.iter();
        for (l, &s) in it.lam.iter_mut().zip(&it.slack) {
            let own = if near(s) {
                fitted.next().copied()
            } else {
                None
            };
            *l = match own {
                Some(f) if f > 0.0 => f.max(FIT_FLOOR * eta / s),
                _ => eta / s,
            };
        }
    }

    /// Assembles and solves the reduced Newton system at `ws.cur` for
    /// centring parameter `1/t = inv_t`:
    ///
    /// ```text
    /// [∇²F0 + Σ λ_i ∇²Fi + Σ (λ_i/s_i) ∇Fi∇Fiᵀ] Δy = −(∇F0 + (1/t) Σ ∇Fi/s_i)
    /// ```
    ///
    /// leaving `Δy` in `ws.dy` and every `∇Fi · Δy` in `ws.dlam`. The dense
    /// backend assembles the matrix's lower triangle only, which is all
    /// its factorization reads. Returns `None` when every regularization
    /// level failed.
    fn newton_direction(&self, inv_t: f64, ws: &mut SolveWorkspace) -> Option<()> {
        let it = &ws.cur;
        match &self.backend {
            Backend::Dense => {
                let gi = &mut ws.grad;
                let fill = |hess: &mut Matrix, rhs: &mut [f64]| {
                    hess.set_zero();
                    rhs.fill(0.0);
                    self.for_each_posy(&it.probs, |pi, lp, p| {
                        let dual = pi.checked_sub(1).map(|i| (it.lam[i], it.slack[i]));
                        let (w_rhs, alpha, beta) = newton_weights(dual, !lp.is_affine(), inv_t);
                        if lp.is_affine() {
                            // An affine row's gradient is the row itself.
                            let row = lp.row(0);
                            for &(v, e) in row {
                                rhs[v] -= w_rhs * e;
                            }
                            hess.add_outer_sparse(beta, row);
                        } else {
                            gi.fill(0.0);
                            lp.add_gradient(p, 1.0, gi);
                            axpy(-w_rhs, gi, rhs);
                            lp.add_second_moment(p, alpha, hess);
                            hess.add_outer(beta, gi);
                        }
                    });
                };
                ws.hess.solve_regularized_in_place(fill, &mut ws.dy)?;
                self.for_each_posy(&it.probs, |pi, lp, p| {
                    if pi > 0 {
                        ws.dlam[pi - 1] = lp.directional(p, &ws.dy);
                    }
                });
                Some(())
            }
            Backend::Sparse(plan) => {
                plan.assemble(
                    &it.probs,
                    &it.lam,
                    &it.slack,
                    inv_t,
                    &mut ws.sparse,
                    &mut ws.rhs,
                );
                plan.solve_newton(&mut ws.sparse, &ws.rhs, &mut ws.dy)?;
                plan.directional(&it.probs, &ws.dy, &mut ws.dlam);
                Some(())
            }
        }
    }
}

/// The target gap never drops below `‖r_dual‖ / (GAP_LAG ρ₀)`, `ρ₀` being
/// how far the dual residual lagged the gap at the start (at least 1).
/// Plain Boyd & Vandenberghe re-derives `t` from whatever the surrogate
/// gap has become, so when curvature makes one step eat the slack of an
/// active constraint the centring force shrinks with it and the method
/// *jams*: the gap races to 1e-15 while `‖r_dual‖` stalls. Tying the
/// target to the dual residual restores the slack instead.
const GAP_LAG: f64 = 10.0;
/// Share of the distance to the boundary (`λ = 0` or a linearized
/// `s = 0`) one step may cover.
const STEP_TO_BOUNDARY: f64 = 0.99;
/// Largest move of any log variable in one step: a factor `e^8` in `x`.
/// A (near-)singular Newton matrix — phase I on a single constraint, an
/// objective flat along some direction — otherwise yields steps that
/// overflow `exp` and strand the iterate absurdly far away.
const MAX_LOG_STEP: f64 = 8.0;
/// Backtracking trials per Newton step before the solve reports a stall.
const MAX_BACKTRACKS: usize = 60;
/// Sufficient-decrease parameter of the residual-norm line search: a
/// trial step of length `α` must shrink the residual norm by a factor
/// `1 - ARMIJO α`.
const ARMIJO: f64 = 0.05;
/// Step shrink factor of one backtracking trial.
const BACKTRACK: f64 = 0.5;
/// Slack below which a cold start's constraint is taken to be *hugged*
/// rather than active: its starting dual is `1 / (t0 COLD_DUAL_SLACK)`
/// instead of the centred `1 / (t0 s_i)`. A centred dual on a slack of
/// 1e-9 dwarfs everything else in the Newton matrix, the variable cannot
/// move, and the rest of the iterate runs into another constraint while
/// it waits; an under-weighted pair regains its slack in one step.
const COLD_DUAL_SLACK: f64 = 0.1;

/// How [`primal_dual`] starts its duals.
#[derive(Debug, Clone, Copy)]
enum Duals {
    /// Centred, `λ_i = 1 / (t0 max(s_i, floor))`: a slack below `floor`
    /// counts as hugged.
    Centred(f64),
    /// A warm start's: [`Program::fit_duals`] over `Centred(WARM_SLACK)`,
    /// on the dense backend.
    Fitted,
}

/// The primal–dual path-following loop, from the strictly feasible start
/// in `ws.cur.y` with duals as `duals` says. Runs until the surrogate gap
/// and the dual residual are within `options.tolerance`, or both within
/// the caller's certified stop `stop` (see [`CompiledGp::solve_warm`]),
/// or — for phase I — until `F0` drops below `stop_below`. The final
/// iterate is left in `ws.cur`; returns `(newton steps, surrogate gap)`.
/// Every iterate is strictly feasible (checked in debug builds). Phase II
/// writes onto its `span` the event clock as the loop begins (`loop_ns`,
/// after the blend and dual fit; read only when someone listens), and at
/// the stop `newton_steps`, `gap`, `r_dual` and, if the loop took a step,
/// the start's gap and dual residual (`gap0`, `r_dual0`).
fn primal_dual(
    program: &Program<'_>,
    options: &SolverOptions,
    ws: &mut SolveWorkspace,
    duals: Duals,
    stop: f64,
    stop_below: f64,
    mut span: Option<&mut TimedGuard>,
) -> Result<(usize, f64), GpError> {
    // `max`, not a second test: a `stop` of 0 stops where the tolerance
    // alone does, bit for bit.
    let stop = options.tolerance.max(stop);
    let (n, m) = (ws.cur.y.len(), program.n_constraints());
    ws.ensure(n, m, &program.backend);
    if let Backend::Sparse(_) = program.backend {
        options.obs.counter(names::GP_SPARSE_SOLVE).inc();
    }
    if !program.eval_point(&mut ws.cur) {
        return Err(GpError::InvalidStartingPoint);
    }
    let floor = match duals {
        Duals::Centred(floor) => floor,
        Duals::Fitted => WARM_SLACK,
    };
    let t0 = options.t0.max(f64::MIN_POSITIVE);
    for (l, s) in ws.cur.lam.iter_mut().zip(&ws.cur.slack) {
        *l = 1.0 / (t0 * s.max(floor));
    }
    if let (Duals::Fitted, Backend::Dense) = (duals, &program.backend) {
        program.fit_duals(ws);
    }
    let mf = m as f64;
    let mut gap = dot(&ws.cur.lam, &ws.cur.slack);
    let mut rd = program.dual_residual(&ws.cur, &mut ws.grad);
    let lag0 = if m == 0 { 1.0 } else { (rd / gap).max(1.0) };
    let (gap0, rd0) = (gap, rd);
    if let Some(span) = span.as_deref_mut() {
        if options.obs.enabled(names::GP_SOLVE) {
            span.set("loop_ns", pq_obs::now_ns());
        }
    }

    let mut last_alpha: f64 = 1.0;
    for step in 0..=options.max_newton_steps {
        // The trial's weights are stale here: scratch that allocates nothing.
        debug_assert!(
            (program.arena.iter().skip(1))
                .all(|f| f.value_buf(&ws.cur.y, &mut ws.trial.probs) < 0.0),
            "step {step}: an iterate outside a constraint"
        );
        if (gap <= stop && rd <= stop) || ws.cur.f0 < stop_below {
            if let Some(span) = span {
                span.set("newton_steps", step);
                span.set("gap", gap);
                span.set("r_dual", rd);
                // A stop at the start would repeat `gap` and `r_dual`.
                if step > 0 {
                    span.set("gap0", gap0);
                    span.set("r_dual0", rd0);
                }
            }
            return Ok((step, gap));
        }
        if step == options.max_newton_steps {
            break;
        }
        // Centring share `σ` of the step, `1/t = σ η̂ / m`: aim at the
        // central point whose gap is 1/mu of the current one while full
        // steps are being accepted; after a damped step re-centre instead
        // (Mehrotra's `(1 − α)³`, with the last accepted step length
        // standing in for the affine-scaling probe). Pressing on at 1/mu
        // from an off-centre point pins the iterate against a curved
        // active constraint, where it then crawls.
        let sigma = (1.0 - last_alpha).powi(3).max(1.0 / options.mu);
        let inv_t = if m == 0 {
            0.0
        } else if rd > options.tolerance {
            (sigma * gap).max(rd / (GAP_LAG * lag0)) / mf
        } else {
            sigma * gap / mf
        };
        program
            .newton_direction(inv_t, ws)
            .ok_or(GpError::NumericalFailure("newton system unsolvable"))?;

        // Dual step, the perturbed-KKT residual norm the line search must
        // decrease, and the largest step that keeps the duals positive
        // and every *linearized* slack positive (exact for one-term
        // constraints, an upper bound for the convex rest).
        let cur = &ws.cur;
        let mut to_boundary = f64::INFINITY;
        let mut r_sq = rd * rd;
        for i in 0..m {
            let (l, s, d) = (cur.lam[i], cur.slack[i], ws.dlam[i]);
            let dl = (l * d + inv_t) / s - l;
            ws.dlam[i] = dl;
            if dl < 0.0 {
                to_boundary = to_boundary.min(-l / dl);
            }
            if d > 0.0 {
                to_boundary = to_boundary.min(s / d);
            }
            r_sq += (l * s - inv_t).powi(2);
        }
        let r_norm = r_sq.sqrt();
        let dy_max = ws.dy.iter().fold(0.0_f64, |a, &d| a.max(d.abs()));
        if !(r_norm.is_finite() && dy_max.is_finite()) {
            return Err(GpError::NumericalFailure("non-finite newton step"));
        }
        to_boundary = to_boundary.min(MAX_LOG_STEP / dy_max);

        // Backtrack until the trial point is strictly feasible and the
        // residual norm has decreased.
        let mut alpha = (STEP_TO_BOUNDARY * to_boundary).min(1.0);
        let mut accepted = false;
        for _ in 0..MAX_BACKTRACKS {
            let (cur, trial) = (&ws.cur, &mut ws.trial);
            for ((t, &y), &d) in trial.y.iter_mut().zip(&cur.y).zip(&ws.dy) {
                *t = y + alpha * d;
            }
            for ((t, &l), &d) in trial.lam.iter_mut().zip(&cur.lam).zip(&ws.dlam) {
                *t = l + alpha * d;
            }
            if program.eval_point(trial) {
                let trial_rd = program.dual_residual(trial, &mut ws.grad);
                let mut r_sq = trial_rd * trial_rd;
                for (&l, &s) in trial.lam.iter().zip(&trial.slack) {
                    r_sq += (l * s - inv_t).powi(2);
                }
                if r_sq.sqrt() <= (1.0 - ARMIJO * alpha) * r_norm {
                    gap = dot(&trial.lam, &trial.slack);
                    rd = trial_rd;
                    last_alpha = alpha;
                    accepted = true;
                    break;
                }
            }
            alpha *= BACKTRACK;
        }
        if !accepted {
            return Err(GpError::NumericalFailure("line search stalled"));
        }
        std::mem::swap(&mut ws.cur, &mut ws.trial);
    }
    Err(GpError::IterationLimit)
}

/// Phase II: runs the loop from the start in `ws.cur.y` to optimality, or
/// to the certified stop `stop`, and reports the solution in the original
/// variables, with the loop's readings and the `objective` on `span`: the
/// solve's one record.
fn phase_two(
    program: &Program<'_>,
    options: &SolverOptions,
    ws: &mut SolveWorkspace,
    duals: Duals,
    stop: f64,
    span: &mut TimedGuard,
) -> Result<GpSolution, GpError> {
    let (steps, gap) = primal_dual(
        program,
        options,
        ws,
        duals,
        stop,
        f64::NEG_INFINITY,
        Some(span),
    )?;
    let solution = GpSolution {
        x: ws.cur.y.iter().map(|&v| v.exp()).collect(),
        objective: ws.cur.f0.exp(),
        newton_steps: steps,
        duality_gap: gap,
    };
    span.set("objective", solution.objective);
    Ok(solution)
}

/// Phase I stops as soon as every `fi(x) < exp(-PHASE_ONE_MARGIN)`: far
/// enough inside that phase II starts with moderate centred duals instead
/// of hugging the boundary phase I just crossed.
const PHASE_ONE_MARGIN: f64 = 0.1;

/// Phase I: finds a strictly feasible `y` for the constraints `Fi(y) <= 0`
/// of `arena` (its first posynomial, the objective, plays no part) and
/// leaves it in `ws.cur.y`, by running the same loop on the lifted GP
/// `minimize σ  s.t.  fi(x)/σ <= 1` (in log space `Fi(y) − ln σ <= 0`)
/// from the `y = 0` in `ws.cur.y`, where the largest `Fi` is `worst`. A
/// thin feasible region never reaches the early-exit margin; the loop
/// then converges to the deepest point, which is feasible exactly when
/// its `ln σ` is negative.
fn phase_one(
    arena: &LogArena,
    worst: f64,
    options: &SolverOptions,
    ws: &mut SolveWorkspace,
) -> Result<(), GpError> {
    let lifted = CompiledGp::from_arena(arena.phase_one_lift())?;
    ws.cur.y.push(worst + 1.0);
    let outcome = primal_dual(
        &lifted.program(),
        options,
        ws,
        Duals::Centred(COLD_DUAL_SLACK),
        0.0,
        -PHASE_ONE_MARGIN,
        None,
    );
    // Every iterate satisfies `Fi(y) < ln σ`, so a negative `ln σ` is a
    // strictly feasible point however the loop ended.
    let ln_sigma = ws.cur.y.pop().expect("lifted iterate has n + 1 entries");
    if ln_sigma < 0.0 {
        return Ok(());
    }
    outcome?;
    Err(GpError::Infeasible { residual: ln_sigma })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posynomial::{Monomial, Posynomial};

    fn mono(c: f64, e: &[(usize, f64)]) -> Posynomial {
        Posynomial::monomial(Monomial::new(c, e.iter().copied()).unwrap())
    }

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn minimizes_x_subject_to_lower_bound() {
        // min x s.t. x >= 5  ->  x* = 5.
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p.add_lower_bound(0, 5.0).unwrap();
        let s = solve_with_start(&p, &[10.0], &opts()).unwrap();
        assert!((s.x[0] - 5.0).abs() < 1e-5, "x = {}", s.x[0]);
        assert!((s.objective - 5.0).abs() < 1e-5);
    }

    /// A one-term constraint skips the softmax, and its value still reads
    /// as infeasible when it is zero, positive or not a number, whichever
    /// backend evaluates it.
    #[test]
    fn one_term_constraint_is_feasible_only_strictly_below_zero() {
        // min x s.t. 2 / x <= 1: F1(y) = ln 2 - y.
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p.add_lower_bound(0, 2.0).unwrap();
        for sparse in [false, true] {
            let compiled = CompiledGp::compile(&p).unwrap().with_backend(sparse);
            let ln2 = compiled.arena().get(1).log_coefs()[0];
            let program = compiled.program();
            let mut ws = SolveWorkspace::default();
            ws.ensure(1, 1, &program.backend);
            ws.cur.y[0] = 1.0;
            assert!(program.eval_point(&mut ws.cur), "sparse: {sparse}");
            let point = (ws.cur.f0, ws.cur.slack[0]);
            assert_eq!(point, (1.0, 1.0 - ln2), "sparse: {sparse}");
            assert_eq!(ws.cur.probs, [1.0, 1.0], "sparse: {sparse}");
            for y in [ln2, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                ws.cur.y[0] = y;
                assert!(
                    !program.eval_point(&mut ws.cur),
                    "sparse: {sparse} at y = {y}"
                );
            }
        }
    }

    #[test]
    fn symmetric_inverse_sum_splits_budget_evenly() {
        // min 1/x + 1/y s.t. x + y <= 1  ->  x = y = 1/2, objective 4.
        let mut p = GpProblem::new(2);
        let mut obj = mono(1.0, &[(0, -1.0)]);
        obj.add(&mono(1.0, &[(1, -1.0)]));
        p.set_objective(obj).unwrap();
        let mut c = mono(1.0, &[(0, 1.0)]);
        c.add(&mono(1.0, &[(1, 1.0)]));
        p.add_constraint_le(c, 1.0).unwrap();
        let s = solve_with_start(&p, &[0.25, 0.25], &opts()).unwrap();
        assert!((s.x[0] - 0.5).abs() < 1e-5);
        assert!((s.x[1] - 0.5).abs() < 1e-5);
        assert!((s.objective - 4.0).abs() < 1e-4);
    }

    #[test]
    fn weighted_inverse_sum_matches_lagrange_closed_form() {
        // min a/x + b/y s.t. p x + q y <= B.
        // KKT: a/x^2 = nu p, b/y^2 = nu q, p x + q y = B
        //  => x = sqrt(a/p)/k, y = sqrt(b/q)/k with
        //     k = (sqrt(a p) + sqrt(b q)) / B.
        let (a, b, pp, q, bb) = (3.0_f64, 5.0_f64, 2.0_f64, 7.0_f64, 11.0_f64);
        let k = ((a * pp).sqrt() + (b * q).sqrt()) / bb;
        let x_star = (a / pp).sqrt() / k;
        let y_star = (b / q).sqrt() / k;

        let p = budget_problem(a, b, pp, q, bb);
        let s = solve_with_start(&p, &[0.1, 0.1], &opts()).unwrap();
        assert!(
            (s.x[0] - x_star).abs() < 1e-4 * x_star,
            "{} vs {x_star}",
            s.x[0]
        );
        assert!(
            (s.x[1] - y_star).abs() < 1e-4 * y_star,
            "{} vs {y_star}",
            s.x[1]
        );
    }

    #[test]
    fn boyd_tutorial_box_example() {
        // Maximize box volume hwd (minimize h^-1 w^-1 d^-1) subject to
        // total wall area 2(hw + hd) <= Awall, floor area wd <= Aflr,
        // aspect ratios alpha <= h/w <= beta, gamma <= d/w <= delta.
        // (Boyd et al., "A Tutorial on Geometric Programming", §2.)
        let (awall, aflr) = (200.0, 50.0);
        let (alpha, beta, gamma, delta) = (0.5, 2.0, 0.5, 2.0);
        let mut p = GpProblem::new(3); // h=0, w=1, d=2
        p.set_objective(mono(1.0, &[(0, -1.0), (1, -1.0), (2, -1.0)]))
            .unwrap();
        let mut wall = mono(2.0, &[(0, 1.0), (1, 1.0)]);
        wall.add(&mono(2.0, &[(0, 1.0), (2, 1.0)]));
        p.add_constraint_le(wall, awall).unwrap();
        p.add_constraint_le(mono(1.0, &[(1, 1.0), (2, 1.0)]), aflr)
            .unwrap();
        p.add_constraint(mono(alpha, &[(0, -1.0), (1, 1.0)]))
            .unwrap(); // alpha w/h <= 1
        p.add_constraint(mono(1.0 / beta, &[(0, 1.0), (1, -1.0)]))
            .unwrap(); // h/(beta w) <= 1
        p.add_constraint(mono(gamma, &[(1, 1.0), (2, -1.0)]))
            .unwrap(); // gamma w/d <= 1
        p.add_constraint(mono(1.0 / delta, &[(1, -1.0), (2, 1.0)]))
            .unwrap(); // d/(delta w) <= 1
        let s = solve(&p, &opts()).unwrap();
        let vol = s.x[0] * s.x[1] * s.x[2];
        // Closed form for these numbers: floor bound gives w = d = sqrt(50),
        // wall bound then gives h = 100 / (w + d) = sqrt(50), so the optimal
        // volume is 50^(3/2) ~= 353.553.
        assert!(p.max_violation(&s.x) < 1e-6);
        // Perturbations along feasible directions must not improve volume.
        for i in 0..3 {
            for sgn in [-1.0, 1.0] {
                let mut x = s.x.clone();
                x[i] *= 1.0 + sgn * 1e-3;
                if p.max_violation(&x) < 0.0 {
                    let v = x[0] * x[1] * x[2];
                    assert!(v <= vol * (1.0 + 1e-5));
                }
            }
        }
        let expected = 50.0_f64.powf(1.5);
        assert!((vol - expected).abs() < 1e-3 * expected, "volume {vol}");
    }

    #[test]
    fn matches_fine_grid_search_on_2d_problem() {
        // min 2/x + 3/y s.t. x y <= 4, x + y <= 5.
        let mut p = GpProblem::new(2);
        let mut obj = mono(2.0, &[(0, -1.0)]);
        obj.add(&mono(3.0, &[(1, -1.0)]));
        p.set_objective(obj.clone()).unwrap();
        p.add_constraint_le(mono(1.0, &[(0, 1.0), (1, 1.0)]), 4.0)
            .unwrap();
        let mut c2 = mono(1.0, &[(0, 1.0)]);
        c2.add(&mono(1.0, &[(1, 1.0)]));
        p.add_constraint_le(c2, 5.0).unwrap();
        let s = solve_with_start(&p, &[0.5, 0.5], &opts()).unwrap();

        let mut best = f64::INFINITY;
        let steps = 800;
        for i in 1..steps {
            for j in 1..steps {
                let x = 5.0 * i as f64 / steps as f64;
                let y = 5.0 * j as f64 / steps as f64;
                if x * y <= 4.0 && x + y <= 5.0 {
                    best = best.min(2.0 / x + 3.0 / y);
                }
            }
        }
        assert!(
            (s.objective - best).abs() < 0.02 * best,
            "solver {} vs grid {best}",
            s.objective
        );
        assert!(s.objective <= best + 1e-9, "solver must beat grid");
    }

    #[test]
    fn phase_one_finds_feasible_region_away_from_ones() {
        // Constraint x >= 10 makes x=1 infeasible; phase I must recover.
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p.add_lower_bound(0, 10.0).unwrap();
        let s = solve(&p, &opts()).unwrap();
        assert!((s.x[0] - 10.0).abs() < 1e-4, "x = {}", s.x[0]);
    }

    #[test]
    fn detects_infeasible_program() {
        // x <= 1 and x >= 2 cannot hold together.
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p.add_upper_bound(0, 1.0).unwrap();
        p.add_lower_bound(0, 2.0).unwrap();
        match solve(&p, &opts()) {
            Err(GpError::Infeasible { .. }) => {}
            other => panic!("expected infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn rejects_infeasible_start() {
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p.add_upper_bound(0, 1.0).unwrap();
        assert_eq!(
            solve_with_start(&p, &[2.0], &opts()).unwrap_err(),
            GpError::InvalidStartingPoint
        );
        assert_eq!(
            solve_with_start(&p, &[-1.0], &opts()).unwrap_err(),
            GpError::InvalidStartingPoint
        );
    }

    #[test]
    fn unconstrained_posynomial_with_interior_minimum() {
        // min x + 1/x  ->  x* = 1, value 2 (no constraints).
        let mut p = GpProblem::new(1);
        let mut obj = mono(1.0, &[(0, 1.0)]);
        obj.add(&mono(1.0, &[(0, -1.0)]));
        p.set_objective(obj).unwrap();
        let s = solve_with_start(&p, &[3.0], &opts()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-5);
        assert!((s.objective - 2.0).abs() < 1e-8);
    }

    /// min 2/x + 3/y s.t. x y <= c1, x + y <= c2 (coefficients vary).
    fn drifting_problem(a: f64, b: f64, c1: f64, c2: f64) -> GpProblem {
        let mut p = GpProblem::new(2);
        let mut obj = mono(a, &[(0, -1.0)]);
        obj.add(&mono(b, &[(1, -1.0)]));
        p.set_objective(obj).unwrap();
        p.add_constraint_le(mono(1.0, &[(0, 1.0), (1, 1.0)]), c1)
            .unwrap();
        let mut c = mono(1.0, &[(0, 1.0)]);
        c.add(&mono(1.0, &[(1, 1.0)]));
        p.add_constraint_le(c, c2).unwrap();
        p
    }

    #[test]
    fn compiled_solve_from_matches_solve_with_start() {
        let p = drifting_problem(2.0, 3.0, 4.0, 5.0);
        let cold = solve_with_start(&p, &[0.5, 0.5], &opts()).unwrap();
        let compiled = CompiledGp::compile(&p).unwrap();
        let mut ws = SolveWorkspace::new();
        let warm = compiled.solve_from(&[0.5, 0.5], &opts(), &mut ws).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6 * cold.objective);
        assert_eq!(
            compiled
                .solve_from(&[100.0, 100.0], &opts(), &mut ws)
                .unwrap_err(),
            GpError::InvalidStartingPoint
        );
    }

    /// A program emitted row by row into an arena is the one compiled from
    /// the problem that spells the same rows out, and solves like it.
    #[test]
    fn a_program_from_an_arena_is_the_compiled_problem() {
        let problem = drifting_problem(2.0, 3.0, 4.0, 5.0);
        let compiled = CompiledGp::compile(&problem).unwrap();
        let n = problem.n_vars();
        let mut arena = LogArena::with_capacity(n, 3, 5, 6);
        for p in std::iter::once(problem.objective().unwrap()).chain(problem.constraints()) {
            let terms = p.terms().iter().map(|t| (t.coef(), t.exponents()));
            arena.push(terms, 1.0).unwrap();
        }
        assert_eq!(arena.spare_capacity(), 0);
        let emitted = CompiledGp::from_arena(arena).unwrap();
        assert_eq!(emitted.n_constraints(), compiled.n_constraints());
        assert_eq!(emitted.has_sparse_plan(), compiled.has_sparse_plan());
        for (e, c) in emitted.arena().iter().zip(compiled.arena().iter()) {
            assert_eq!(e.rows().collect::<Vec<_>>(), c.rows().collect::<Vec<_>>());
            assert_eq!(e.log_coefs(), c.log_coefs());
        }
        let start = vec![0.5; n];
        let mut ws = SolveWorkspace::new();
        let a = emitted.solve_from(&start, &opts(), &mut ws).unwrap();
        let b = compiled.solve_from(&start, &opts(), &mut ws).unwrap();
        assert_eq!(a.x, b.x);

        assert_eq!(
            CompiledGp::from_arena(LogArena::with_capacity(n, 0, 0, 0)).unwrap_err(),
            GpError::EmptyPosynomial
        );
    }

    /// Writing a row's coefficients directly lands on the same compiled
    /// program as compiling the rebuilt problem, and a rejected write
    /// changes nothing.
    #[test]
    fn set_constraint_coefs_matches_a_recompile_bit_for_bit() {
        let mut direct = CompiledGp::compile(&drifting_problem(2.0, 3.0, 4.0, 5.0)).unwrap();
        // Row 1 is `(x + y) / c2 <= 1`.
        direct
            .set_constraint_coefs(1, &[1.0, 1.0], 1.0 / 4.9)
            .unwrap();
        let rebuilt = CompiledGp::compile(&drifting_problem(2.0, 3.0, 4.0, 4.9)).unwrap();
        let mut ws = SolveWorkspace::new();
        let a = direct.solve_from(&[0.5, 0.5], &opts(), &mut ws).unwrap();
        let b = rebuilt.solve_from(&[0.5, 0.5], &opts(), &mut ws).unwrap();
        assert_eq!(a.x, b.x);

        for (i, coefs) in [(1, &[1.0, 0.0][..]), (1, &[1.0][..]), (2, &[1.0, 1.0][..])] {
            assert!(direct.set_constraint_coefs(i, coefs, 1.0).is_err());
        }
        assert!(direct
            .set_constraint_coefs(1, &[1.0, 1.0], f64::INFINITY)
            .is_err());
        let c = direct.solve_from(&[0.5, 0.5], &opts(), &mut ws).unwrap();
        assert_eq!(a.x, c.x, "a rejected write must leave the program alone");
    }

    #[test]
    fn warm_solve_from_perturbed_optimum_agrees_with_cold() {
        let p = drifting_problem(2.0, 3.0, 4.0, 5.0);
        let prev = solve_with_start(&p, &[0.5, 0.5], &opts()).unwrap();
        let drifted = drifting_problem(2.1, 3.05, 3.95, 5.02);
        let cold = solve_with_start(&drifted, &[0.5, 0.5], &opts()).unwrap();
        let compiled = CompiledGp::compile(&drifted).unwrap();
        let mut ws = SolveWorkspace::new();
        let (warm, kind) = compiled
            .solve_warm(&prev.x, &[0.5, 0.5], &opts(), 0.0, &mut ws)
            .unwrap();
        assert_eq!(kind, WarmStart::Hit, "small drift needs only a light blend");
        assert!(
            (warm.objective - cold.objective).abs() < 1e-5 * cold.objective,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            drifted.max_violation(&warm.x) <= 0.0,
            "warm must be feasible"
        );
        // The warm start should not pay more Newton steps than the cold one.
        assert!(
            warm.newton_steps <= cold.newton_steps,
            "warm {} vs cold {} newton steps",
            warm.newton_steps,
            cold.newton_steps
        );
    }

    #[test]
    fn warm_solve_repairs_after_large_drift() {
        let p = drifting_problem(2.0, 3.0, 4.0, 5.0);
        let prev = solve_with_start(&p, &[0.5, 0.5], &opts()).unwrap();
        // Shrink both budgets hard: the old optimum is far outside.
        let drifted = drifting_problem(2.0, 3.0, 1.1, 2.0);
        let compiled = CompiledGp::compile(&drifted).unwrap();
        let mut ws = SolveWorkspace::new();
        let (warm, kind) = compiled
            .solve_warm(&prev.x, &[0.4, 0.4], &opts(), 0.0, &mut ws)
            .unwrap();
        assert_eq!(kind, WarmStart::Repaired);
        let cold = solve_with_start(&drifted, &[0.4, 0.4], &opts()).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-5 * cold.objective);
        assert!(drifted.max_violation(&warm.x) <= 0.0);
    }

    #[test]
    fn warm_solve_rejects_useless_interior_point() {
        let p = drifting_problem(2.0, 3.0, 4.0, 5.0);
        let compiled = CompiledGp::compile(&p).unwrap();
        let mut ws = SolveWorkspace::new();
        // Both points violate x + y <= 5: no blend is feasible.
        let err = compiled
            .solve_warm(&[10.0, 10.0], &[8.0, 8.0], &opts(), 0.0, &mut ws)
            .unwrap_err();
        assert_eq!(err, GpError::InvalidStartingPoint);
    }

    /// min a/x + b/y s.t. p x + q y <= budget.
    fn budget_problem(a: f64, b: f64, p: f64, q: f64, budget: f64) -> GpProblem {
        let mut prob = GpProblem::new(2);
        let mut obj = mono(a, &[(0, -1.0)]);
        obj.add(&mono(b, &[(1, -1.0)]));
        prob.set_objective(obj).unwrap();
        let mut c = mono(p, &[(0, 1.0)]);
        c.add(&mono(q, &[(1, 1.0)]));
        prob.add_constraint_le(c, budget).unwrap();
        prob
    }

    /// Solves a budget program from its usual interior start and checks
    /// convergence, verified optimality and strict feasibility.
    fn assert_budget_program_solves(a: f64, b: f64, p: f64, q: f64, budget: f64) {
        let prob = budget_problem(a, b, p, q, budget);
        let start = [0.125 * budget / p.max(q); 2];
        let sol = solve_with_start(&prob, &start, &opts())
            .unwrap_or_else(|e| panic!("({a}, {b}, {p}, {q}, {budget}): {e}"));
        let report = crate::kkt::kkt_report(&prob, &sol.x);
        assert!(
            report.is_optimal(1e-6),
            "({a}, {b}, {p}, {q}, {budget}): stationarity {} complementarity {} feasibility {}",
            report.stationarity,
            report.complementarity,
            report.feasibility
        );
        assert!(
            prob.max_violation(&sol.x) < 0.0,
            "must be strictly feasible"
        );
    }

    #[test]
    fn lopsided_budget_program_does_not_jam() {
        // Plain Boyd & Vandenberghe primal-dual jams here: the gap races
        // to 1e-15 while the dual residual stalls at 5e-3. The floor on
        // the target gap (`GAP_LAG`) is what prevents it.
        assert_budget_program_solves(12.99, 18.50, 6.305, 0.1134, 75.55);
    }

    #[test]
    fn budget_family_sweep_converges_to_verified_optima() {
        // 2000 draws from the family the jamming case came from.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..2000 {
            let a = 0.05 + 19.95 * unit();
            let b = 0.05 + 19.95 * unit();
            let p = 0.1 + 9.9 * unit();
            let q = 0.1 + 9.9 * unit();
            let budget = 0.5 + 99.5 * unit();
            assert_budget_program_solves(a, b, p, q, budget);
        }
    }

    #[test]
    fn start_hugging_an_inactive_constraint_converges() {
        // min x + 4/x (optimum x = 2) from x = 1 with x >= 1 - 1e-9 in
        // the way: a centred dual on that slack would be 1e9.
        let mut p = GpProblem::new(1);
        let mut obj = mono(1.0, &[(0, 1.0)]);
        obj.add(&mono(4.0, &[(0, -1.0)]));
        p.set_objective(obj).unwrap();
        p.add_constraint(mono(1.0 - 1e-9, &[(0, -1.0)])).unwrap();
        let s = solve_with_start(&p, &[1.0], &opts()).unwrap();
        assert!((s.x[0] - 2.0).abs() < 1e-6, "x = {}", s.x[0]);
        assert!(s.newton_steps <= 30, "{} newton steps", s.newton_steps);

        // min 1/(xy) s.t. x + y <= 2 (optimum (1, 1)) from (0.5, 0.5)
        // with x >= 0.5 (1 - 1e-9): while x cannot move, y must not run
        // into the budget constraint and pin the iterate in that corner.
        let mut p = GpProblem::new(2);
        p.set_objective(mono(1.0, &[(0, -1.0), (1, -1.0)])).unwrap();
        let mut c = mono(0.5, &[(0, 1.0)]);
        c.add(&mono(0.5, &[(1, 1.0)]));
        p.add_constraint(c).unwrap();
        p.add_constraint(mono(0.5 * (1.0 - 1e-9), &[(0, -1.0)]))
            .unwrap();
        let s = solve_with_start(&p, &[0.5, 0.5], &opts()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-6 && (s.x[1] - 1.0).abs() < 1e-6);
        assert!(s.newton_steps <= 30, "{} newton steps", s.newton_steps);
    }

    #[test]
    fn barely_feasible_ones_are_recentred_by_phase_one() {
        // x = (1, 1) is feasible by 1e-8 for x >= 1 - 1e-8; the optimum of
        // min 1/(xy) s.t. x + y <= 10 is (5, 5), far from that boundary.
        let mut p = GpProblem::new(2);
        p.set_objective(mono(1.0, &[(0, -1.0), (1, -1.0)])).unwrap();
        let mut c = mono(0.1, &[(0, 1.0)]);
        c.add(&mono(0.1, &[(1, 1.0)]));
        p.add_constraint(c).unwrap();
        p.add_constraint(mono(1.0 - 1e-8, &[(0, -1.0)])).unwrap();
        let s = solve(&p, &opts()).unwrap();
        assert!((s.x[0] - 5.0).abs() < 1e-5 && (s.x[1] - 5.0).abs() < 1e-5);
        assert!(s.newton_steps <= 30, "{} newton steps", s.newton_steps);
    }

    #[test]
    fn duality_gap_reported_below_tolerance() {
        let mut p = GpProblem::new(1);
        p.set_objective(mono(1.0, &[(0, 1.0)])).unwrap();
        p.add_lower_bound(0, 2.0).unwrap();
        let o = opts();
        let s = solve_with_start(&p, &[4.0], &o).unwrap();
        assert!(s.duality_gap <= o.tolerance);
    }

    /// A Dual-DAB-shaped program, `proptest_gp`'s: `min Σ λ_j / b_j + μ R`
    /// under one multi-term condition on the `c_j` and the `2k` one-term
    /// rows `b_j <= c_j`, `λ_j / c_j <= R`; with a point strictly inside.
    fn dual_dab(items: &[(f64, f64, f64)], mu: f64) -> (GpProblem, Vec<f64>) {
        // Variables: b_j = j, c_j = k + j, R = 2k.
        let k = items.len();
        let (n, r) = (2 * k + 1, 2 * k);
        let mut prob = GpProblem::new(n);
        let (mut obj, mut cond) = (mono(mu, &[(r, 1.0)]), Posynomial::zero());
        for (j, &(rate, lin, cross)) in items.iter().enumerate() {
            let (c, c_next) = (k + j, k + (j + 1) % k);
            obj.add(&mono(rate, &[(j, -1.0)]));
            cond.add(&mono(lin, &[(c, 1.0)]));
            cond.add(&mono(cross, &[(c.min(c_next), 1.0), (c.max(c_next), 1.0)]));
        }
        prob.set_objective(obj).unwrap();
        prob.add_constraint(cond).unwrap();
        for (j, &(rate, ..)) in items.iter().enumerate() {
            prob.add_var_le_var(j, k + j).unwrap();
            prob.add_constraint_le(mono(rate, &[(k + j, -1.0), (r, -1.0)]), 1.0)
                .unwrap();
        }
        // The condition at one half, b_j = c_j / 2.
        let c0 = 0.5
            / items
                .iter()
                .map(|&(_, lin, cross)| lin + cross)
                .sum::<f64>();
        let mut x = vec![0.5 * c0; n];
        x[k..r].fill(c0);
        x[r] = 2.0
            * items
                .iter()
                .map(|&(rate, ..)| rate / c0)
                .fold(0.0, f64::max);
        (prob, x)
    }

    /// Case `i` of a named run as a DAB solve sees it: `proptest_gp`'s
    /// Dual-DAB items and `μ`, the program's optimum moved by a prediction
    /// error of up to 0.3 % (the refined prediction's regime) in a drawn
    /// direction per variable as the start, and the interior point.
    fn predicted_dual_dab(name: &str, i: u64) -> (CompiledGp, Vec<f64>, Vec<f64>) {
        use proptest::prelude::Strategy;
        let items = proptest::collection::vec((0.1f64..10.0, 0.5f64..50.0, 0.01f64..2.0), 2..12);
        let direction = proptest::collection::vec(-1.0f64..1.0, 23..24);
        let (items, mu, error, direction) = (items, 1.0f64..10.0, 0.0f64..0.003, direction)
            .generate(&mut proptest::test_runner::TestRng::for_case(name, i));
        let (problem, interior) = dual_dab(&items, mu);
        let optimum = solve_with_start(&problem, &interior, &opts()).unwrap().x;
        let start = (optimum.iter().zip(&direction))
            .map(|(x, d)| x * (error * d).exp())
            .collect();
        (CompiledGp::compile(&problem).unwrap(), start, interior)
    }

    /// [`CompiledGp::solve_warm`] with centred duals: the same blend,
    /// `λ_i = 1 / (t0 max(s_i, WARM_SLACK))`.
    fn centred_warm(c: &CompiledGp, start: &[f64], interior: &[f64]) -> GpSolution {
        let mut ws = SolveWorkspace::new();
        c.blend_into(start, interior, &mut ws);
        phase_two(
            &c.program(),
            &opts(),
            &mut ws,
            Duals::Centred(WARM_SLACK),
            0.0,
            &mut solve_span(&opts()),
        )
        .unwrap()
    }

    fn warm(c: &CompiledGp, start: &[f64], interior: &[f64]) -> GpSolution {
        let mut ws = SolveWorkspace::new();
        c.solve_warm(start, interior, &opts(), 0.0, &mut ws)
            .unwrap()
            .0
    }

    /// The duals and slacks [`CompiledGp::solve_warm`] starts its loop at.
    fn warm_start_duals(c: &CompiledGp, start: &[f64], interior: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let no_steps = SolverOptions {
            max_newton_steps: 0,
            ..opts()
        };
        let mut ws = SolveWorkspace::new();
        let outcome = c.solve_warm(start, interior, &no_steps, 0.0, &mut ws);
        assert!(
            matches!(outcome, Ok(_) | Err(GpError::IterationLimit)),
            "{outcome:?}"
        );
        (ws.cur.lam.clone(), ws.cur.slack.clone())
    }

    /// A certified stop returns the first iterate whose gap and dual
    /// residual are both within it, and records it once, on its span: no
    /// later than the full solve, on a
    /// strictly feasible point, and within the gap of the optimum in
    /// units of `ln F0`.
    #[test]
    fn a_certified_stop_returns_an_iterate_within_its_gap() {
        use pq_obs::Value;
        let stop = 2e-3;
        let (obs, ring) = Obs::ring(64);
        let observed = SolverOptions {
            query: Some(7),
            ..opts()
        }
        .observed_by(&obs);
        let (mut stopped_steps, mut full_steps) = (0, 0);
        for i in 0..32 {
            let (compiled, start, interior) = predicted_dual_dab("certified_stop", i);
            let full = warm(&compiled, &start, &interior);
            let mut ws = SolveWorkspace::new();
            let (stopped, _) = compiled
                .solve_warm(&start, &interior, &observed, stop, &mut ws)
                .unwrap();
            // Its one record, the span's event, carries what it did.
            let events = ring.events();
            let e = &events[i as usize];
            let is = |key, v: Value| assert_eq!(e.field(key), Some(&v), "case {i}: {key}");
            is("query", Value::U64(7));
            is("newton_steps", stopped.newton_steps.into());
            is("gap", stopped.duality_gap.into());
            is("objective", stopped.objective.into());
            let num = |key| match e.field(key) {
                Some(&Value::F64(v)) => v,
                Some(&Value::U64(v)) => v as f64,
                other => panic!("case {i}: {key}: {other:?}"),
            };
            assert!(num("r_dual") <= stop, "case {i}");
            if stopped.newton_steps > 0 {
                assert!(num("gap0") >= num("gap"), "case {i}");
            }
            let opened = e.ts_ns as f64 - num("dur_ns");
            assert!((opened..=e.ts_ns as f64).contains(&num("loop_ns")));
            assert!(stopped.duality_gap <= stop, "case {i}");
            assert!(stopped.newton_steps <= full.newton_steps, "case {i}");
            let excess = stopped.objective.ln() - full.objective.ln();
            assert!(
                (-full.duality_gap..=stopped.duality_gap).contains(&excess),
                "case {i}: excess {excess} over gap {}",
                stopped.duality_gap
            );
            assert!(ws.cur.slack.iter().all(|&s| s > 0.0), "case {i}");
            stopped_steps += stopped.newton_steps;
            full_steps += full.newton_steps;
        }
        assert!(
            stopped_steps < full_steps,
            "{stopped_steps} Newton steps to the stop, {full_steps} to the tolerance"
        );
        // A start the stop certifies as it stands records no start.
        let (compiled, start, interior) = predicted_dual_dab("certified_stop", 0);
        let mut ws = SolveWorkspace::new();
        let at_start = compiled.solve_warm(&start, &interior, &observed, f64::INFINITY, &mut ws);
        assert_eq!(at_start.unwrap().0.newton_steps, 0);
        let e = &ring.events()[32];
        let has = |key| e.field(key).is_some();
        assert!(
            has("gap") && has("r_dual") && !has("gap0") && !has("r_dual0"),
            "{e:?}"
        );
    }

    /// From a prediction within 0.3 % of the optimum, the fitted duals
    /// reach the centred start's objective and take fewer Newton steps on
    /// average (5.7 against 8.0 here). The fit trusts the start's active
    /// set: at a 1 % error it still wins on average, at 3 % it loses
    /// (11.9 against 9.1).
    #[test]
    fn fitted_duals_reach_the_centred_optimum_in_fewer_steps() {
        let (mut fitted_steps, mut centred_steps) = (0, 0);
        for i in 0..64 {
            let (compiled, start, interior) = predicted_dual_dab("fitted_optimum", i);
            let fitted = warm(&compiled, &start, &interior);
            let centred = centred_warm(&compiled, &start, &interior);
            assert!(
                (fitted.objective - centred.objective).abs() <= 1e-6 * centred.objective,
                "case {i}: fitted {} vs centred {}",
                fitted.objective,
                centred.objective
            );
            fitted_steps += fitted.newton_steps;
            centred_steps += centred.newton_steps;
        }
        assert!(
            fitted_steps <= centred_steps,
            "{fitted_steps} Newton steps from fitted duals, {centred_steps} from centred ones"
        );
    }

    /// Where the fit has nothing to go on — no near-active constraint, or
    /// near-active gradients that are linearly dependent — a warm solve
    /// is the centred one bit for bit. Without the duplicate, the same
    /// start fits the constraint's converged multiplier.
    #[test]
    fn a_warm_start_with_nothing_to_fit_keeps_centred_duals_bit_for_bit() {
        let bits = |s: &GpSolution| {
            let x: Vec<u64> = s.x.iter().map(|v| v.to_bits()).collect();
            (
                x,
                s.objective.to_bits(),
                s.newton_steps,
                s.duality_gap.to_bits(),
            )
        };
        // Every slack is above 1: the start is the interior point itself.
        let inside = CompiledGp::compile(&drifting_problem(2.0, 3.0, 4.0, 5.0)).unwrap();
        let centre = [0.5, 0.5];
        assert_eq!(
            bits(&warm(&inside, &centre, &centre)),
            bits(&centred_warm(&inside, &centre, &centre))
        );

        // min 2/x + 3/y s.t. x + y <= 5, `copies` times.
        let budget = |copies: usize| {
            let mut p = GpProblem::new(2);
            let mut obj = mono(2.0, &[(0, -1.0)]);
            obj.add(&mono(3.0, &[(1, -1.0)]));
            p.set_objective(obj).unwrap();
            for _ in 0..copies {
                let mut c = mono(1.0, &[(0, 1.0)]);
                c.add(&mono(1.0, &[(1, 1.0)]));
                p.add_constraint_le(c, 5.0).unwrap();
            }
            CompiledGp::compile(&p).unwrap()
        };
        let (once, twice) = (budget(1), budget(2));
        let optimum = once
            .solve_from(&centre, &opts(), &mut SolveWorkspace::new())
            .unwrap()
            .x;
        let (lam, slack) = warm_start_duals(&twice, &optimum, &centre);
        assert!(slack.iter().all(|&s| s < NEAR_ACTIVE_SLACK), "{slack:?}");
        assert_eq!(lam, [1.0 / slack[0], 1.0 / slack[1]]);
        assert_eq!(
            bits(&warm(&twice, &optimum, &centre)),
            bits(&centred_warm(&twice, &optimum, &centre))
        );
        // Homogeneity puts the multiplier at exactly 1.
        let (lam, _) = warm_start_duals(&once, &optimum, &centre);
        assert!((lam[0] - 1.0).abs() < 1e-2, "fitted {lam:?}");
    }

    /// A fitted start lies in a wide neighbourhood of the central path:
    /// every `λ_i s_i` is at least a tenth of the level `η` a constraint
    /// away from its bound starts at.
    #[test]
    fn fitted_duals_start_in_a_wide_neighbourhood_of_the_central_path() {
        let mut levelled = 0;
        for i in 0..64 {
            let (compiled, start, interior) = predicted_dual_dab("fitted_neighbourhood", i);
            let (lam, slack) = warm_start_duals(&compiled, &start, &interior);
            let products: Vec<f64> = lam.iter().zip(&slack).map(|(l, s)| l * s).collect();
            let Some(eta) = (slack.iter().zip(&products))
                .find(|&(&s, _)| s >= NEAR_ACTIVE_SLACK)
                .map(|(_, &p)| p)
            else {
                continue;
            };
            levelled += 1;
            for (k, &p) in products.iter().enumerate() {
                assert!(
                    p >= FIT_FLOOR * eta * (1.0 - 1e-12),
                    "case {i}: constraint {k} starts at λs = {p:e}, η = {eta:e}"
                );
            }
            assert!(
                products.iter().any(|&p| (p - eta).abs() > 1e-3 * eta),
                "case {i}: every dual is levelled, none fitted"
            );
        }
        assert!(levelled >= 32, "{levelled} of 64 cases have a levelled row");
    }
}
