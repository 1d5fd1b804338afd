//! Property tests of the geometric-programming solver: feasibility,
//! KKT optimality, closed-form agreement, and transform consistency.

use proptest::prelude::*;

use pq_gp::{kkt_report, solve_with_start, GpProblem, Monomial, Posynomial, SolverOptions};

fn mono(c: f64, e: &[(usize, f64)]) -> Posynomial {
    Posynomial::monomial(Monomial::new(c, e.iter().copied()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted inverse-sum under a weighted budget has a Lagrange closed
    /// form; the solver must match it for arbitrary positive parameters.
    #[test]
    fn matches_weighted_budget_closed_form(
        a in 0.05f64..20.0,
        b in 0.05f64..20.0,
        p in 0.1f64..10.0,
        q in 0.1f64..10.0,
        budget in 0.5f64..100.0,
    ) {
        // min a/x + b/y s.t. p x + q y <= budget
        // => x* = sqrt(a/p) * budget / (sqrt(a p) + sqrt(b q)).
        let mut prob = GpProblem::new(2);
        let mut obj = mono(a, &[(0, -1.0)]);
        obj.add(&mono(b, &[(1, -1.0)]));
        prob.set_objective(obj).unwrap();
        let mut c = mono(p, &[(0, 1.0)]);
        c.add(&mono(q, &[(1, 1.0)]));
        prob.add_constraint_le(c, budget).unwrap();

        let start = [0.25 * budget / p.max(q) / 2.0, 0.25 * budget / p.max(q) / 2.0];
        let sol = solve_with_start(&prob, &start, &SolverOptions::default()).unwrap();

        let k = ((a * p).sqrt() + (b * q).sqrt()) / budget;
        let x_star = (a / p).sqrt() / k;
        let y_star = (b / q).sqrt() / k;
        prop_assert!((sol.x[0] - x_star).abs() < 2e-4 * x_star,
            "x {} vs {x_star}", sol.x[0]);
        prop_assert!((sol.x[1] - y_star).abs() < 2e-4 * y_star,
            "y {} vs {y_star}", sol.x[1]);
    }

    /// Every returned solution is feasible and KKT-optimal.
    #[test]
    fn solutions_are_feasible_and_kkt_optimal(
        weights in proptest::collection::vec(0.1f64..10.0, 2..5),
        bound in 1.0f64..50.0,
    ) {
        // min sum w_i / x_i s.t. sum x_i <= bound (+ per-var caps).
        let n = weights.len();
        let mut prob = GpProblem::new(n);
        let mut obj = Posynomial::zero();
        let mut con = Posynomial::zero();
        for (i, &w) in weights.iter().enumerate() {
            obj.add(&mono(w, &[(i, -1.0)]));
            con.add(&mono(1.0, &[(i, 1.0)]));
        }
        prob.set_objective(obj).unwrap();
        prob.add_constraint_le(con, bound).unwrap();
        let start = vec![0.5 * bound / n as f64; n];
        let sol = solve_with_start(&prob, &start, &SolverOptions::default()).unwrap();
        prop_assert!(prob.max_violation(&sol.x) <= 1e-7);
        let report = kkt_report(&prob, &sol.x);
        prop_assert!(report.is_optimal(1e-3),
            "stationarity {} complementarity {} feasibility {}",
            report.stationarity, report.complementarity, report.feasibility);
    }

    /// Objective monotonicity: loosening the budget can only improve the
    /// optimum (a sanity property linking problem and solver).
    #[test]
    fn looser_budgets_do_not_hurt(
        a in 0.1f64..5.0,
        bound in 1.0f64..20.0,
        factor in 1.1f64..4.0,
    ) {
        let build = |budget: f64| {
            let mut prob = GpProblem::new(2);
            let mut obj = mono(a, &[(0, -1.0)]);
            obj.add(&mono(1.0, &[(1, -1.0)]));
            prob.set_objective(obj).unwrap();
            let mut c = mono(1.0, &[(0, 1.0)]);
            c.add(&mono(1.0, &[(1, 1.0)]));
            prob.add_constraint_le(c, budget).unwrap();
            prob
        };
        let opts = SolverOptions::default();
        let tight = solve_with_start(&build(bound), &[bound / 4.0, bound / 4.0], &opts)
            .unwrap();
        let loose_bound = bound * factor;
        let loose = solve_with_start(
            &build(loose_bound),
            &[loose_bound / 4.0, loose_bound / 4.0],
            &opts,
        )
        .unwrap();
        prop_assert!(loose.objective <= tight.objective * (1.0 + 1e-6));
    }

    /// Warm-started solves from a drifted previous optimum agree with a
    /// cold solve of the same program and return a feasible point, whether
    /// the minimal blend sufficed (hit) or the drift forced a deeper
    /// shrink toward the interior point (repair). Every iterate the loop
    /// accepts on the way, cold from an interior point or warm from a
    /// drifted optimum, is strictly feasible: the loop checks each one
    /// against the program's constraints under `debug_assert!`, which
    /// this test runs in a debug build.
    #[test]
    fn every_accepted_iterate_is_strictly_feasible(
        a in 0.2f64..8.0,
        b in 0.2f64..8.0,
        c1 in 1.0f64..10.0,
        c2 in 2.0f64..12.0,
        fa in 0.7f64..1.4,
        fb in 0.7f64..1.4,
        f1 in 0.7f64..1.4,
        f2 in 0.7f64..1.4,
    ) {
        use pq_gp::{CompiledGp, SolveWorkspace};
        // min a/x + b/y s.t. x y <= c1, x + y <= c2; the factors model
        // data drift between consecutive DAB recomputations (up to
        // +/-40%, far beyond what one validity window permits, so deep
        // repair blends get exercised too).
        let build = |a: f64, b: f64, c1: f64, c2: f64| {
            let mut prob = GpProblem::new(2);
            let mut obj = mono(a, &[(0, -1.0)]);
            obj.add(&mono(b, &[(1, -1.0)]));
            prob.set_objective(obj).unwrap();
            prob.add_constraint_le(mono(1.0, &[(0, 1.0), (1, 1.0)]), c1).unwrap();
            let mut c = mono(1.0, &[(0, 1.0)]);
            c.add(&mono(1.0, &[(1, 1.0)]));
            prob.add_constraint_le(c, c2).unwrap();
            prob
        };
        // Scaled-down diagonal point: strictly inside both constraints.
        let interior = |c1: f64, c2: f64| {
            let s = 0.4 * c1.sqrt().min(c2 / 2.0);
            [s, s]
        };
        let opts = SolverOptions::default();
        let prev = solve_with_start(&build(a, b, c1, c2), &interior(c1, c2), &opts).unwrap();

        let (dc1, dc2) = (c1 * f1, c2 * f2);
        let drifted = build(a * fa, b * fb, dc1, dc2);
        let cold = solve_with_start(&drifted, &interior(dc1, dc2), &opts).unwrap();

        let compiled = CompiledGp::compile(&drifted).unwrap();
        let mut ws = SolveWorkspace::new();
        let (warm, kind) = compiled
            .solve_warm(&prev.x, &interior(dc1, dc2), &opts, 0.0, &mut ws)
            .unwrap();
        prop_assert!(drifted.max_violation(&warm.x) <= 0.0,
            "{kind:?} warm solution violates a constraint by {}",
            drifted.max_violation(&warm.x));
        prop_assert!((warm.objective - cold.objective).abs() <= 1e-5 * cold.objective,
            "{kind:?} warm {} vs cold {}", warm.objective, cold.objective);
    }

    /// The log transform preserves evaluation: posynomial value at x equals
    /// exp of the transformed value at ln x.
    #[test]
    fn log_transform_round_trips(
        coefs in proptest::collection::vec(0.01f64..100.0, 1..5),
        x in proptest::collection::vec(0.05f64..20.0, 3),
    ) {
        use pq_gp::logsumexp::LogArena;
        let mut p = Posynomial::zero();
        for (k, &c) in coefs.iter().enumerate() {
            let v = k % 3;
            let e = 1.0 + (k as f64) * 0.5 - 1.5; // mixed exponents
            p.push(Monomial::new(c, [(v, e)]).unwrap());
        }
        let arena = LogArena::compile([&p].into_iter(), 3);
        let lp = arena.get(0);
        let y: Vec<f64> = x.iter().map(|&v| v.ln()).collect();
        let direct = p.eval(&x);
        let transformed = lp.value(&y).exp();
        prop_assert!((direct - transformed).abs() <= 1e-9 * direct.abs().max(1.0));
    }

    /// Posynomials packed back to back in one arena read like the same
    /// posynomials compiled alone: a view's value, gradient and softmax
    /// second moment are the stand-alone ones bit for bit, wherever in the
    /// arena its rows start.
    #[test]
    fn views_over_a_shared_arena_match_stand_alone_posynomials(
        posys in proptest::collection::vec(
            proptest::collection::vec(
                (0.01f64..100.0, proptest::collection::vec((0usize..4, 1u32..7), 0..4)),
                1..5,
            ),
            1..6,
        ),
        x in proptest::collection::vec(0.05f64..20.0, 4),
    ) {
        use pq_gp::linalg::Matrix;
        use pq_gp::logsumexp::{count_rows, LogArena};
        // Rows in `Monomial`'s stored form: ascending variables, each once.
        type Term = (f64, Vec<(usize, f64)>);
        let posys: Vec<Vec<Term>> = posys
            .into_iter()
            .map(|terms| {
                let row = |(coef, mut row): (f64, Vec<(usize, u32)>)| {
                    row.sort_by_key(|&(v, _)| v);
                    row.dedup_by_key(|&mut (v, _)| v);
                    let exps = row.into_iter().map(|(v, e)| (v, 0.5 * f64::from(e) - 2.0));
                    (coef, exps.filter(|&(_, e)| e != 0.0).collect())
                };
                terms.into_iter().map(row).collect()
            })
            .collect();
        let (n_terms, n_exps) = count_rows(posys.iter().flatten().map(|(c, row)| (*c, row)));
        let mut arena = LogArena::with_capacity(4, posys.len(), n_terms, n_exps);
        for terms in &posys {
            arena.push(terms.iter().map(|(c, row)| (*c, row)), 0.5).unwrap();
        }
        prop_assert_eq!(arena.len(), posys.len());
        prop_assert_eq!(arena.spare_capacity(), 0);

        let y: Vec<f64> = x.iter().map(|&v| v.ln()).collect();
        for (p, terms) in posys.iter().enumerate() {
            let rows = || terms.iter().map(|(c, row)| (*c, row));
            let (n_terms, n_exps) = count_rows(rows());
            let mut alone = LogArena::with_capacity(4, 1, n_terms, n_exps);
            alone.push(rows(), 0.5).unwrap();
            let (view, alone) = (arena.get(p), alone.get(0));
            prop_assert_eq!(view.n_terms(), terms.len());
            prop_assert_eq!(view.value(&y).to_bits(), alone.value(&y).to_bits());
            let (mut probs, mut grad) = (Vec::new(), vec![0.0; 4]);
            let (mut alone_probs, mut alone_grad) = (Vec::new(), vec![0.0; 4]);
            let value = view.value_grad_buf(&y, &mut probs, &mut grad);
            let alone_value = alone.value_grad_buf(&y, &mut alone_probs, &mut alone_grad);
            prop_assert_eq!(value.to_bits(), alone_value.to_bits());
            prop_assert_eq!(&grad, &alone_grad);
            prop_assert_eq!(&probs, &alone_probs);
            let (mut moment, mut alone_moment) = (Matrix::zeros(4, 4), Matrix::zeros(4, 4));
            view.add_second_moment(&probs, 0.75, &mut moment);
            alone.add_second_moment(&alone_probs, 0.75, &mut alone_moment);
            prop_assert_eq!(moment, alone_moment);
        }
    }

    /// A Dual-DAB-shaped program — `min Σ λ_j / b_j + μ R` under one
    /// multi-term condition on the `c_j` and the `2k` one-term rows
    /// `b_j <= c_j`, `λ_j / c_j <= R` — takes the same first Newton step
    /// however its matrix is put together: `Δy` from `Matrix`'s lower-only
    /// outer products and column-order factorization, called the way the
    /// solver's `fill` calls them, is bit for bit `Δy` from both triangles
    /// written out here and factored row by row.
    #[test]
    fn lower_triangle_newton_step_matches_a_full_matrix_row_wise_one(
        items in proptest::collection::vec((0.1f64..10.0, 0.5f64..50.0, 0.01f64..2.0), 2..12),
        mu in 1.0f64..10.0,
    ) {
        use pq_gp::linalg::{axpy, dot, Matrix};
        use pq_gp::CompiledGp;
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
        prob.add_constraint_le(cond, 1.0).unwrap();
        for (j, &(rate, ..)) in items.iter().enumerate() {
            prob.add_var_le_var(j, k + j).unwrap();
            prob.add_constraint_le(mono(rate, &[(k + j, -1.0), (r, -1.0)]), 1.0).unwrap();
        }
        // Strictly inside: the condition at one half, b_j = c_j / 2.
        let c0 = 0.5 / items.iter().map(|&(_, lin, cross)| lin + cross).sum::<f64>();
        let mut x = vec![0.5 * c0; n];
        x[k..r].fill(c0);
        x[r] = 2.0 * items.iter().map(|&(rate, ..)| rate / c0).fold(0.0, f64::max);
        let y: Vec<f64> = x.iter().map(|v| v.ln()).collect();

        // Each posynomial's weights in the Newton system, at the solver's
        // cold start: duals centred on the slacks, a twentieth of the gap.
        let compiled = CompiledGp::compile(&prob).unwrap();
        let arena = compiled.arena();
        let (mut probs, mut grad) = (Vec::new(), vec![0.0; n]);
        let slack: Vec<f64> = (arena.iter().skip(1))
            .map(|f| -f.value_grad_buf(&y, &mut probs, &mut grad))
            .collect();
        prop_assert!(slack.iter().all(|&s| s > 0.0), "start not interior: {slack:?}");
        let inv_t = slack.iter().map(|s| s / s.max(0.1)).sum::<f64>() / (20.0 * slack.len() as f64);
        let weights = |p: usize, multi: bool| {
            let Some(s) = p.checked_sub(1).map(|i| slack[i]) else {
                return (1.0, 1.0, -1.0);
            };
            let l = 1.0 / s.max(0.1);
            if multi { (inv_t / s, l, l / s - l) } else { (inv_t / s, 0.0, l / s) }
        };

        // The solver's `fill`, through `Matrix`'s own updates.
        let fill = |hess: &mut Matrix, rhs: &mut [f64]| {
            let (mut probs, mut grad) = (Vec::new(), vec![0.0; n]);
            hess.set_zero();
            rhs.fill(0.0);
            for (p, f) in arena.iter().enumerate() {
                let (w_rhs, alpha, beta) = weights(p, !f.is_affine());
                if f.is_affine() {
                    let row = f.rows().next().unwrap();
                    for &(v, e) in row {
                        rhs[v] -= w_rhs * e;
                    }
                    hess.add_outer_sparse(beta, row);
                } else {
                    f.value_grad_buf(&y, &mut probs, &mut grad);
                    axpy(-w_rhs, &grad, rhs);
                    f.add_second_moment(&probs, alpha, hess);
                    hess.add_outer(beta, &grad);
                }
            }
        };
        let (mut lower, mut dy) = (Matrix::zeros(n, n), vec![0.0; n]);
        prop_assert_eq!(lower.solve_regularized_in_place(fill, &mut dy), Some(0.0));

        // The same sums with both triangles written, entry by entry.
        let (mut full, mut dy_full) = (Matrix::zeros(n, n), vec![0.0; n]);
        let mut dense_row = vec![0.0; n];
        let mut outer = |alpha: f64, v: &[f64]| {
            for i in 0..n {
                for j in 0..n {
                    full[(i, j)] += (alpha * v[i]) * v[j];
                }
            }
        };
        for (p, f) in arena.iter().enumerate() {
            let (w_rhs, alpha, beta) = weights(p, !f.is_affine());
            f.value_grad_buf(&y, &mut probs, &mut grad);
            axpy(-w_rhs, &grad, &mut dy_full);
            for (row, pk) in f.rows().zip(&probs) {
                dense_row.fill(0.0);
                for &(v, e) in row {
                    dense_row[v] = e;
                }
                outer(alpha * pk, &dense_row);
            }
            outer(beta, &grad);
        }
        // Cholesky–Banachiewicz: one entry at a time, row by row.
        for i in 0..n {
            for j in 0..i {
                let sum = dot(&full.row(i)[..j], &full.row(j)[..j]);
                full[(i, j)] = (full[(i, j)] - sum) / full[(j, j)];
            }
            let d = full[(i, i)] - dot(&full.row(i)[..i], &full.row(i)[..i]);
            prop_assert!(d.is_finite() && d > 0.0, "pivot {i} = {d}");
            full[(i, i)] = d.sqrt();
        }
        full.solve_factored(&mut dy_full);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&dy), bits(&dy_full));
    }
}
