//! What a DAB solve allocates, as a test.
//!
//! A counting `#[global_allocator]` (per-thread counters, so the harness
//! running tests side by side does not blur them) measures the solves a
//! coordinator pays for: a Dual-DAB unit's first solve through an empty
//! [`UnitCache`], the warm recompute after it, and the first solve of a
//! unit bound to its shape's template (a follower's, at an install). Each
//! builds or binds the unit's program, compiled GP and start in this
//! thread's scratch, so what they allocate is what a unit keeps or a
//! solve returns: the assignment's columns and the solution. DESIGN.md
//! §10 has the table these ceilings guard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pq_core::coordinator::{Config, Coordinator, Scope};
use pq_core::{
    assign_unit_cached, assignment_units, dab_solver_options, AssignmentStrategy, AssignmentUnit,
    PqHeuristic, SolveContext, UnitCache, ValidityRange,
};
use pq_ddm::DataDynamicsModel;
use pq_gp::{CompiledGp, GpProblem, Monomial, Posynomial};
use pq_obs::Obs;
use pq_poly::{ItemId, PolynomialQuery};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching
// it neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

const ITEMS: u32 = 100;
const UNITS: usize = 40;

fn lcg(state: &mut u64) -> u32 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    (*state >> 33) as u32
}

/// `UNITS` portfolio queries of `legs` two-item products each, QAB 1 % of
/// the value. `pool = None` draws every leg's pair afresh (the paper's
/// fig5 book); `Some(k)` draws legs from `k` fixed pairs, so queries share
/// most of their terms (the overlap book).
fn book(
    legs: std::ops::RangeInclusive<u32>,
    pool: Option<u32>,
    values: &[f64],
) -> Vec<PolynomialQuery> {
    let mut state = 0x1CDE_2008_u64;
    let pair = |state: &mut u64| {
        let a = lcg(state) % ITEMS;
        let b = (a + 1 + lcg(state) % (ITEMS - 1)) % ITEMS;
        (ItemId(a.min(b)), ItemId(a.max(b)))
    };
    let pairs: Vec<_> = (0..pool.unwrap_or(0)).map(|_| pair(&mut state)).collect();
    (0..UNITS)
        .map(|_| {
            let n = legs.start() + lcg(&mut state) % (legs.end() - legs.start() + 1);
            let legs = (0..n).map(|_| {
                let (a, b) = match pool {
                    Some(k) => pairs[(lcg(&mut state) % k) as usize],
                    None => pair(&mut state),
                };
                (1.0 + f64::from(lcg(&mut state) % 8), a, b)
            });
            let query = PolynomialQuery::portfolio(legs, 1.0).unwrap();
            let qab = 0.01 * query.eval(values);
            query.with_qab(qab).unwrap()
        })
        .collect()
}

/// Mean allocations per unit of a first solve and of a warm recompute at
/// drifted values, over `queries`.
fn per_unit(queries: &[PolynomialQuery], values: &[f64], rates: &[f64]) -> (f64, f64) {
    let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
    let units: Vec<AssignmentUnit> = queries
        .iter()
        .flat_map(|q| assignment_units(q, strategy, PqHeuristic::DifferentSum))
        .collect();
    let drifted: Vec<f64> = values.iter().map(|v| v * 1.003).collect();
    let mut caches: Vec<UnitCache> = units.iter().map(|_| UnitCache::new()).collect();
    let installed = SolveContext::new(values, rates);
    let moved = SolveContext::new(&drifted, rates);
    // One throw-away solve grows this thread's solver and start scratch.
    assign_unit_cached(&units[0], &installed, strategy, &mut UnitCache::new()).unwrap();

    let mut solve_all = |ctx: &SolveContext<'_>| {
        let (n, ()) = allocations_in(|| {
            for (unit, cache) in units.iter().zip(&mut caches) {
                assign_unit_cached(unit, ctx, strategy, cache).unwrap();
            }
        });
        n as f64 / units.len() as f64
    };
    let first = solve_all(&installed);
    let warm = solve_all(&moved);
    assert!((units.iter().zip(&caches)).all(|(u, c)| c.columns().items() == &u.items()[..]));
    (first, warm)
}

/// Mean allocations per unit of a first solve bound to its shape's
/// template, over the units of `queries` a coordinator installed bound:
/// each solved through a copy of its cache from before its first solve.
fn per_follower(queries: &[PolynomialQuery], values: &[f64], rates: &[f64]) -> f64 {
    let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
    let heuristic = PqHeuristic::DifferentSum;
    let cfg = Config {
        rates: rates.to_vec(),
        ddm: DataDynamicsModel::Monotonic,
        gp: dab_solver_options(),
        obs: Obs::null(),
        scope: Scope::default(),
    };
    let core = Coordinator::install(queries, strategy, heuristic, values.to_vec(), cfg).unwrap();
    let mut bound: Vec<(AssignmentUnit, UnitCache)> = (queries.iter().enumerate())
        .flat_map(|(q, query)| {
            let units = assignment_units(query, strategy, heuristic)
                .into_iter()
                .enumerate();
            let core = &core;
            units.map(move |(u, unit)| (unit, core.unit_cache(q, u)))
        })
        .filter(|(_, cache)| cache.is_bound())
        .map(|(unit, cache)| (unit, cache.unsolved()))
        .collect();
    assert!(bound.len() > queries.len() / 2, "most units are bound");
    let ctx = SolveContext::new(values, rates);
    // One throw-away solve grows this thread's bound scratch.
    let (unit, cache) = &bound[0];
    assign_unit_cached(unit, &ctx, strategy, &mut cache.unsolved()).unwrap();
    let (n, ()) = allocations_in(|| {
        for (unit, cache) in &mut bound {
            assign_unit_cached(unit, &ctx, strategy, cache).unwrap();
        }
    });
    n as f64 / bound.len() as f64
}

fn values_and_rates() -> (Vec<f64>, Vec<f64>) {
    let mut state = 0xB00C_u64;
    let values = (0..ITEMS).map(|_| 10.0 + f64::from(lcg(&mut state) % 900) / 10.0);
    let values: Vec<f64> = values.collect();
    let rates = (0..ITEMS).map(|_| 0.01 + f64::from(lcg(&mut state) % 100) / 200.0);
    (values, rates.collect())
}

#[test]
fn a_first_solve_and_a_warm_recompute_stay_within_their_allocation_budgets() {
    let (values, rates) = values_and_rates();
    // Each ceiling is what the book reads plus one: 3.0 / 2.0 on a first
    // solve, 1.0 / 1.0 on a warm recompute. A first solve allocates the
    // solution and the columns, a warm recompute only the solution; the
    // fig5-style book's third is this thread's scratch growing to its
    // larger units (39 allocations over its 40 first solves, 33 at its
    // first 13-item unit). While each unit kept its program and compiled
    // GP the books read 13.6 and 13.0 on a first solve (the deviation
    // map's four arrays and three vectors, the arena's four); before the
    // compiled GP became one arena, 141.7 and 90.3; before solves wrote
    // columns, 36.9 and 30.9, and 19.6 and 15.2 on a warm recompute,
    // which built three maps per assignment.
    // A bound unit's first solve reads 2.0 on both books, the solution
    // and the columns: binding writes the template's coefficients into
    // this thread's arena, so it allocates no program.
    let books = [
        ("fig5-style", book(6..=7, None, &values), 4.0, 2.0, 3.0),
        (
            "overlap-style",
            book(3..=4, Some(12), &values),
            3.0,
            2.0,
            3.0,
        ),
    ];
    for (name, queries, first_ceiling, warm_ceiling, bound_ceiling) in &books {
        let (first, warm) = per_unit(queries, &values, &rates);
        println!("{name}: first solve {first:.1}, warm recompute {warm:.1} allocations per unit");
        let follower = per_follower(queries, &values, &rates);
        println!("{name}: a bound unit's first solve {follower:.1} allocations per unit");
        assert!(
            first <= *first_ceiling,
            "{name}: a first solve allocates {first:.1} times per unit"
        );
        assert!(
            warm <= *warm_ceiling,
            "{name}: a warm recompute allocates {warm:.1} times per unit"
        );
        assert!(
            follower <= *bound_ceiling,
            "{name}: a bound unit's first solve allocates {follower:.1} times per unit"
        );
    }
}

/// A Dual-DAB-shaped program over `k` items — objective, a `3k`-term
/// condition and the `2k` one-term coupling rows — compiles into four
/// arrays however many posynomials it has.
#[test]
fn a_compiled_program_is_four_allocations() {
    let k = 7;
    let mono = |c: f64, e: &[(usize, f64)]| Monomial::new(c, e.iter().copied()).unwrap();
    let mut problem = GpProblem::new(2 * k + 1);
    let mut objective = Posynomial::zero();
    let mut condition = Posynomial::zero();
    for i in 0..k {
        objective.push(mono(1.0 + i as f64, &[(i, -1.0)]));
        condition.push(mono(2.0, &[(i, 1.0)]));
        condition.push(mono(0.5, &[(i, 1.0), (k + i, 1.0)]));
        condition.push(mono(0.25, &[(i, 2.0)]));
    }
    objective.push(mono(5.0, &[(2 * k, 1.0)]));
    problem.set_objective(objective).unwrap();
    problem.add_constraint_le(condition, 10.0).unwrap();
    for i in 0..k {
        problem.add_var_le_var(i, k + i).unwrap();
        let escape = mono(0.3, &[(k + i, -1.0), (2 * k, -1.0)]);
        problem
            .add_constraint(Posynomial::monomial(escape))
            .unwrap();
    }
    let (n, compiled) = allocations_in(|| CompiledGp::compile(&problem).unwrap());
    assert_eq!(compiled.n_constraints(), 1 + 2 * k);
    assert!(n <= 4, "compiling allocated {n} times");
}

/// A refresh that only re-anchors — the common path of a stale Dual-DAB
/// unit — allocates what its [`pq_core::coordinator::Outcome`] returns
/// and the stale list, not a solve's worth. `x0 x1 : 5` at `(2, 2)` holds
/// `b ≈ 0.518`, `c ≈ 2.566` on both items: `x0 → 4.7` re-anchors at
/// `t = ¼`, then `x0 → 5.96` at the floor, where the box is `b` itself.
#[test]
fn a_refresh_that_only_re_anchors_stays_within_its_allocation_budget() {
    let q = PolynomialQuery::portfolio([(1.0, ItemId(0), ItemId(1))], 5.0).unwrap();
    let cfg = Config {
        rates: vec![1.0; 2],
        ddm: DataDynamicsModel::Monotonic,
        gp: dab_solver_options(),
        obs: Obs::null(),
        scope: Scope::default(),
    };
    let strategy = AssignmentStrategy::DualDab { mu: 5.0 };
    let book = std::slice::from_ref(&q);
    let mut c =
        Coordinator::install(book, strategy, PqHeuristic::DifferentSum, vec![2.0; 2], cfg).unwrap();
    // Each ceiling is the call's reading plus one: 3 (the stale list,
    // the notification and the re-anchored query), then 2 (the query
    // moved less than its QAB since it was last notified).
    for (value, floor, ceiling) in [(4.7, false, 4), (5.96, true, 3)] {
        let (n, out) = allocations_in(|| c.on_refresh(0, value).unwrap());
        assert!(
            out.reanchored.len() == 1 && out.recomputed.is_empty(),
            "{out:?}"
        );
        let a = c.assignment(0, 0);
        let ValidityRange::Box(secondary) = &a.validity else {
            panic!("a re-anchored unit keeps its box")
        };
        assert_eq!(
            secondary.values().eq(a.primary.values()),
            floor,
            "x0 = {value}"
        );
        println!("re-anchor at x0 = {value}: {n} allocations");
        assert!(
            n <= ceiling,
            "a re-anchor at x0 = {value} allocated {n} times"
        );
    }
}
