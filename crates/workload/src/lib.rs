//! # pq-workload — the paper's query workloads (§V-A)
//!
//! Reimplements the experimental methodology: 100 data items served by 20
//! sources, an 80–20 popularity model (group 1 holds 20 % of the items and
//! receives 80 % of the picks), portfolio PPQs and arbitrage PQs of 12–14
//! items each, weights uniform in `[1, 100]`, and QABs set to 1 % (PPQs) /
//! 2 % (PQs) of the initial query value.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pq_poly::{ItemId, PolynomialQuery};

/// Parameters of the 80–20 query generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Total data items in the universe (the paper uses 100).
    pub n_items: usize,
    /// Fraction of items in the popular group 1 (paper: 0.2).
    pub group1_fraction: f64,
    /// Probability an item pick lands in group 1 (paper: 0.8).
    pub group1_probability: f64,
    /// Product legs per query; 6–7 legs × 2 items ≈ the paper's
    /// 12–14 items per query.
    pub legs: std::ops::RangeInclusive<usize>,
    /// Term weights drawn uniformly from this range (paper: 1–100).
    pub weight_range: std::ops::RangeInclusive<f64>,
    /// QAB as a fraction of the initial query value (PPQ: 0.01).
    pub ppq_qab_fraction: f64,
    /// QAB as a fraction of the initial *sum-of-sides* value for
    /// arbitrage queries (PQ: 0.02).
    pub pq_qab_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n_items: 100,
            group1_fraction: 0.2,
            group1_probability: 0.8,
            legs: 6..=7,
            weight_range: 1.0..=100.0,
            ppq_qab_fraction: 0.01,
            pq_qab_fraction: 0.02,
        }
    }
}

/// Seeded generator of the paper's query workloads.
#[derive(Debug)]
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    rng: StdRng,
}

impl WorkloadGen {
    /// Creates a generator with the paper's defaults.
    pub fn new(seed: u64) -> Self {
        WorkloadGen::with_config(WorkloadConfig::default(), seed)
    }

    /// Creates a generator with explicit parameters.
    pub fn with_config(cfg: WorkloadConfig, seed: u64) -> Self {
        assert!(cfg.n_items >= 4, "need at least 4 items");
        assert!((0.0..1.0).contains(&cfg.group1_fraction) && cfg.group1_fraction > 0.0);
        WorkloadGen {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    fn group1_size(&self) -> usize {
        ((self.cfg.n_items as f64 * self.cfg.group1_fraction) as usize).max(1)
    }

    /// Draws one item under the 80–20 model.
    fn pick_item(&mut self) -> ItemId {
        let g1 = self.group1_size();
        let idx = if self.rng.gen::<f64>() < self.cfg.group1_probability {
            self.rng.gen_range(0..g1)
        } else {
            self.rng.gen_range(g1..self.cfg.n_items)
        };
        ItemId(idx as u32)
    }

    /// Draws a pair of distinct items.
    fn pick_pair(&mut self) -> (ItemId, ItemId) {
        let a = self.pick_item();
        loop {
            let b = self.pick_item();
            if b != a {
                return (a, b);
            }
        }
    }

    fn pick_weight(&mut self) -> f64 {
        self.rng
            .gen_range(*self.cfg.weight_range.start()..=*self.cfg.weight_range.end())
            .round()
    }

    fn pick_legs(&mut self) -> usize {
        self.rng
            .gen_range(*self.cfg.legs.start()..=*self.cfg.legs.end())
    }

    /// Generates `n` global-portfolio PPQs (Query 1(a)):
    /// `sum_i w_i x_a x_b : 1% of initial value`.
    ///
    /// `initial_values` must cover all `n_items` (used to set QABs).
    pub fn portfolio_queries(&mut self, n: usize, initial_values: &[f64]) -> Vec<PolynomialQuery> {
        assert!(initial_values.len() >= self.cfg.n_items);
        (0..n)
            .map(|_| {
                let legs: Vec<(f64, ItemId, ItemId)> = (0..self.pick_legs())
                    .map(|_| {
                        let (a, b) = self.pick_pair();
                        (self.pick_weight(), a, b)
                    })
                    .collect();
                let q = PolynomialQuery::portfolio(legs.iter().copied(), 1.0)
                    .expect("positive weights and bound");
                let initial = q.eval(initial_values);
                let qab = (self.cfg.ppq_qab_fraction * initial.abs()).max(1e-9);
                q.with_qab(qab).expect("positive bound")
            })
            .collect()
    }

    /// Generates `n` arbitrage PQs (Query 1(b)):
    /// `sum_i w_i x_a x_b − sum_j w_j u_a u_b : 2% of initial magnitude`.
    ///
    /// With `independent = true`, the buy and sell sides draw from
    /// disjoint halves of each group (Fig. 8(a)); otherwise both sides use
    /// the full 80–20 model and typically share items (Fig. 8(b)).
    ///
    /// Arbitrage values hover near zero, so the QAB is anchored to the
    /// initial *sum of sides* `P1(V0) + P2(V0)` instead of the near-zero
    /// difference (documented substitution; keeps bounds meaningful).
    pub fn arbitrage_queries(
        &mut self,
        n: usize,
        initial_values: &[f64],
        independent: bool,
    ) -> Vec<PolynomialQuery> {
        assert!(initial_values.len() >= self.cfg.n_items);
        (0..n)
            .map(|_| {
                let side_legs = (self.pick_legs() / 2).max(2);
                let buy: Vec<(f64, ItemId, ItemId)> = (0..side_legs)
                    .map(|_| {
                        let (a, b) = if independent {
                            self.pick_pair_in_half(0)
                        } else {
                            self.pick_pair()
                        };
                        (self.pick_weight(), a, b)
                    })
                    .collect();
                let sell: Vec<(f64, ItemId, ItemId)> = (0..side_legs)
                    .map(|_| {
                        let (a, b) = if independent {
                            self.pick_pair_in_half(1)
                        } else {
                            self.pick_pair()
                        };
                        (self.pick_weight(), a, b)
                    })
                    .collect();
                let q = PolynomialQuery::arbitrage(buy.iter().copied(), sell.iter().copied(), 1.0)
                    .expect("positive weights and bound");
                let (p1, p2) = q.poly().split_pos_neg();
                let magnitude = p1.eval(initial_values) + p2.eval(initial_values);
                let qab = (self.cfg.pq_qab_fraction * magnitude).max(1e-9);
                q.with_qab(qab).expect("positive bound")
            })
            .collect()
    }

    /// Generates `n` portfolio PPQs over **disjoint consecutive item
    /// bands**: query `j` draws its legs only from items
    /// `[j·band, (j+1)·band)` where `band = n_items / n`. Weights, leg
    /// counts and within-band picks still follow the configured
    /// distributions, but no two queries share an item, so the
    /// query↔item graph has `n` connected components — the "large book"
    /// shape (many independent portfolios over one big universe) that
    /// the sharded engine partitions cleanly.
    ///
    /// # Panics
    /// Panics unless each band holds at least 2 items
    /// (`n_items >= 2 * n`).
    pub fn banded_portfolio_queries(
        &mut self,
        n: usize,
        initial_values: &[f64],
    ) -> Vec<PolynomialQuery> {
        assert!(initial_values.len() >= self.cfg.n_items);
        assert!(n > 0, "need at least one query");
        let band = self.cfg.n_items / n;
        assert!(
            band >= 2,
            "banded workload needs >= 2 items per query ({} items / {n} queries)",
            self.cfg.n_items
        );
        (0..n)
            .map(|j| {
                let lo = (j * band) as u32;
                let hi = lo + band as u32;
                let legs: Vec<(f64, ItemId, ItemId)> = (0..self.pick_legs())
                    .map(|_| {
                        let a = ItemId(self.rng.gen_range(lo..hi));
                        let b = loop {
                            let b = ItemId(self.rng.gen_range(lo..hi));
                            if b != a {
                                break b;
                            }
                        };
                        (self.pick_weight(), a, b)
                    })
                    .collect();
                let q = PolynomialQuery::portfolio(legs.iter().copied(), 1.0)
                    .expect("positive weights and bound");
                let initial = q.eval(initial_values);
                let qab = (self.cfg.ppq_qab_fraction * initial.abs()).max(1e-9);
                q.with_qab(qab).expect("positive bound")
            })
            .collect()
    }

    /// Generates `n` portfolio PPQs whose legs draw from a **shared
    /// pool of distinct item pairs**, so the same monomial `x_a·x_b`
    /// recurs across many queries — the workload shape the cross-query
    /// shared-evaluation compiler ([`pq_poly::SharedPlan`]) exploits.
    ///
    /// `overlap` in `[0, 1)` controls how much the book shares: the
    /// pool holds roughly `(1 − overlap) × total legs` distinct pairs,
    /// so at `0.0` most legs introduce fresh monomials while at `0.9`
    /// ten legs compete for every pool slot. Within the pool, draws
    /// follow the configured 80–20 popularity model (the first
    /// `group1_fraction` of the pool receives `group1_probability` of
    /// the picks), weights are fresh per leg, and QABs follow
    /// [`WorkloadGen::portfolio_queries`].
    ///
    /// # Panics
    /// Panics unless `0.0 <= overlap < 1.0`.
    pub fn overlapping_book(
        &mut self,
        n: usize,
        overlap: f64,
        initial_values: &[f64],
    ) -> Vec<PolynomialQuery> {
        assert!(initial_values.len() >= self.cfg.n_items);
        assert!(
            (0.0..1.0).contains(&overlap),
            "overlap factor {overlap} outside [0, 1)"
        );
        let mean_legs = (self.cfg.legs.start() + self.cfg.legs.end()) as f64 / 2.0;
        let max_pairs = self.cfg.n_items * (self.cfg.n_items - 1) / 2;
        let pool_size =
            ((n as f64 * mean_legs * (1.0 - overlap)).ceil() as usize).clamp(1, max_pairs);
        let mut seen = std::collections::HashSet::with_capacity(pool_size);
        let mut pool: Vec<(ItemId, ItemId)> = Vec::with_capacity(pool_size);
        while pool.len() < pool_size {
            let (a, b) = self.pick_pair();
            // x_a·x_b == x_b·x_a: canonicalize so the pool counts
            // distinct monomials, not ordered pairs.
            let pair = if a.0 <= b.0 { (a, b) } else { (b, a) };
            if seen.insert(pair) {
                pool.push(pair);
            }
        }
        let hot = ((pool.len() as f64 * self.cfg.group1_fraction) as usize).max(1);
        (0..n)
            .map(|_| {
                let legs: Vec<(f64, ItemId, ItemId)> = (0..self.pick_legs())
                    .map(|_| {
                        let k = if self.rng.gen::<f64>() < self.cfg.group1_probability {
                            self.rng.gen_range(0..hot)
                        } else {
                            self.rng.gen_range(hot.min(pool.len() - 1)..pool.len())
                        };
                        let (a, b) = pool[k];
                        (self.pick_weight(), a, b)
                    })
                    .collect();
                let q = PolynomialQuery::portfolio(legs.iter().copied(), 1.0)
                    .expect("positive weights and bound");
                let initial = q.eval(initial_values);
                let qab = (self.cfg.ppq_qab_fraction * initial.abs()).max(1e-9);
                q.with_qab(qab).expect("positive bound")
            })
            .collect()
    }

    /// 80–20 pick restricted to one half of each group (`half` 0 or 1),
    /// guaranteeing buy/sell independence.
    fn pick_pair_in_half(&mut self, half: usize) -> (ItemId, ItemId) {
        let g1 = self.group1_size();
        let pick = |rng: &mut StdRng, cfg: &WorkloadConfig| {
            let in_g1 = rng.gen::<f64>() < cfg.group1_probability;
            let (lo, hi) = if in_g1 { (0, g1) } else { (g1, cfg.n_items) };
            let mid = lo + (hi - lo) / 2;
            let (lo, hi) = if half == 0 { (lo, mid) } else { (mid, hi) };
            ItemId(rng.gen_range(lo..hi.max(lo + 1)) as u32)
        };
        let a = pick(&mut self.rng, &self.cfg);
        loop {
            let b = pick(&mut self.rng, &self.cfg);
            if b != a {
                return (a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_poly::QueryClass;

    fn values() -> Vec<f64> {
        (0..100).map(|i| 10.0 + i as f64).collect()
    }

    #[test]
    fn portfolio_queries_match_paper_shape() {
        let mut g = WorkloadGen::new(7);
        let qs = g.portfolio_queries(50, &values());
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert_eq!(q.class(), QueryClass::PositiveCoefficient);
            let n_items = q.items().len();
            // 6-7 legs x 2 items, some overlap allowed.
            assert!((6..=14).contains(&n_items), "items per query {n_items}");
            // QAB is 1% of initial value.
            let initial = q.eval(&values());
            assert!((q.qab() - 0.01 * initial).abs() < 1e-9 * initial);
        }
    }

    #[test]
    fn eighty_twenty_split_is_respected() {
        let mut g = WorkloadGen::new(11);
        let qs = g.portfolio_queries(300, &values());
        let mut g1 = 0usize;
        let mut total = 0usize;
        for q in &qs {
            for t in q.poly().terms() {
                for &(item, _) in t.vars() {
                    total += 1;
                    if item.index() < 20 {
                        g1 += 1;
                    }
                }
            }
        }
        let frac = g1 as f64 / total as f64;
        assert!(
            (frac - 0.8).abs() < 0.05,
            "group-1 fraction {frac} should be ~0.8"
        );
    }

    #[test]
    fn arbitrage_queries_are_general_pqs() {
        let mut g = WorkloadGen::new(13);
        let qs = g.arbitrage_queries(50, &values(), false);
        for q in &qs {
            assert_eq!(q.class(), QueryClass::General);
            let (p1, p2) = q.poly().split_pos_neg();
            assert!(!p1.is_zero() && !p2.is_zero());
            assert!(q.qab() > 0.0);
        }
    }

    #[test]
    fn independent_arbitrage_sides_share_no_items() {
        let mut g = WorkloadGen::new(17);
        let qs = g.arbitrage_queries(100, &values(), true);
        for q in &qs {
            let (p1, p2) = q.poly().split_pos_neg();
            assert!(p1.is_independent_of(&p2), "sides share items in {q}");
        }
    }

    #[test]
    fn dependent_arbitrage_often_shares_items() {
        let mut g = WorkloadGen::new(19);
        let qs = g.arbitrage_queries(100, &values(), false);
        let sharing = qs
            .iter()
            .filter(|q| {
                let (p1, p2) = q.poly().split_pos_neg();
                !p1.is_independent_of(&p2)
            })
            .count();
        assert!(sharing > 30, "only {sharing}/100 queries share items");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = WorkloadGen::new(23).portfolio_queries(10, &values());
        let b = WorkloadGen::new(23).portfolio_queries(10, &values());
        assert_eq!(a, b);
        let c = WorkloadGen::new(24).portfolio_queries(10, &values());
        assert_ne!(a, c);
    }

    #[test]
    fn banded_queries_are_pairwise_disjoint() {
        let mut g = WorkloadGen::with_config(
            WorkloadConfig {
                n_items: 120,
                ..WorkloadConfig::default()
            },
            31,
        );
        let values: Vec<f64> = (0..120).map(|i| 10.0 + i as f64).collect();
        let qs = g.banded_portfolio_queries(10, &values);
        assert_eq!(qs.len(), 10);
        for (j, q) in qs.iter().enumerate() {
            let items = q.items();
            assert!(items.len() >= 2);
            for item in items {
                assert!(
                    (12 * j..12 * (j + 1)).contains(&item.index()),
                    "query {j} escaped its band: item {}",
                    item.index()
                );
            }
            assert!(q.qab() > 0.0);
        }
        // Across queries: no shared items at all.
        let mut all = std::collections::HashSet::new();
        for q in &qs {
            for item in q.items() {
                assert!(all.insert(item.index()), "item shared across bands");
            }
        }
    }

    #[test]
    fn overlapping_book_shares_monomials_by_factor() {
        use pq_poly::SharedPlan;
        let values = values();
        let distinct_at = |overlap: f64| {
            let mut g = WorkloadGen::new(37);
            let qs = g.overlapping_book(200, overlap, &values);
            assert_eq!(qs.len(), 200);
            let total_legs: usize = qs.iter().map(|q| q.poly().terms().len()).sum();
            let plan = SharedPlan::compile(qs.iter().map(|q| q.poly()));
            assert!(plan.n_terms() <= total_legs);
            plan.n_terms()
        };
        let loose = distinct_at(0.0);
        let tight = distinct_at(0.9);
        assert!(
            tight * 3 < loose,
            "overlap 0.9 ({tight} distinct) should share far more than 0.0 ({loose})"
        );
        // At 0.9 the pool is ~10x oversubscribed: the whole 200-query
        // book must fit in a small distinct-monomial set.
        assert!(tight <= 200 * 7 / 10 + 1, "pool leaked: {tight} distinct");
    }

    #[test]
    fn overlapping_book_keeps_portfolio_shape() {
        let mut g = WorkloadGen::new(41);
        let values = values();
        let qs = g.overlapping_book(50, 0.5, &values);
        for q in &qs {
            assert_eq!(q.class(), QueryClass::PositiveCoefficient);
            let initial = q.eval(&values);
            assert!((q.qab() - 0.01 * initial).abs() < 1e-9 * initial);
        }
        // Seed-deterministic like every other generator.
        let a = WorkloadGen::new(43).overlapping_book(10, 0.5, &values);
        let b = WorkloadGen::new(43).overlapping_book(10, 0.5, &values);
        assert_eq!(a, b);
    }

    #[test]
    fn weights_stay_in_range() {
        let mut g = WorkloadGen::new(29);
        for q in g.portfolio_queries(50, &values()) {
            for t in q.poly().terms() {
                assert!((1.0..=100.0).contains(&t.coef()), "weight {}", t.coef());
            }
        }
    }
}
