//! Partitioning the query↔item bipartite graph into balanced shards.
//!
//! The AAO decomposition (§III) already solves independently per
//! connected unit of the query↔item graph, so connected components are
//! the shard seam: two queries that share no item (directly or
//! transitively) never interact — not through DAB minima, not through
//! refresh processing, not through joint solves. The partitioner
//! computes those components with a union-find over items, estimates
//! each component's refresh/recompute load, and packs whole components
//! onto `k` shards with an LPT (longest-processing-time) greedy bin
//! packing. A component is never split: one whose load alone exceeds a
//! fair share lands whole on one shard, and the imbalance is accepted.
//! Every item a query reads therefore lives on that query's shard, and
//! shards share nothing.
//!
//! Everything here is deterministic: ties break on lowest index, and
//! the plan depends only on the inputs, never on iteration order of a
//! hash map.

/// Inputs to [`partition`]: the bipartite graph plus per-node load
/// estimates. Loads are abstract weights (the simulator passes
/// estimated per-item refresh rates and per-query recompute costs);
/// only their ratios matter.
#[derive(Debug, Clone, Copy)]
pub struct PartitionInput<'a> {
    /// `query_items[q]` lists the items referenced by query `q`
    /// (duplicates allowed; they are ignored).
    pub query_items: &'a [Vec<u32>],
    /// Total number of items (ids in `query_items` must be `< n_items`).
    pub n_items: usize,
    /// Estimated load contributed by each item (e.g. refresh rate).
    pub item_load: &'a [f64],
    /// Estimated load contributed by each query (e.g. recompute cost;
    /// under shared cross-query evaluation, the marginal eval cost from
    /// `pq_poly::shared_query_loads` — distinct monomials a query
    /// introduces plus a small per-subscription scatter charge).
    pub query_load: &'a [f64],
}

/// The output of [`partition`]: a disjoint cover of queries and items
/// by `n_shards` shards, each a set of whole connected components.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Number of shards: always the `k` requested, even when there are
    /// fewer components than shards (a surplus shard holds no query
    /// that reads an item).
    pub n_shards: usize,
    /// Shard of each query.
    pub query_shard: Vec<u32>,
    /// Home shard of each item (items referenced by no query are spread
    /// by load).
    pub item_home: Vec<u32>,
    /// Estimated load packed onto each shard. Sums to the total input
    /// load.
    pub shard_loads: Vec<f64>,
    /// Connected components of the query↔item graph.
    pub n_components: usize,
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Lower root wins: keeps component ids stable and ordered.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Packs the query↔item graph into `k` balanced shards. See the module
/// docs for the algorithm; the invariants (each tested by the
/// partition proptest):
///
/// * every query and every item lands on exactly one shard;
/// * `shard_loads` sums to the total input load;
/// * for every query `q` and item `i ∈ q`, `item_home[i] == query_shard[q]`.
///
/// # Panics
/// Panics if `k == 0`, a load slice length mismatches, or an item id
/// is out of range.
pub fn partition(input: &PartitionInput<'_>, k: usize) -> PartitionPlan {
    assert!(k > 0, "cannot partition into zero shards");
    assert_eq!(input.item_load.len(), input.n_items, "item_load length");
    assert_eq!(
        input.query_load.len(),
        input.query_items.len(),
        "query_load length"
    );
    let n_items = input.n_items;
    let n_queries = input.query_items.len();

    // Connected components over items (via queries).
    let mut uf = UnionFind::new(n_items);
    for items in input.query_items {
        if let Some((&first, rest)) = items.split_first() {
            assert!((first as usize) < n_items, "item {first} out of range");
            for &i in rest {
                assert!((i as usize) < n_items, "item {i} out of range");
                uf.union(first, i);
            }
        }
    }
    // Dense component ids in order of first item appearance.
    let mut comp_of_root: Vec<u32> = vec![u32::MAX; n_items];
    let mut item_comp: Vec<u32> = vec![u32::MAX; n_items];
    let mut n_components = 0u32;
    for i in 0..n_items as u32 {
        let root = uf.find(i);
        if comp_of_root[root as usize] == u32::MAX {
            comp_of_root[root as usize] = n_components;
            n_components += 1;
        }
        item_comp[i as usize] = comp_of_root[root as usize];
    }

    // Component membership and loads. Queries with no items attach to
    // no component; they are placed individually at the end.
    let nc = n_components as usize;
    let mut comp_queries: Vec<Vec<u32>> = vec![Vec::new(); nc];
    let mut comp_items: Vec<Vec<u32>> = vec![Vec::new(); nc];
    let mut comp_load = vec![0.0f64; nc];
    let mut referenced = vec![false; n_items];
    for (qi, items) in input.query_items.iter().enumerate() {
        if let Some(&first) = items.first() {
            let c = item_comp[first as usize] as usize;
            comp_queries[c].push(qi as u32);
            comp_load[c] += input.query_load[qi];
            for &i in items {
                referenced[i as usize] = true;
            }
        }
    }
    for i in 0..n_items {
        if referenced[i] {
            let c = item_comp[i] as usize;
            comp_items[c].push(i as u32);
            comp_load[c] += input.item_load[i];
        }
    }

    let mut query_shard = vec![u32::MAX; n_queries];
    let mut item_home = vec![u32::MAX; n_items];
    let mut shard_loads = vec![0.0f64; k];
    let least_loaded = |loads: &[f64]| -> usize {
        let mut best = 0;
        for (s, &l) in loads.iter().enumerate().skip(1) {
            if l < loads[best] {
                best = s;
            }
        }
        best
    };

    // LPT over whole components: descending load, ties by lowest
    // component id.
    let mut order: Vec<u32> = (0..n_components).collect();
    order.sort_by(|&a, &b| {
        comp_load[b as usize]
            .partial_cmp(&comp_load[a as usize])
            .expect("finite loads")
            .then(a.cmp(&b))
    });
    for &c in &order {
        let c = c as usize;
        if comp_queries[c].is_empty() {
            continue;
        }
        let s = least_loaded(&shard_loads) as u32;
        shard_loads[s as usize] += comp_load[c];
        for &qi in &comp_queries[c] {
            query_shard[qi as usize] = s;
        }
        for &i in &comp_items[c] {
            item_home[i as usize] = s;
        }
    }
    // Itemless queries: cheapest shard each, in query order.
    for (qi, items) in input.query_items.iter().enumerate() {
        if items.is_empty() {
            let s = least_loaded(&shard_loads) as u32;
            shard_loads[s as usize] += input.query_load[qi];
            query_shard[qi] = s;
        }
    }
    // Unreferenced items: spread by load so their drift cost balances.
    for i in 0..n_items {
        if !referenced[i] {
            let s = least_loaded(&shard_loads) as u32;
            shard_loads[s as usize] += input.item_load[i];
            item_home[i] = s;
        }
    }

    PartitionPlan {
        n_shards: k,
        query_shard,
        item_home,
        shard_loads,
        n_components: nc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    /// Checks the plan invariants against its input. The integration
    /// proptest mirrors these checks.
    fn check_invariants(input: &PartitionInput<'_>, plan: &PartitionPlan) {
        let k = plan.n_shards as u32;
        assert_eq!(plan.query_shard.len(), input.query_items.len());
        assert_eq!(plan.item_home.len(), input.n_items);
        for &s in &plan.query_shard {
            assert!(s < k, "query shard {s} out of range");
        }
        for &s in &plan.item_home {
            assert!(s < k, "item home {s} out of range");
        }
        // Every item a query reads lives on the query's shard.
        for (qi, items) in input.query_items.iter().enumerate() {
            for &i in items {
                assert_eq!(
                    plan.item_home[i as usize], plan.query_shard[qi],
                    "item {i} of query {qi} homed elsewhere"
                );
            }
        }
        // Loads sum to the unsharded total.
        let total: f64 = input.item_load.iter().sum::<f64>() + input.query_load.iter().sum::<f64>();
        let packed: f64 = plan.shard_loads.iter().sum();
        assert!(
            (total - packed).abs() <= 1e-9 * (1.0 + total.abs()),
            "load sum {packed} != total {total}"
        );
    }

    #[test]
    fn single_shard_is_trivial() {
        let query_items = vec![vec![0, 1], vec![1, 2], vec![3, 4]];
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 5,
            item_load: &uniform(5),
            query_load: &uniform(3),
        };
        let plan = partition(&input, 1);
        check_invariants(&input, &plan);
        assert!(plan.query_shard.iter().all(|&s| s == 0));
        assert!(plan.item_home.iter().all(|&s| s == 0));
        assert_eq!(plan.n_components, 2); // {0,1,2} and {3,4}
    }

    #[test]
    fn disjoint_components_pack_balanced() {
        // Four independent two-item queries -> 2 shards, two each.
        let query_items = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]];
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 8,
            item_load: &uniform(8),
            query_load: &uniform(4),
        };
        let plan = partition(&input, 2);
        check_invariants(&input, &plan);
        let l0 = plan.shard_loads[0];
        let l1 = plan.shard_loads[1];
        assert!((l0 - l1).abs() <= 1e-9, "balanced: {l0} vs {l1}");
    }

    #[test]
    fn a_giant_chain_packs_whole_onto_one_shard() {
        // A chain q_i = {i, i+1} over 33 items: one component far above
        // any fair share at k = 4, packed whole all the same.
        let query_items: Vec<Vec<u32>> = (0..32u32).map(|i| vec![i, i + 1]).collect();
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 33,
            item_load: &uniform(33),
            query_load: &uniform(32),
        };
        let plan = partition(&input, 4);
        check_invariants(&input, &plan);
        assert_eq!(plan.n_components, 1);
        assert_eq!(plan.n_shards, 4);
        assert!(plan.query_shard.iter().all(|&s| s == plan.query_shard[0]));
        assert_eq!(plan.shard_loads[plan.query_shard[0] as usize], 65.0);
        assert_eq!(plan.shard_loads.iter().filter(|&&l| l == 0.0).count(), 3);
    }

    #[test]
    fn unreferenced_items_and_itemless_queries_are_spread() {
        let query_items = vec![vec![0u32], vec![]];
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 4,
            item_load: &[10.0, 1.0, 1.0, 1.0],
            query_load: &[1.0, 1.0],
        };
        let plan = partition(&input, 2);
        check_invariants(&input, &plan);
        // Items 1..3 are unreferenced but still get homes.
        assert!(plan.item_home.iter().all(|&s| s < 2));
        assert!(plan.query_shard.iter().all(|&s| s < 2));
    }
}
