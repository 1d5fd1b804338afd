//! Partitioning the query↔item bipartite graph into balanced shards.
//!
//! The AAO decomposition (§III) already solves independently per
//! connected unit of the query↔item graph, so connected components are
//! a natural shard seam: two queries that share no item (directly or
//! transitively) never interact — not through DAB minima, not through
//! refresh processing, not through joint solves. The partitioner
//! computes those components with a union-find over items, estimates
//! each component's refresh/recompute load, and packs whole components
//! onto `k` shards with an LPT (longest-processing-time) greedy bin
//! packing.
//!
//! A component whose load alone exceeds its fair share cannot be
//! packed whole without starving the other shards; such components are
//! split with a min-cut-style region-growing heuristic: queries are
//! peeled off greedily in order of shared-item affinity with the piece
//! grown so far, which keeps strongly coupled queries together and
//! pushes the cut through weakly shared items. Each item referenced
//! from more than one shard keeps a **home** shard (where its source
//! lives) and the remaining references become **cross edges** the
//! engine routes over inter-shard rings.
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

/// One item referenced by queries outside its home shard. The home
/// shard owns the source (drifts the value, applies the installed
/// filter) and forwards accepted refreshes to each remote shard; remote
/// shards ship their local DAB minima back so the home's installed
/// filter stays the global minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossEdge {
    /// Global item id.
    pub item: u32,
    /// Shard owning the item's source.
    pub home: u32,
    /// A shard with at least one query referencing the item. Never
    /// equal to `home`; each `(item, remote)` pair appears exactly once.
    pub remote: u32,
}

/// The output of [`partition`]: a disjoint cover of queries and items
/// by `n_shards` shards, plus the cross edges of split components.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Number of shards (the `k` requested, possibly reduced when there
    /// is less work than shards — always at least 1).
    pub n_shards: usize,
    /// Shard of each query.
    pub query_shard: Vec<u32>,
    /// Home shard of each item (items referenced by no query are spread
    /// by load).
    pub item_home: Vec<u32>,
    /// Estimated load packed onto each shard. Sums to the total input
    /// load (cross edges do not double-count: an item's load stays with
    /// its home).
    pub shard_loads: Vec<f64>,
    /// Every `(item, home, remote)` reference crossing a shard
    /// boundary, each pair accounted exactly once, sorted by
    /// `(item, remote)`.
    pub cross_edges: Vec<CrossEdge>,
    /// Connected components found before any splitting.
    pub n_components: usize,
}

impl PartitionPlan {
    /// True when no component had to be split — every shard is fully
    /// independent and the engine needs no inter-shard rings.
    pub fn is_clean(&self) -> bool {
        self.cross_edges.is_empty()
    }

    /// The remote shards referencing each item (grouped view of
    /// [`PartitionPlan::cross_edges`]): `(item, remotes)` sorted by
    /// item, remotes sorted ascending.
    pub fn subscribers(&self) -> Vec<(u32, Vec<u32>)> {
        let mut out: Vec<(u32, Vec<u32>)> = Vec::new();
        for e in &self.cross_edges {
            match out.last_mut() {
                Some((item, remotes)) if *item == e.item => remotes.push(e.remote),
                _ => out.push((e.item, vec![e.remote])),
            }
        }
        out
    }
}

/// A component packed whole may exceed the ideal share (`total / k`) by
/// this factor before [`partition`] splits it. Splitting buys balance
/// but costs ring traffic, so mild imbalance is preferred to a cut.
const SPLIT_SLACK: f64 = 1.25;

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
/// * for every query `q` and item `i ∈ q`: either
///   `item_home[i] == query_shard[q]`, or `cross_edges` contains
///   `(i, item_home[i], query_shard[q])` exactly once;
/// * with `k == 1` there are no cross edges.
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

    let total_load: f64 = comp_load.iter().sum::<f64>()
        + (0..n_items)
            .filter(|&i| !referenced[i])
            .map(|i| input.item_load[i])
            .sum::<f64>()
        + input
            .query_items
            .iter()
            .enumerate()
            .filter(|(_, items)| items.is_empty())
            .map(|(qi, _)| input.query_load[qi])
            .sum::<f64>();
    let threshold = total_load / k as f64 * SPLIT_SLACK;

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

    // LPT over whole components that fit; oversized ones split first.
    // Order: descending load, ties by lowest component id.
    let mut order: Vec<u32> = (0..n_components).collect();
    order.sort_by(|&a, &b| {
        comp_load[b as usize]
            .partial_cmp(&comp_load[a as usize])
            .expect("finite loads")
            .then(a.cmp(&b))
    });
    let mut cross_pairs: Vec<(u32, u32)> = Vec::new(); // (item, remote shard)
    for &c in &order {
        let c = c as usize;
        if comp_queries[c].is_empty() {
            continue;
        }
        if k > 1 && comp_load[c] > threshold {
            split_component(
                input,
                &comp_queries[c],
                comp_load[c],
                &mut query_shard,
                &mut item_home,
                &mut shard_loads,
                &mut cross_pairs,
                threshold,
            );
        } else {
            let s = least_loaded(&shard_loads) as u32;
            shard_loads[s as usize] += comp_load[c];
            for &qi in &comp_queries[c] {
                query_shard[qi as usize] = s;
            }
            for &i in &comp_items[c] {
                item_home[i as usize] = s;
            }
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

    cross_pairs.sort_unstable();
    cross_pairs.dedup();
    let cross_edges = cross_pairs
        .into_iter()
        .map(|(item, remote)| CrossEdge {
            item,
            home: item_home[item as usize],
            remote,
        })
        .collect();

    PartitionPlan {
        n_shards: k,
        query_shard,
        item_home,
        shard_loads,
        cross_edges,
        n_components: nc,
    }
}

/// Splits one oversized component across shards by greedy region
/// growing. Pieces are grown query by query: the next query added is
/// the unplaced one sharing the most items with the piece so far
/// (lowest query id on ties) — a local min-cut heuristic that keeps
/// densely coupled queries on one side of the cut. A piece closes when
/// its load reaches the component's fair share; each piece then lands
/// on the currently least-loaded shard. Items are homed on the shard
/// of the first piece that references them; every later reference from
/// a different shard becomes a cross pair.
#[allow(clippy::too_many_arguments)]
fn split_component(
    input: &PartitionInput<'_>,
    queries: &[u32],
    comp_load: f64,
    query_shard: &mut [u32],
    item_home: &mut [u32],
    shard_loads: &mut [f64],
    cross_pairs: &mut Vec<(u32, u32)>,
    threshold: f64,
) {
    // Fair share per piece; the last piece absorbs the remainder.
    let n_pieces = (comp_load / threshold).ceil().max(2.0) as usize;
    let piece_target = comp_load / n_pieces as f64;

    let mut item_first_shard: std::collections::HashMap<u32, u32> =
        std::collections::HashMap::new();
    let mut remaining: Vec<u32> = queries.to_vec();
    while !remaining.is_empty() {
        // Open a new piece on the least-loaded shard.
        let shard = {
            let mut best = 0usize;
            for (s, &l) in shard_loads.iter().enumerate().skip(1) {
                if l < shard_loads[best] {
                    best = s;
                }
            }
            best as u32
        };
        let mut piece_load = 0.0f64;
        let mut piece_items: std::collections::HashSet<u32> = std::collections::HashSet::new();
        // Seed: the unplaced query with the highest total load (it
        // anchors the region; ties to lowest id).
        let mut seed_idx = 0usize;
        let mut seed_load = f64::NEG_INFINITY;
        for (idx, &qi) in remaining.iter().enumerate() {
            let l = input.query_load[qi as usize];
            if l > seed_load {
                seed_load = l;
                seed_idx = idx;
            }
        }
        let mut next = Some(seed_idx);
        while let Some(idx) = next {
            let qi = remaining.swap_remove(idx);
            remaining.sort_unstable(); // keep deterministic order after swap_remove
            query_shard[qi as usize] = shard;
            piece_load += input.query_load[qi as usize];
            for &i in &input.query_items[qi as usize] {
                if piece_items.insert(i) {
                    match item_first_shard.entry(i) {
                        std::collections::hash_map::Entry::Vacant(v) => {
                            // First reference anywhere: this shard is home
                            // and carries the item's load.
                            v.insert(shard);
                            item_home[i as usize] = shard;
                            piece_load += input.item_load[i as usize];
                        }
                        std::collections::hash_map::Entry::Occupied(o) => {
                            let home = *o.get();
                            if home != shard {
                                cross_pairs.push((i, shard));
                            }
                        }
                    }
                }
            }
            if piece_load >= piece_target || remaining.is_empty() {
                next = None;
            } else {
                // Affinity: most shared items with the piece; ties to
                // lowest query id (remaining is sorted, so the first
                // max wins).
                let mut best_idx = 0usize;
                let mut best_aff = -1i64;
                for (jdx, &cand) in remaining.iter().enumerate() {
                    let aff = input.query_items[cand as usize]
                        .iter()
                        .filter(|i| piece_items.contains(i))
                        .count() as i64;
                    if aff > best_aff {
                        best_aff = aff;
                        best_idx = jdx;
                    }
                }
                next = Some(best_idx);
            }
        }
        shard_loads[shard as usize] += piece_load;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    /// Checks the plan invariants against its input; returns cross-edge
    /// count. The integration proptest mirrors these checks.
    fn check_invariants(input: &PartitionInput<'_>, plan: &PartitionPlan) -> usize {
        let k = plan.n_shards as u32;
        assert_eq!(plan.query_shard.len(), input.query_items.len());
        assert_eq!(plan.item_home.len(), input.n_items);
        for &s in &plan.query_shard {
            assert!(s < k, "query shard {s} out of range");
        }
        for &s in &plan.item_home {
            assert!(s < k, "item home {s} out of range");
        }
        // Every cross-shard reference accounted exactly once.
        let mut expected: Vec<(u32, u32)> = Vec::new();
        for (qi, items) in input.query_items.iter().enumerate() {
            let qs = plan.query_shard[qi];
            for &i in items {
                let home = plan.item_home[i as usize];
                if home != qs {
                    expected.push((i, qs));
                }
            }
        }
        expected.sort_unstable();
        expected.dedup();
        let actual: Vec<(u32, u32)> = plan
            .cross_edges
            .iter()
            .map(|e| (e.item, e.remote))
            .collect();
        assert_eq!(actual, expected, "cross edges must match references");
        for e in &plan.cross_edges {
            assert_eq!(e.home, plan.item_home[e.item as usize]);
            assert_ne!(e.home, e.remote);
        }
        // Loads sum to the unsharded total.
        let total: f64 = input.item_load.iter().sum::<f64>() + input.query_load.iter().sum::<f64>();
        let packed: f64 = plan.shard_loads.iter().sum();
        assert!(
            (total - packed).abs() <= 1e-9 * (1.0 + total.abs()),
            "load sum {packed} != total {total}"
        );
        plan.cross_edges.len()
    }

    #[test]
    fn single_shard_is_trivial_and_clean() {
        let query_items = vec![vec![0, 1], vec![1, 2], vec![3, 4]];
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 5,
            item_load: &uniform(5),
            query_load: &uniform(3),
        };
        let plan = partition(&input, 1);
        check_invariants(&input, &plan);
        assert!(plan.is_clean());
        assert!(plan.query_shard.iter().all(|&s| s == 0));
        assert!(plan.item_home.iter().all(|&s| s == 0));
        assert_eq!(plan.n_components, 2); // {0,1,2} and {3,4}
    }

    #[test]
    fn disjoint_components_pack_without_cross_edges() {
        // Four independent two-item queries -> 2 shards, clean split.
        let query_items = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]];
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 8,
            item_load: &uniform(8),
            query_load: &uniform(4),
        };
        let plan = partition(&input, 2);
        check_invariants(&input, &plan);
        assert!(plan.is_clean());
        let l0 = plan.shard_loads[0];
        let l1 = plan.shard_loads[1];
        assert!((l0 - l1).abs() <= 1e-9, "balanced: {l0} vs {l1}");
        // Items follow their query's shard.
        for (qi, items) in query_items.iter().enumerate() {
            for &i in items {
                assert_eq!(plan.item_home[i as usize], plan.query_shard[qi]);
            }
        }
    }

    #[test]
    fn one_giant_component_splits_with_cross_edges() {
        // A chain q_i = {i, i+1} over 33 items: one component far above
        // any fair share at k = 4 -> must split, and the chain structure
        // means each cut costs exactly one shared item.
        let query_items: Vec<Vec<u32>> = (0..32u32).map(|i| vec![i, i + 1]).collect();
        let input = PartitionInput {
            query_items: &query_items,
            n_items: 33,
            item_load: &uniform(33),
            query_load: &uniform(32),
        };
        let plan = partition(&input, 4);
        check_invariants(&input, &plan);
        assert!(!plan.is_clean(), "a giant chain must split");
        let shards_used: std::collections::HashSet<u32> =
            plan.query_shard.iter().copied().collect();
        assert!(shards_used.len() >= 2, "split must use multiple shards");
        // Region growing over a chain keeps cuts rare: far fewer cross
        // edges than references.
        assert!(
            plan.cross_edges.len() < 16,
            "chain cut too wide: {} cross edges",
            plan.cross_edges.len()
        );
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

    #[test]
    fn subscribers_group_cross_edges_by_item() {
        let plan = PartitionPlan {
            n_shards: 3,
            query_shard: vec![],
            item_home: vec![0, 0],
            shard_loads: vec![0.0; 3],
            cross_edges: vec![
                CrossEdge {
                    item: 0,
                    home: 0,
                    remote: 1,
                },
                CrossEdge {
                    item: 0,
                    home: 0,
                    remote: 2,
                },
                CrossEdge {
                    item: 1,
                    home: 0,
                    remote: 2,
                },
            ],
            n_components: 1,
        };
        assert_eq!(plan.subscribers(), vec![(0, vec![1, 2]), (1, vec![2])]);
    }
}
