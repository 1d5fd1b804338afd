//! Property tests for the query↔item graph partitioner.
//!
//! The partitioner's contract (DESIGN.md §13): shards form a disjoint
//! cover of queries and items, every item a query reads is homed on that
//! query's shard, and the packed shard loads sum to the unsharded total
//! — for any graph shape (empty queries, unreferenced items, single
//! giant components, duplicate item references) and any shard count.

use proptest::prelude::*;

use pq_core::{partition, PartitionInput};

/// A random bipartite graph: `n_items`, per-query item lists (possibly
/// empty, possibly with duplicates), and positive loads.
#[derive(Debug, Clone)]
struct Graph {
    query_items: Vec<Vec<u32>>,
    n_items: usize,
    item_load: Vec<f64>,
    query_load: Vec<f64>,
}

/// Generates at fixed maximum sizes and folds item ids into `n_items`
/// afterwards (the vendored proptest has no `prop_flat_map` for
/// size-dependent strategies).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..60,
        proptest::collection::vec(proptest::collection::vec(0u32..60, 0..8), 0..40),
        proptest::collection::vec(0.01f64..10.0, 60..=60),
        proptest::collection::vec(0.01f64..10.0, 40..=40),
    )
        .prop_map(|(n_items, raw_items, item_load, query_load)| {
            let query_items: Vec<Vec<u32>> = raw_items
                .into_iter()
                .map(|items| items.into_iter().map(|i| i % n_items as u32).collect())
                .collect();
            let n_queries = query_items.len();
            Graph {
                query_items,
                n_items,
                item_load: item_load[..n_items].to_vec(),
                query_load: query_load[..n_queries].to_vec(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Disjoint cover: every query and item gets exactly one in-range
    /// shard, and every item a query reads is homed on the query's
    /// shard; loads are conserved.
    #[test]
    fn plan_invariants_hold(g in arb_graph(), k in 1usize..9) {
        let input = PartitionInput {
            query_items: &g.query_items,
            n_items: g.n_items,
            item_load: &g.item_load,
            query_load: &g.query_load,
        };
        let plan = partition(&input, k);

        prop_assert_eq!(plan.n_shards, k);
        prop_assert_eq!(plan.query_shard.len(), g.query_items.len());
        prop_assert_eq!(plan.item_home.len(), g.n_items);
        for &s in &plan.query_shard {
            prop_assert!((s as usize) < k);
        }
        for &s in &plan.item_home {
            prop_assert!((s as usize) < k);
        }

        // Components stay whole: no query reads across shards.
        for (qi, items) in g.query_items.iter().enumerate() {
            for &i in items {
                prop_assert_eq!(
                    plan.item_home[i as usize],
                    plan.query_shard[qi],
                    "item {} of query {} homed on another shard", i, qi
                );
            }
        }

        // Load conservation: packed loads sum to the unsharded total.
        let total: f64 =
            g.item_load.iter().sum::<f64>() + g.query_load.iter().sum::<f64>();
        let packed: f64 = plan.shard_loads.iter().sum();
        prop_assert!(
            (total - packed).abs() <= 1e-9 * (1.0 + total.abs()),
            "packed {} != total {}", packed, total
        );
    }

    /// Determinism: the same input always yields the identical plan.
    #[test]
    fn plan_is_deterministic(g in arb_graph(), k in 1usize..9) {
        let input = PartitionInput {
            query_items: &g.query_items,
            n_items: g.n_items,
            item_load: &g.item_load,
            query_load: &g.query_load,
        };
        let a = partition(&input, k);
        let b = partition(&input, k);
        prop_assert_eq!(a.query_shard, b.query_shard);
        prop_assert_eq!(a.item_home, b.item_home);
        prop_assert_eq!(a.shard_loads, b.shard_loads);
    }
}
