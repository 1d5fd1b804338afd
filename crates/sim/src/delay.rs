//! Communication and computation delay models.
//!
//! The paper derives node-to-node delays from a heavy-tailed Pareto
//! distribution with a mean of 100–120 ms, and coordinator computational
//! delays likewise (4 ms mean to check a query, 1 ms to push a value to
//! the user; §V-A). The push to the user is not modelled: fidelity is
//! sampled at the coordinator's view. We implement Pareto sampling by
//! inverse CDF — no external distribution crate needed — with a cap to
//! keep the tail from producing pathological multi-minute delays.

/// A bounded Pareto distribution sampled by inverse CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale `x_m` (minimum value), in seconds.
    pub scale: f64,
    /// Shape `alpha`; smaller is heavier-tailed. Must be > 1 for a finite
    /// mean.
    pub shape: f64,
    /// Hard cap on samples, in seconds.
    pub cap: f64,
}

impl Pareto {
    /// A Pareto distribution with the given mean (seconds), using shape
    /// 2.5 (heavy-tailed, finite variance) and a cap at 20x the mean.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean >= 0.0 && mean.is_finite());
        // mean = scale * shape / (shape - 1)  =>  scale = mean (a-1)/a.
        let shape = 2.5;
        Pareto {
            scale: mean * (shape - 1.0) / shape,
            shape,
            cap: 20.0 * mean,
        }
    }

    /// The distribution mean (ignoring the cap).
    pub fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.scale * self.shape / (self.shape - 1.0)
        }
    }

    /// True if every sample is a finite delay of at least 0: `scale` and
    /// `cap` are finite and `>= 0`, `shape` finite and `> 0`.
    pub fn is_valid(&self) -> bool {
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        non_negative(self.scale)
            && non_negative(self.cap)
            && self.shape.is_finite()
            && self.shape > 0.0
    }

    /// True if every sample is exactly 0 (and drawing one consumes no
    /// randomness).
    pub fn is_zero(&self) -> bool {
        self.scale == 0.0
    }

    /// Evaluates the inverse CDF at `u ∈ (0, 1]`: the sample a uniform
    /// draw `u` maps to.
    pub fn sample_u(&self, u: f64) -> f64 {
        if self.scale == 0.0 {
            return 0.0;
        }
        let u = u.max(f64::MIN_POSITIVE);
        (self.scale / u.powf(1.0 / self.shape)).min(self.cap)
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of one `u64`.
fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine's one source of stochastic draws (network delays, service
/// times, message-loss coin flips): a counter-based splitmix64 stream per
/// item, keyed by the item's **global** id. An item's `n`-th draw is a
/// function of `(seed, global id, n)` alone, so it does not depend on
/// which engine holds the item, under what local id, or on what other
/// items do — which is what keeps fixed-seed metrics equal across shard
/// counts and under projection (DESIGN.md §12, §13).
#[derive(Debug)]
pub(crate) struct ItemDraws {
    /// Each local item's stream key: a hash of the seed and its global id.
    keys: Vec<u64>,
    /// Draws taken so far, per local item.
    counters: Vec<u64>,
}

impl ItemDraws {
    /// Streams for local items `0, 1, ..`, whose global ids are `gids` in
    /// that order.
    pub(crate) fn new(seed: u64, gids: impl IntoIterator<Item = usize>) -> Self {
        let keys: Vec<u64> = gids
            .into_iter()
            .map(|gid| splitmix64(seed ^ (gid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        ItemDraws {
            counters: vec![0; keys.len()],
            keys,
        }
    }

    /// Next uniform draw in `[0, 1)` on local `item`'s stream.
    pub(crate) fn uniform(&mut self, item: usize) -> f64 {
        let taken = &mut self.counters[item];
        let x = splitmix64(self.keys[item].wrapping_add(*taken));
        *taken += 1;
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One Pareto draw on `item`'s stream. A zero-scale distribution
    /// consumes no randomness, so a zero delay leaves the stream where it
    /// was: every recorded zero-delay run depends on that.
    pub(crate) fn pareto(&mut self, p: &Pareto, item: usize) -> f64 {
        if p.is_zero() {
            return 0.0;
        }
        p.sample_u(1.0 - self.uniform(item))
    }
}

/// All delays used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayConfig {
    /// Source <-> coordinator network delay.
    pub node_to_node: Pareto,
    /// Coordinator processing time per arriving refresh (query check).
    pub coordinator_check: Pareto,
    /// Coordinator service time per DAB recomputation (the paper's CVXOPT
    /// solves cost 40-70 ms; §V-A). This is what turns recomputation
    /// *counts* into coordinator *load*: while the coordinator is busy
    /// solving, arriving refreshes queue and the cached values go stale.
    pub recompute_service: Pareto,
}

impl DelayConfig {
    /// The paper's PlanetLab-like conditions: ~110 ms node-to-node and
    /// 4 ms query-check means.
    pub fn planetlab_like() -> Self {
        DelayConfig {
            node_to_node: Pareto::with_mean(0.110),
            coordinator_check: Pareto::with_mean(0.004),
            // ~1 ms per solve: a modern reimplementation's cost (our GP
            // solver measures ~0.1-0.3 ms; the paper's CVXOPT took
            // 40-70 ms on 2006 hardware). Chosen so coordinator
            // utilization lands in the same regime as the paper's
            // evaluation: loaded but not saturated under Optimal Refresh.
            recompute_service: Pareto::with_mean(0.001),
        }
    }

    /// An idealized zero-delay network: with it, Condition 1 guarantees
    /// that QABs are met at every instant (fidelity loss must be 0).
    pub fn zero() -> Self {
        let z = Pareto {
            scale: 0.0,
            shape: 2.5,
            cap: 0.0,
        };
        DelayConfig {
            node_to_node: z,
            coordinator_check: z,
            recompute_service: z,
        }
    }

    /// Same shape as [`DelayConfig::planetlab_like`] but with the given
    /// node-to-node mean (seconds) — used for the delay sweep (§V-B.1,
    /// "Effect of Varying Delays").
    pub fn with_node_mean(mean: f64) -> Self {
        DelayConfig {
            node_to_node: Pareto::with_mean(mean),
            ..DelayConfig::planetlab_like()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x1CDE_2008;

    fn first_uniforms(seed: u64, item: usize, n: usize) -> Vec<u64> {
        let mut draws = ItemDraws::new(seed, 0..=item);
        (0..n).map(|_| draws.uniform(item).to_bits()).collect()
    }

    /// The stream is part of every recorded number (`results/`, the
    /// fixed-seed metric tables, pqbench's `total_cost_msgs`): a bit that
    /// moves here moves all of them.
    #[test]
    fn item_stream_golden_bits() {
        assert_eq!(
            first_uniforms(SEED, 0, 4),
            [
                0x3fed_75ec_6b7e_a1b4,
                0x3fef_d851_ab0a_9830,
                0x3fe3_f7dc_8ff3_a388,
                0x3fc5_6fe4_6307_db60
            ]
        );
        assert_eq!(
            first_uniforms(SEED, 7, 4),
            [
                0x3fe7_b093_f84e_28a9,
                0x3fdb_3f88_9dd2_b1e4,
                0x3fe8_0158_3e30_bd97,
                0x3fc1_d2c1_be04_f914
            ]
        );
    }

    /// The stream follows the global id, wherever the item sits locally.
    #[test]
    fn a_stream_is_keyed_by_global_id_not_by_local_position() {
        let mut projected = ItemDraws::new(SEED, [7, 0]);
        let local = |draws: &mut ItemDraws, item| -> Vec<u64> {
            (0..4).map(|_| draws.uniform(item).to_bits()).collect()
        };
        assert_eq!(local(&mut projected, 0), first_uniforms(SEED, 7, 4));
        assert_eq!(local(&mut projected, 1), first_uniforms(SEED, 0, 4));
    }

    /// An item's sequence is a function of `(seed, item, n)`: however the
    /// draws of different items interleave, each item sees the same one.
    #[test]
    fn interleaving_items_leaves_each_sequence_unchanged() {
        let n_items = 5;
        let per_item = 16;
        let alone: Vec<Vec<u64>> = (0..n_items)
            .map(|i| first_uniforms(SEED, i, per_item))
            .collect();
        // Round-robin, item-major reversed, and a fixed irregular order.
        let round_robin: Vec<usize> = (0..per_item).flat_map(|_| 0..n_items).collect();
        let reversed: Vec<usize> = (0..n_items).rev().flat_map(|i| vec![i; per_item]).collect();
        let mut irregular: Vec<usize> = round_robin.clone();
        for k in 0..irregular.len() {
            let j = (splitmix64(k as u64) % irregular.len() as u64) as usize;
            irregular.swap(k, j);
        }
        for order in [round_robin, reversed, irregular] {
            let mut draws = ItemDraws::new(SEED, 0..n_items);
            let mut seen = vec![Vec::new(); n_items];
            for item in order {
                seen[item].push(draws.uniform(item).to_bits());
            }
            assert_eq!(seen, alone);
        }
    }

    #[test]
    fn sample_mean_approximates_target() {
        let p = Pareto::with_mean(0.110);
        let mut draws = ItemDraws::new(1, [0]);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| draws.pareto(&p, 0)).sum();
        let mean = total / n as f64;
        // The cap trims the far tail, so allow ~10%.
        assert!(
            (mean - 0.110).abs() < 0.012,
            "empirical mean {mean} vs 0.110"
        );
    }

    #[test]
    fn samples_respect_scale_and_cap() {
        let p = Pareto::with_mean(0.1);
        let mut draws = ItemDraws::new(2, [0]);
        for _ in 0..10_000 {
            let s = draws.pareto(&p, 0);
            assert!(s >= p.scale && s <= p.cap);
        }
        assert_eq!(p.sample_u(0.0), p.cap);
        assert_eq!(p.sample_u(1.0), p.scale);
    }

    #[test]
    fn zero_config_produces_zero_delays_and_draws_nothing() {
        let d = DelayConfig::zero();
        let mut draws = ItemDraws::new(3, [0]);
        assert_eq!(draws.pareto(&d.node_to_node, 0), 0.0);
        assert_eq!(draws.pareto(&d.coordinator_check, 0), 0.0);
        assert_eq!(draws.pareto(&d.recompute_service, 0), 0.0);
        assert_eq!(draws.counters, [0]);
    }

    #[test]
    fn heavy_tail_is_present() {
        // A heavy-tailed distribution should produce samples well above
        // the mean with non-negligible frequency.
        let p = Pareto::with_mean(0.1);
        let mut draws = ItemDraws::new(4, [0]);
        let big = (0..100_000).filter(|_| draws.pareto(&p, 0) > 0.3).count();
        assert!(big > 100, "only {big} samples above 3x mean");
    }

    #[test]
    fn with_node_mean_scales_only_network_delay() {
        let d = DelayConfig::with_node_mean(0.5);
        assert!((d.node_to_node.mean() - 0.5).abs() < 1e-12);
        assert!((d.coordinator_check.mean() - 0.004).abs() < 1e-12);
    }
}
