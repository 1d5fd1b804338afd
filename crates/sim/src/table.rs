//! Structure-of-arrays source-side item state.
//!
//! [`ItemTable`] gathers what the engine keeps per item on the *source*
//! side of the network into one struct of flat columns, so the hot loop
//! (drift sweep, DAB filter) walks contiguous memory and whole columns
//! can be handed to the evaluator as slices. The coordinator's side of
//! every item — its cached value, the filter it last derived — lives in
//! [`pq_core::Coordinator`], as does the item → reader-queries index
//! ([`ReaderIndex`], re-exported here).

pub use pq_core::ReaderIndex;

/// Structure-of-arrays item state: one flat column per attribute,
/// indexed by item id.
///
/// Columns:
/// - `values`: true source value of each item (what the trace drifts;
///   an engine holds only items it watches, so every slot is current);
/// - `last_pushed`: last value the source actually sent upstream;
/// - `installed_dab`: the DAB filter width currently installed at the
///   source (infinite until the coordinator's first DAB message lands).
#[derive(Debug, Clone)]
pub struct ItemTable {
    values: Vec<f64>,
    last_pushed: Vec<f64>,
    installed_dab: Vec<f64>,
}

impl ItemTable {
    /// A table where every item starts at its initial trace value and no
    /// DAB is installed yet.
    pub fn new(initial: &[f64]) -> Self {
        let n = initial.len();
        ItemTable {
            values: initial.to_vec(),
            last_pushed: initial.to_vec(),
            installed_dab: vec![f64::INFINITY; n],
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the table holds no items.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The true source value column.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Every source samples its tape: `row[k]` becomes item `k`'s value.
    /// `escaped` is refilled with the items whose new value lies outside
    /// their installed filter (`|value - last_pushed| > installed_dab`,
    /// false for an infinite filter), ascending. Returns whether any
    /// value moved.
    ///
    /// One pass over the four columns with no call and no data-dependent
    /// branch in it: the escapes are compacted by a store and a
    /// conditional bump of the length.
    ///
    /// # Panics
    /// Panics unless `row` holds one sample per item.
    pub fn observe(&mut self, row: &[f64], escaped: &mut Vec<u32>) -> bool {
        let n = self.values.len();
        assert_eq!(row.len(), n, "one sample per item");
        escaped.clear();
        escaped.resize(n, 0);
        let (last_pushed, installed_dab) = (&self.last_pushed[..n], &self.installed_dab[..n]);
        let mut moved = false;
        let mut n_escaped = 0;
        for (k, (value, &v)) in self.values.iter_mut().zip(row).enumerate() {
            moved |= *value != v;
            *value = v;
            escaped[n_escaped] = k as u32;
            n_escaped += usize::from((v - last_pushed[k]).abs() > installed_dab[k]);
        }
        escaped.truncate(n_escaped);
        moved
    }

    /// The true source value of `item`.
    #[inline]
    pub fn value(&self, item: usize) -> f64 {
        self.values[item]
    }

    /// Overwrites the true source value of `item`.
    #[inline]
    pub fn set_value(&mut self, item: usize, v: f64) {
        self.values[item] = v;
    }

    /// The last value pushed upstream by `item`'s source.
    #[inline]
    pub fn last_pushed(&self, item: usize) -> f64 {
        self.last_pushed[item]
    }

    /// Records that `item`'s source just pushed `v`.
    #[inline]
    pub fn set_last_pushed(&mut self, item: usize, v: f64) {
        self.last_pushed[item] = v;
    }

    /// The DAB currently installed at `item`'s source.
    #[inline]
    pub fn installed_dab(&self, item: usize) -> f64 {
        self.installed_dab[item]
    }

    /// Installs a new DAB at `item`'s source.
    #[inline]
    pub fn set_installed_dab(&mut self, item: usize, dab: f64) {
        self.installed_dab[item] = dab;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_starts_consistent_and_updates_columns() {
        let mut t = ItemTable::new(&[1.0, 2.0, 3.0]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.last_pushed(1), 2.0);
        assert!(t.installed_dab(0).is_infinite());

        t.set_value(0, 9.0);
        t.set_last_pushed(0, 9.0);
        assert_eq!(t.value(0), 9.0);
        assert_eq!(t.last_pushed(0), 9.0);
        t.set_installed_dab(0, 0.5);
        assert_eq!(t.installed_dab(0), 0.5);
        assert!(t.installed_dab(1).is_infinite());

        // One tick's samples: x0 stays inside its filter, x1 has none,
        // x2 escapes a filter of 0.25 and keeps escaping until it pushes.
        t.set_installed_dab(2, 0.25);
        let mut escaped = vec![7];
        assert!(t.observe(&[9.4, 50.0, 3.5], &mut escaped));
        assert_eq!(escaped, [2]);
        assert_eq!(t.values(), &[9.4, 50.0, 3.5]);
        assert!(!t.observe(&[9.4, 50.0, 3.5], &mut escaped), "nothing moved");
        assert_eq!(escaped, [2]);
        t.set_last_pushed(2, 3.5);
        t.observe(&[9.6, 50.0, 3.5], &mut escaped);
        assert_eq!(escaped, [0], "9.6 is 0.6 from the 9.0 last pushed");
    }
}
