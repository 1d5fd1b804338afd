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
/// indexed by item id. A source's true value at a tick is its sample in
/// the tick's row, which the engine plays from the tape.
///
/// Columns:
/// - `last_pushed`: last value the source actually sent upstream;
/// - `installed_dab`: the DAB filter width currently installed at the
///   source (infinite until the coordinator's first DAB message lands).
#[derive(Debug, Clone)]
pub struct ItemTable {
    last_pushed: Vec<f64>,
    installed_dab: Vec<f64>,
}

impl ItemTable {
    /// A table where every item last pushed its initial trace value and
    /// no DAB is installed yet.
    pub fn new(initial: &[f64]) -> Self {
        ItemTable {
            last_pushed: initial.to_vec(),
            installed_dab: vec![f64::INFINITY; initial.len()],
        }
    }

    /// Every source samples its tape row: `escaped` is refilled with the
    /// items `k` whose sample `row[k]` lies outside their installed filter
    /// (`|row[k] - last_pushed| > installed_dab`, false for an infinite
    /// filter), ascending.
    ///
    /// One pass over the three columns with no call and no data-dependent
    /// branch in it: the escapes are compacted by a store and a
    /// conditional bump of the length.
    ///
    /// # Panics
    /// Panics unless `row` holds one sample per item.
    pub fn observe(&self, row: &[f64], escaped: &mut Vec<u32>) {
        let n = self.last_pushed.len();
        assert_eq!(row.len(), n, "one sample per item");
        escaped.clear();
        escaped.resize(n, 0);
        let installed_dab = &self.installed_dab[..n];
        let mut n_escaped = 0;
        for (k, (&v, &last)) in row.iter().zip(&self.last_pushed).enumerate() {
            escaped[n_escaped] = k as u32;
            n_escaped += usize::from((v - last).abs() > installed_dab[k]);
        }
        escaped.truncate(n_escaped);
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
        assert_eq!(t.last_pushed(1), 2.0);
        assert!(t.installed_dab(0).is_infinite());

        t.set_last_pushed(0, 9.0);
        assert_eq!(t.last_pushed(0), 9.0);
        t.set_installed_dab(0, 0.5);
        assert_eq!(t.installed_dab(0), 0.5);
        assert!(t.installed_dab(1).is_infinite());

        // One tick's samples: x0 stays inside its filter, x1 has none,
        // x2 escapes a filter of 0.25 and keeps escaping until it pushes.
        t.set_installed_dab(2, 0.25);
        let mut escaped = vec![7];
        t.observe(&[9.4, 50.0, 3.5], &mut escaped);
        assert_eq!(escaped, [2]);
        t.observe(&[9.4, 50.0, 3.5], &mut escaped);
        assert_eq!(escaped, [2], "still outside until it pushes");
        t.set_last_pushed(2, 3.5);
        t.observe(&[9.6, 50.0, 3.5], &mut escaped);
        assert_eq!(escaped, [0], "9.6 is 0.6 from the 9.0 last pushed");
    }
}
