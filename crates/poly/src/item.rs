//! Data-item identities.
//!
//! A *data item* is a continuously changing scalar served by a source —
//! a stock price, an exchange rate, a sensor coordinate. Items are
//! identified by dense integer ids so that per-item state (current values,
//! DABs, rates of change) can live in flat vectors.

use std::collections::HashMap;

/// Dense identifier of a data item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

impl ItemId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Interning catalog mapping human-readable item names to dense [`ItemId`]s.
#[derive(Debug, Clone, Default)]
pub struct ItemCatalog {
    names: Vec<String>,
    index: HashMap<String, ItemId>,
}

impl ItemCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, creating it on first use.
    pub fn intern(&mut self, name: &str) -> ItemId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = ItemId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing name.
    pub fn get(&self, name: &str) -> Option<ItemId> {
        self.index.get(name).copied()
    }

    /// The name of `id`, if it exists.
    pub fn name(&self, id: ItemId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no items are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ItemId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut c = ItemCatalog::new();
        let a = c.intern("ibm");
        let b = c.intern("msft");
        assert_eq!(c.intern("ibm"), a);
        assert_ne!(a, b);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn name_round_trips() {
        let mut c = ItemCatalog::new();
        let id = c.intern("usd_inr");
        assert_eq!(c.name(id), Some("usd_inr"));
        assert_eq!(c.get("usd_inr"), Some(id));
        assert_eq!(c.get("missing"), None);
        assert_eq!(c.name(ItemId(99)), None);
    }

    #[test]
    fn iter_preserves_id_order() {
        let mut c = ItemCatalog::new();
        c.intern("a");
        c.intern("b");
        let v: Vec<_> = c.iter().collect();
        assert_eq!(v, vec![(ItemId(0), "a"), (ItemId(1), "b")]);
    }
}
