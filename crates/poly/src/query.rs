//! Polynomial continuous queries with accuracy bounds.
//!
//! A query `Q = P : B` pairs a polynomial body with a Query Accuracy Bound
//! (QAB): the user tolerates `|V(C,Q) - V(S,Q)| <= B` at all times (§I).

use std::sync::{Arc, OnceLock};

use crate::constraint::coupled_items;
use crate::error::PolyError;
use crate::item::ItemId;
use crate::polynomial::{PTerm, Polynomial};

/// Dense identifier of a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// The paper's query taxonomy (§I-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Degree <= 1: Linear Aggregate Query. Admits closed-form DABs.
    LinearAggregate,
    /// Degree > 1, all coefficients positive: PPQ. Admits the optimal GP
    /// formulations of §III-A.
    PositiveCoefficient,
    /// Degree > 1 with mixed-sign coefficients: general PQ. Handled by the
    /// Half-and-Half / Different-Sum heuristics of §III-B.
    General,
}

/// A continuous polynomial query `P : B`.
///
/// The body, and the item lists derived from it on first use, are shared
/// (behind `Arc`s) by every clone of the query and every assignment unit
/// and program built from it: each is computed once per query.
#[derive(Debug, Clone)]
pub struct PolynomialQuery {
    poly: Arc<Polynomial>,
    qab: f64,
    lists: Arc<OnceLock<ItemLists>>,
}

/// A body's item lists.
#[derive(Debug)]
struct ItemLists {
    /// The distinct items, ascending.
    items: Arc<[ItemId]>,
    /// The items whose value the deviation depends on
    /// ([`coupled_items`]), ascending.
    coupled: Arc<[ItemId]>,
}

/// Two queries are equal when their bodies and bounds are: the item
/// lists follow from the body.
impl PartialEq for PolynomialQuery {
    fn eq(&self, other: &Self) -> bool {
        self.poly == other.poly && self.qab == other.qab
    }
}

impl PolynomialQuery {
    /// Creates a query with accuracy bound `qab > 0`.
    pub fn new(poly: Polynomial, qab: f64) -> Result<Self, PolyError> {
        Self::shared(Arc::new(poly), qab)
    }

    /// [`PolynomialQuery::new`] over a body that is already shared.
    pub fn shared(poly: Arc<Polynomial>, qab: f64) -> Result<Self, PolyError> {
        if poly.is_zero() {
            return Err(PolyError::EmptyPolynomial);
        }
        if !(qab.is_finite() && qab > 0.0) {
            return Err(PolyError::InvalidBound(qab));
        }
        Ok(Self::unchecked(poly, qab))
    }

    /// The query `poly : qab`, unchecked.
    fn unchecked(poly: Arc<Polynomial>, qab: f64) -> Self {
        PolynomialQuery {
            poly,
            qab,
            lists: Arc::default(),
        }
    }

    /// The body's item lists, derived on the first call.
    fn lists(&self) -> &ItemLists {
        self.lists.get_or_init(|| ItemLists {
            items: self.poly.items().into(),
            coupled: coupled_items(&self.poly).into(),
        })
    }

    /// The polynomial body.
    #[inline]
    pub fn poly(&self) -> &Polynomial {
        &self.poly
    }

    /// The polynomial body, shared.
    #[inline]
    pub fn shared_poly(&self) -> &Arc<Polynomial> {
        &self.poly
    }

    /// The query accuracy bound `B`.
    #[inline]
    pub fn qab(&self) -> f64 {
        self.qab
    }

    /// Classifies the query per §I-A.
    pub fn class(&self) -> QueryClass {
        if self.poly.is_linear() {
            QueryClass::LinearAggregate
        } else if self.poly.is_positive_coefficient() {
            QueryClass::PositiveCoefficient
        } else {
            QueryClass::General
        }
    }

    /// Items referenced by the query, ascending.
    pub fn items(&self) -> &[ItemId] {
        &self.lists().items
    }

    /// [`PolynomialQuery::items`], shared.
    pub fn shared_items(&self) -> &Arc<[ItemId]> {
        &self.lists().items
    }

    /// The items whose reference value the deviation of the body depends
    /// on ([`coupled_items`]), ascending, shared.
    pub fn coupled_items(&self) -> &Arc<[ItemId]> {
        &self.lists().coupled
    }

    /// Evaluates the query body at `values`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.poly.eval(values)
    }

    /// Returns a copy with the QAB replaced (used when deriving e.g. the
    /// `B/2` sub-queries of Half-and-Half).
    pub fn with_qab(&self, qab: f64) -> Result<Self, PolyError> {
        if !(qab.is_finite() && qab > 0.0) {
            return Err(PolyError::InvalidBound(qab));
        }
        Ok(PolynomialQuery {
            qab,
            ..self.clone()
        })
    }

    /// The same query over a renamed item space (QAB unchanged); see
    /// [`Polynomial::map_items`]. `f` must be injective on the query's
    /// items.
    pub fn map_items(&self, f: impl FnMut(ItemId) -> ItemId) -> Self {
        Self::unchecked(Arc::new(self.poly.map_items(f)), self.qab)
    }

    /// A *global portfolio query* (Query 1(a) in the paper):
    /// `sum_i w_i * x_i * y_i : B`, e.g. holdings × price × exchange rate.
    pub fn portfolio(
        legs: impl IntoIterator<Item = (f64, ItemId, ItemId)>,
        qab: f64,
    ) -> Result<Self, PolyError> {
        let mut terms = Vec::new();
        for (w, a, b) in legs {
            terms.push(PTerm::new(w, [(a, 1), (b, 1)])?);
        }
        PolynomialQuery::new(Polynomial::from_terms(terms), qab)
    }

    /// An *arbitrage query* (Query 1(b)): buy-side minus sell-side products,
    /// `sum_i w_i x_i y_i - sum_j w'_j u_j v_j : B`.
    pub fn arbitrage(
        buy: impl IntoIterator<Item = (f64, ItemId, ItemId)>,
        sell: impl IntoIterator<Item = (f64, ItemId, ItemId)>,
        qab: f64,
    ) -> Result<Self, PolyError> {
        let mut terms = Vec::new();
        for (w, a, b) in buy {
            terms.push(PTerm::new(w, [(a, 1), (b, 1)])?);
        }
        for (w, a, b) in sell {
            terms.push(PTerm::new(-w, [(a, 1), (b, 1)])?);
        }
        PolynomialQuery::new(Polynomial::from_terms(terms), qab)
    }

    /// A *linear aggregate query*: `sum_i w_i x_i : B`.
    pub fn linear_aggregate(
        weights: impl IntoIterator<Item = (f64, ItemId)>,
        qab: f64,
    ) -> Result<Self, PolyError> {
        let mut terms = Vec::new();
        for (w, i) in weights {
            terms.push(PTerm::new(w, [(i, 1)])?);
        }
        PolynomialQuery::new(Polynomial::from_terms(terms), qab)
    }
}

impl std::fmt::Display for PolynomialQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} : {}", self.poly, self.qab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> ItemId {
        ItemId(i)
    }

    #[test]
    fn rejects_bad_bounds_and_empty_bodies() {
        let p = Polynomial::term(PTerm::new(1.0, [(x(0), 1)]).unwrap());
        assert!(PolynomialQuery::new(p.clone(), 0.0).is_err());
        assert!(PolynomialQuery::new(p.clone(), -1.0).is_err());
        assert!(PolynomialQuery::new(p, f64::NAN).is_err());
        assert!(PolynomialQuery::new(Polynomial::zero(), 1.0).is_err());
    }

    #[test]
    fn classification_covers_all_classes() {
        let laq = PolynomialQuery::linear_aggregate([(1.0, x(0)), (2.0, x(1))], 1.0).unwrap();
        assert_eq!(laq.class(), QueryClass::LinearAggregate);

        let ppq = PolynomialQuery::portfolio([(10.0, x(0), x(1))], 1.0).unwrap();
        assert_eq!(ppq.class(), QueryClass::PositiveCoefficient);

        let pq = PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(1.0, x(2), x(3))], 1.0).unwrap();
        assert_eq!(pq.class(), QueryClass::General);
    }

    #[test]
    fn portfolio_eval_matches_manual() {
        // 3 * x0 * x1 + 2 * x2 * x3 at (2, 5, 4, 0.5) = 30 + 4.
        let q = PolynomialQuery::portfolio([(3.0, x(0), x(1)), (2.0, x(2), x(3))], 1.0).unwrap();
        assert!((q.eval(&[2.0, 5.0, 4.0, 0.5]) - 34.0).abs() < 1e-12);
    }

    #[test]
    fn arbitrage_has_negative_sell_side() {
        let q = PolynomialQuery::arbitrage([(1.0, x(0), x(1))], [(2.0, x(2), x(3))], 1.0).unwrap();
        // x0 x1 - 2 x2 x3 at (3, 4, 1, 2) = 12 - 4.
        assert!((q.eval(&[3.0, 4.0, 1.0, 2.0]) - 8.0).abs() < 1e-12);
        let (p1, p2) = q.poly().split_pos_neg();
        assert_eq!(p1.n_terms(), 1);
        assert_eq!(p2.n_terms(), 1);
    }

    #[test]
    fn item_lists_are_derived_once_and_shared() {
        let q = PolynomialQuery::new(
            Polynomial::from_terms([
                PTerm::new(1.0, [(x(3), 1)]).unwrap(),
                PTerm::new(2.0, [(x(5), 1), (x(1), 1)]).unwrap(),
            ]),
            4.0,
        )
        .unwrap();
        let h = q.with_qab(2.0).unwrap();
        assert_eq!(h.items(), &[x(1), x(3), x(5)]);
        assert_eq!(**q.coupled_items(), [x(1), x(5)]);
        assert!(Arc::ptr_eq(q.shared_items(), h.shared_items()));
        assert!(Arc::ptr_eq(q.shared_poly(), h.shared_poly()));
        // Equality is the body's and the bound's, derived or not.
        let fresh = PolynomialQuery::new(q.poly().clone(), 2.0).unwrap();
        assert_eq!(fresh, h);
    }

    #[test]
    fn with_qab_preserves_body() {
        let q = PolynomialQuery::portfolio([(1.0, x(0), x(1))], 4.0).unwrap();
        let h = q.with_qab(2.0).unwrap();
        assert_eq!(h.qab(), 2.0);
        assert_eq!(h.poly(), q.poly());
    }
}
