//! A small expression parser for polynomial bodies.
//!
//! Grammar (whitespace between tokens is ignored):
//!
//! ```text
//! poly   := [sign] term (sign term)*
//! term   := factor (['*'] factor)*
//! factor := number | ident ['^' integer]
//! number := (digit | '.')+ [('e' | 'E') [sign] digit+]
//! ident  := (letter | '_') (letter | digit | '_')*
//! sign   := '+' | '-'
//! ```
//!
//! A `'*'` must be followed by a factor; without one, factors multiply
//! only when the next is an item name (`"2 x y"`). An exponent belongs
//! to a number only when it follows the digits directly and a digit or a
//! signed digit follows the `e`: `1e5` and `2.5E-3` are numbers, while
//! `2e`, `2 e` and `2*e` are 2 times the item `e`. Letters and digits
//! are ASCII; any other character is a parse error.
//!
//! Every failure is a [`PolyError`]. A term whose coefficient is zero or
//! overflows to infinity, and a sum of like terms that overflows, are
//! [`PolyError::InvalidCoefficient`] (like terms that cancel exactly are
//! dropped); one item's exponents in a term summing past `u32::MAX` are
//! [`PolyError::ExponentOverflow`].
//!
//! Identifiers are interned through an [`ItemCatalog`], so
//! `"3.5*ibm*usd - spill^2"` builds the polynomial and registers the items
//! in one pass. Intended for examples, tests and interactive tools; the
//! programmatic constructors in [`crate::query`] are the primary API.

use crate::error::PolyError;
use crate::item::ItemCatalog;
use crate::polynomial::{PTerm, Polynomial};

/// Parses `input` into a [`Polynomial`], interning item names in `catalog`.
pub fn parse_polynomial(input: &str, catalog: &mut ItemCatalog) -> Result<Polynomial, PolyError> {
    Parser {
        bytes: input.as_bytes(),
        pos: 0,
        catalog,
    }
    .parse()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    catalog: &'a mut ItemCatalog,
}

impl Parser<'_> {
    fn parse(mut self) -> Result<Polynomial, PolyError> {
        let mut terms = Vec::new();
        self.skip_ws();
        if self.at_end() {
            return Err(self.error("empty input"));
        }
        let mut sign = 1.0;
        if self.eat(b'-') {
            sign = -1.0;
        } else {
            self.eat(b'+');
        }
        loop {
            terms.push(self.term(sign)?);
            self.skip_ws();
            if self.at_end() {
                break;
            }
            sign = if self.eat(b'+') {
                1.0
            } else if self.eat(b'-') {
                -1.0
            } else {
                return Err(self.error("expected '+' or '-' between terms"));
            };
        }
        let poly = Polynomial::from_terms(terms);
        // Like terms merge by adding coefficients, which can overflow.
        match poly.terms().iter().find(|t| !t.coef().is_finite()) {
            Some(t) => Err(PolyError::InvalidCoefficient(t.coef())),
            None => Ok(poly),
        }
    }

    fn term(&mut self, sign: f64) -> Result<PTerm, PolyError> {
        let mut coef = sign;
        let mut vars = Vec::new();
        loop {
            self.skip_ws();
            if let Some(n) = self.number()? {
                coef *= n;
            } else if let Some(name) = self.ident() {
                let id = self.catalog.intern(&name);
                let exp = if self.eat(b'^') { self.uint()? } else { 1 };
                vars.push((id, exp));
            } else {
                return Err(self.error("expected number or item name"));
            }
            // After a '*' a factor must follow; juxtaposition multiplies
            // only before identifiers ("2 x y").
            if !self.eat(b'*') && !self.peek_ident_start() {
                break;
            }
        }
        PTerm::new(coef, vars)
    }

    fn number(&mut self) -> Result<Option<f64>, PolyError> {
        let start = self.pos;
        self.skip_while(|b| b.is_ascii_digit() || b == b'.');
        if self.pos == start {
            return Ok(None);
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            let signed = matches!(self.bytes.get(self.pos + 1), Some(b'+' | b'-'));
            let digits = self.pos + 1 + usize::from(signed);
            if self.bytes.get(digits).is_some_and(u8::is_ascii_digit) {
                self.pos = digits;
                self.skip_while(|b| b.is_ascii_digit());
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        s.parse::<f64>()
            .map(Some)
            .map_err(|_| self.error_at(start, "malformed number"))
    }

    fn uint(&mut self) -> Result<u32, PolyError> {
        self.skip_ws();
        let start = self.pos;
        self.skip_while(|b| b.is_ascii_digit());
        if self.pos == start {
            return Err(self.error("expected exponent"));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        s.parse::<u32>()
            .map_err(|_| self.error_at(start, "exponent out of range"))
    }

    fn ident(&mut self) -> Option<String> {
        if !self.peek_ident_start() {
            return None;
        }
        let start = self.pos;
        self.skip_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        Some(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn peek_ident_start(&self) -> bool {
        self.bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| b.is_ascii_whitespace());
    }

    fn skip_while(&mut self, f: impl Fn(u8) -> bool) {
        while self.bytes.get(self.pos).is_some_and(|&b| f(b)) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn error(&self, message: &str) -> PolyError {
        self.error_at(self.pos, message)
    }

    fn error_at(&self, offset: usize, message: &str) -> PolyError {
        PolyError::Parse {
            message: message.to_owned(),
            offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;

    #[test]
    fn parses_portfolio_style_expression() {
        let mut cat = ItemCatalog::new();
        let p = parse_polynomial("3*ibm*usd + 2*tcs*inr", &mut cat).unwrap();
        assert_eq!(p.n_terms(), 2);
        assert_eq!(cat.len(), 4);
        // ibm=0 usd=1 tcs=2 inr=3.
        assert!((p.eval(&[10.0, 2.0, 5.0, 0.5]) - (60.0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn parses_signs_and_powers() {
        let mut cat = ItemCatalog::new();
        let p = parse_polynomial("-x^2 + 2.5*y - 1.5", &mut cat).unwrap();
        // x=0, y=1.
        assert!((p.eval(&[2.0, 4.0]) - (-4.0 + 10.0 - 1.5)).abs() < 1e-12);
    }

    #[test]
    fn juxtaposition_multiplies() {
        let mut cat = ItemCatalog::new();
        let p = parse_polynomial("2 x y", &mut cat).unwrap();
        assert!((p.eval(&[3.0, 5.0]) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn reuses_catalog_ids_across_calls() {
        let mut cat = ItemCatalog::new();
        parse_polynomial("a*b", &mut cat).unwrap();
        let p2 = parse_polynomial("b^2", &mut cat).unwrap();
        assert_eq!(cat.len(), 2);
        assert!((p2.eval(&[0.0, 3.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn merges_duplicate_terms() {
        let mut cat = ItemCatalog::new();
        let p = parse_polynomial("x*y + y*x", &mut cat).unwrap();
        assert_eq!(p.n_terms(), 1);
        assert!((p.eval(&[2.0, 3.0]) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_input() {
        let mut cat = ItemCatalog::new();
        assert!(parse_polynomial("", &mut cat).is_err());
        assert!(parse_polynomial("+", &mut cat).is_err());
        assert!(parse_polynomial("x +", &mut cat).is_err());
        assert!(parse_polynomial("x ^", &mut cat).is_err());
        assert!(parse_polynomial("x y z &", &mut cat).is_err());
        assert!(parse_polynomial("3..5 * x", &mut cat).is_err());
    }

    #[test]
    fn a_star_wants_a_factor_after_it() {
        let mut cat = ItemCatalog::new();
        for bad in ["x*", "x *", "2*x* + y", "x**y", "x * - y"] {
            let err = parse_polynomial(bad, &mut cat).unwrap_err();
            assert!(matches!(err, PolyError::Parse { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn scientific_notation_is_a_number() {
        let mut cat = ItemCatalog::new();
        let p = parse_polynomial("1e5*x + 2.5E-3 y + 3e+2", &mut cat).unwrap();
        assert_eq!(cat.len(), 2, "no item named e5");
        assert!((p.eval(&[2.0, 4.0]) - (2e5 + 1e-2 + 300.0)).abs() < 1e-9);
        // Without a digit after it, an `e` is an item.
        for (text, want) in [("2 e", 6.0), ("2*e", 6.0), ("2e", 6.0), ("2e-e", 3.0)] {
            let mut cat = ItemCatalog::new();
            let p = parse_polynomial(text, &mut cat).unwrap();
            assert_eq!(cat.get("e"), Some(ItemId(0)), "{text}");
            assert_eq!(p.eval(&[3.0]), want, "{text}");
        }
    }

    #[test]
    fn overflowing_coefficients_and_exponents_are_typed_errors() {
        let mut cat = ItemCatalog::new();
        let inf = PolyError::InvalidCoefficient(f64::INFINITY);
        assert_eq!(parse_polynomial("1e999 x", &mut cat), Err(inf.clone()));
        assert_eq!(
            parse_polynomial("1e200 * 1e200", &mut cat),
            Err(inf.clone())
        );
        assert_eq!(parse_polynomial("1e308 x + 1e308 x", &mut cat), Err(inf));
        assert_eq!(
            parse_polynomial("1e-999 x", &mut cat),
            Err(PolyError::InvalidCoefficient(0.0))
        );
        let x = cat.get("x").unwrap().0;
        // Used to wrap: the first parsed to the constant 1, the second to
        // x + y.
        for text in ["x^4294967295*x", "x^4294967295*x^2 + y"] {
            assert_eq!(
                parse_polynomial(text, &mut cat),
                Err(PolyError::ExponentOverflow { item: x }),
                "{text}"
            );
        }
        let p = parse_polynomial("x^4294967294*x", &mut cat).unwrap();
        assert_eq!(p.terms()[0].vars(), &[(ItemId(x), u32::MAX)]);
    }

    #[test]
    fn cancellation_to_zero_is_allowed() {
        let mut cat = ItemCatalog::new();
        let p = parse_polynomial("x - x", &mut cat).unwrap();
        assert!(p.is_zero());
    }
}
