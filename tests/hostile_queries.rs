//! Hostile query strings (ROADMAP item 1(d)): `parse_polynomial` and
//! `Monitor::add_query_str` never panic, fail only with a typed
//! `PolyError`, and hand back only well-formed polynomials — finite,
//! non-zero coefficients, no zero exponent, every item interned. A failed
//! `add_query_str` leaves the monitor as it was.

use proptest::prelude::*;

use polyquery::poly::{parse_polynomial, PolyError};
use polyquery::{ItemCatalog, Monitor, Polynomial, PolynomialQuery};

/// What a table input must give.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Want {
    /// A polynomial of this many terms.
    Terms(usize),
    /// `PolyError::Parse`.
    Parse,
    /// `PolyError::InvalidCoefficient`.
    Coefficient,
    /// `PolyError::ExponentOverflow`.
    Exponent,
}

fn kind(result: &Result<Polynomial, PolyError>) -> Want {
    match result {
        Ok(p) => Want::Terms(p.n_terms()),
        Err(PolyError::Parse { .. }) => Want::Parse,
        Err(PolyError::InvalidCoefficient(_)) => Want::Coefficient,
        Err(PolyError::ExponentOverflow { .. }) => Want::Exponent,
        Err(other) => panic!("a parse failed with {other:?}"),
    }
}

/// Finite non-zero coefficients, sorted and merged items, no zero
/// exponent, every item in `catalog`.
fn well_formed(p: &Polynomial, catalog: &ItemCatalog) -> Result<(), String> {
    for t in p.terms() {
        if !t.coef().is_finite() || t.coef() == 0.0 {
            return Err(format!("coefficient {}", t.coef()));
        }
        if t.vars().iter().any(|&(_, e)| e == 0) {
            return Err(format!("zero exponent in {:?}", t.vars()));
        }
        if t.vars().windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(format!("unsorted or unmerged {:?}", t.vars()));
        }
        if t.vars().iter().any(|&(i, _)| i.index() >= catalog.len()) {
            return Err(format!("an item outside the catalog in {:?}", t.vars()));
        }
    }
    Ok(())
}

/// An installed monitor over `a`, `b` with one query.
fn installed() -> Monitor {
    let mut m = Monitor::new();
    let (a, b) = (m.add_item("a", 2.0, 1.0), m.add_item("b", 3.0, 1.0));
    m.add_query(PolynomialQuery::portfolio([(1.0, a, b)], 1.0).unwrap());
    m.install().unwrap();
    m
}

/// Feeds `text` to a fresh installed monitor: accepted exactly when it
/// parses to a non-zero body, and a refusal leaves the monitor as it was.
fn through_monitor(text: &str, parsed: &Result<Polynomial, PolyError>) -> Result<(), String> {
    let want = match parsed {
        Ok(p) if !p.is_zero() => Ok(()),
        Ok(_) => Err(PolyError::EmptyPolynomial),
        Err(e) => Err(e.clone()),
    };
    let mut m = installed();
    let got = m.add_query_str(text, 1.0);
    match (&want, &got) {
        (Ok(()), Ok(_)) => Ok(()),
        // Item ids differ between the two catalogs; the kind may not.
        (Err(want), Err(err)) if std::mem::discriminant(want) == std::mem::discriminant(err) => {
            let names = text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'));
            let interned: Vec<&str> = names.filter(|&n| m.item(n).is_some()).collect();
            let untouched = m.is_installed()
                && m.queries().len() == 1
                && interned.iter().all(|&n| n == "a" || n == "b");
            untouched
                .then_some(())
                .ok_or_else(|| format!("a refusal moved the monitor (interned {interned:?})"))
        }
        _ => Err(format!("wanted {want:?}, the monitor gave {got:?}")),
    }
}

fn check(text: &str) -> Result<Want, String> {
    let mut catalog = ItemCatalog::new();
    let parsed = parse_polynomial(text, &mut catalog);
    if let Ok(p) = &parsed {
        well_formed(p, &catalog)?;
    }
    through_monitor(text, &parsed)?;
    Ok(kind(&parsed))
}

#[test]
fn hostile_query_strings_are_typed_errors_or_well_formed() {
    let sum_of = |n: usize| {
        let terms: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        terms.join(" + ")
    };
    let table: Vec<(String, Want)> = [
        ("", Want::Parse),
        (" \t\n", Want::Parse),
        ("+", Want::Parse),
        ("-", Want::Parse),
        ("--x", Want::Parse),
        ("x +", Want::Parse),
        ("x + + y", Want::Parse),
        ("x*", Want::Parse),
        ("x * ", Want::Parse),
        ("*x", Want::Parse),
        ("x**y", Want::Parse),
        ("2 3", Want::Parse),
        ("x^", Want::Parse),
        ("x^-1", Want::Parse),
        ("x^1.5", Want::Parse),
        ("x^4294967296", Want::Parse),
        (".", Want::Parse),
        ("3..5 x", Want::Parse),
        ("1.2.3", Want::Parse),
        ("1e+", Want::Parse),
        ("((x))", Want::Parse),
        ("x + (y*z)", Want::Parse),
        ("x y z &", Want::Parse),
        ("ibm·usd", Want::Parse),
        ("é", Want::Parse),
        ("xé", Want::Parse),
        ("日本 + x", Want::Parse),
        ("x\0", Want::Parse),
        // Invalid UTF-8 as a caller's lossy decoding hands it over.
        ("\u{FFFD}\u{FFFD}x", Want::Parse),
        ("0", Want::Coefficient),
        ("0*x", Want::Coefficient),
        ("1e999*x", Want::Coefficient),
        ("1e-999 x", Want::Coefficient),
        ("1e200*1e200", Want::Coefficient),
        ("1e308 x + 1e308 x", Want::Coefficient),
        ("x^4294967295*x", Want::Exponent),
        ("x^4294967295*x^2 + y", Want::Exponent),
        ("x - x", Want::Terms(0)),
        ("x^0", Want::Terms(1)),
        ("x^4294967295", Want::Terms(1)),
        ("1e5*x", Want::Terms(1)),
        ("2.5E-3 y + 1", Want::Terms(2)),
        ("2 e", Want::Terms(1)),
        ("1e", Want::Terms(1)),
        ("NaN * inf", Want::Terms(1)),
        ("_ + __9", Want::Terms(2)),
    ]
    .into_iter()
    .map(|(text, want)| (text.to_owned(), want))
    .chain([
        (sum_of(10_000), Want::Terms(10_000)),
        (format!("{} + ", sum_of(10_000)), Want::Parse),
        (vec!["x"; 10_001].join("*"), Want::Terms(1)),
        (format!("{}x", "2*".repeat(10_000)), Want::Coefficient),
        ("9".repeat(400), Want::Coefficient),
        (format!("x^{}", "9".repeat(10_000)), Want::Parse),
    ])
    .collect();
    for (text, want) in &table {
        let shown: String = text.chars().take(40).collect();
        assert_eq!(
            check(text).map_err(|e| format!("{shown:?}: {e}")),
            Ok(*want),
            "{shown:?}"
        );
    }
}

/// The fuzz alphabet: digits, `.`, `e`, `^`, `*`, `+`, `-`, whitespace,
/// identifiers and non-ASCII characters.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "4294967295",
    "1e308",
    ".",
    "e",
    "E",
    "^",
    "*",
    "+",
    "-",
    " ",
    "\t",
    "\n",
    "x",
    "y",
    "_z9",
    "e5",
    "é",
    "日",
    "\u{FFFD}",
];

fn fuzz_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Terms for inputs of 10 000+: well-formed, with at most one hostile
/// term spliced in.
const TERMS: &[&str] = &[
    "x", "2 y", "1e3*z^2", "0.5 x y", "w^3 v", "7", "x y z", "1.5E-2 v",
];
const HOSTILE: &[&str] = &["x*", "1e999 x", "x^4294967295*x", "é", "(x)", "0 y"];

/// The text, and whether a hostile term was spliced into it.
fn long_text() -> impl Strategy<Value = (String, bool)> {
    let terms = proptest::collection::vec((0..TERMS.len(), 0u8..2), 10_000..12_000);
    (terms, 0..HOSTILE.len() * 2, 0usize..10_000).prop_map(|(terms, hostile, at)| {
        let mut text = String::new();
        for (k, (term, minus)) in terms.into_iter().enumerate() {
            if k > 0 {
                text.push_str(if minus == 1 { " - " } else { " + " });
            }
            // Half the cases carry one hostile term.
            let spliced = (k == at).then(|| HOSTILE.get(hostile)).flatten();
            text.push_str(spliced.unwrap_or(&TERMS[term]));
        }
        (text, hostile < HOSTILE.len())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fuzzed_query_strings_never_panic(text in fuzz_text()) {
        check(&text).map_err(TestCaseError::Fail)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fuzzed_ten_thousand_term_strings_never_panic(case in long_text()) {
        let (text, hostile) = case;
        let got = check(&text).map_err(TestCaseError::Fail)?;
        let parsed = matches!(got, Want::Terms(n) if n > 0);
        prop_assert!(parsed != hostile, "hostile {hostile}, got {got:?}");
    }
}
