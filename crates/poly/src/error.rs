//! Error types for polynomial construction, parsing and constraint building.

/// Errors from polynomial algebra and constraint construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PolyError {
    /// Term coefficients must be finite and non-zero.
    InvalidCoefficient(f64),
    /// Constraint construction requires a positive-coefficient polynomial.
    NotPositiveCoefficient,
    /// Constraint construction requires non-negative current values.
    NegativeValue {
        /// Index of the offending item.
        item: u32,
        /// The offending value.
        value: f64,
    },
    /// A value vector was shorter than the largest referenced item id.
    MissingValue {
        /// Index of the item that had no value.
        item: u32,
    },
    /// The polynomial has no terms where one was required.
    EmptyPolynomial,
    /// Query accuracy bounds must be strictly positive and finite.
    InvalidBound(f64),
    /// An item's exponent in one term does not fit a `u32`.
    ExponentOverflow {
        /// Index of the item whose exponents overflowed.
        item: u32,
    },
    /// Parse error with a human-readable message and byte offset.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset into the input.
        offset: usize,
    },
}

impl std::fmt::Display for PolyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyError::InvalidCoefficient(c) => {
                write!(f, "coefficient must be finite and non-zero, got {c}")
            }
            PolyError::NotPositiveCoefficient => {
                write!(f, "operation requires a positive-coefficient polynomial")
            }
            PolyError::NegativeValue { item, value } => {
                write!(f, "item x{item} has negative current value {value}")
            }
            PolyError::MissingValue { item } => {
                write!(f, "no current value supplied for item x{item}")
            }
            PolyError::EmptyPolynomial => write!(f, "polynomial has no terms"),
            PolyError::InvalidBound(b) => {
                write!(f, "accuracy bound must be > 0 and finite, got {b}")
            }
            PolyError::ExponentOverflow { item } => {
                write!(f, "exponent of item x{item} overflows u32")
            }
            PolyError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for PolyError {}
