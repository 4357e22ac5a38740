//! Error type for the relational substrate.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Referenced column does not exist in the feed/table schema.
    UnknownColumn { name: String },
    /// Referenced table does not exist in the database.
    UnknownTable { name: String },
    /// A table with this name already exists.
    DuplicateTable { name: String },
    /// A row's arity does not match the schema.
    ArityMismatch { expected: usize, got: usize },
    /// Wire-format text could not be decoded.
    Decode { detail: String },
    /// Two feeds cannot be combined/unioned because their schemas clash.
    SchemaMismatch { detail: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColumn { name } => write!(f, "unknown column {name:?}"),
            Error::UnknownTable { name } => write!(f, "unknown table {name:?}"),
            Error::DuplicateTable { name } => write!(f, "table {name:?} already exists"),
            Error::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema expects {expected}")
            }
            Error::Decode { detail } => write!(f, "feed decode error: {detail}"),
            Error::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
        }
    }
}

impl Error {
    /// A wire-decode failure: what the feed and codec decoders return for
    /// damaged or malformed bytes.
    pub fn decode(detail: impl Into<String>) -> Error {
        Error::Decode {
            detail: detail.into(),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::UnknownColumn { name: "x".into() }
            .to_string()
            .contains('x'));
        assert!(Error::ArityMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains('3'));
    }
}
