//! Error type for the core crate.
//!
//! Search and index construction are infallible on well-formed inputs;
//! errors arise at the boundaries: dimension mismatches, empty inputs where
//! pivots are required, and persistence I/O or corruption.

use std::fmt;

/// All errors produced by `pexeso-core`.
#[derive(Debug)]
pub enum PexesoError {
    /// A vector had a different dimensionality than the store.
    DimensionMismatch { expected: usize, got: usize },
    /// An operation required at least one vector/column and got none.
    EmptyInput(&'static str),
    /// A parameter was outside its legal range.
    InvalidParameter(String),
    /// Underlying I/O failure during persistence.
    Io(std::io::Error),
    /// A persisted index file failed validation.
    Corrupt(String),
    /// A remote backend (e.g. a `pexeso serve` daemon) failed to answer:
    /// server-side rejection, backpressure, or a protocol violation.
    Remote(String),
    /// Query vector `row` has a NaN or infinite component. No distance
    /// to it is meaningful, so no backend answers such a query.
    NonFiniteQuery { row: usize },
}

impl fmt::Display for PexesoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PexesoError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            PexesoError::EmptyInput(what) => write!(f, "empty input: {what}"),
            PexesoError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            PexesoError::Io(e) => write!(f, "I/O error: {e}"),
            PexesoError::Corrupt(msg) => write!(f, "corrupt index file: {msg}"),
            PexesoError::Remote(msg) => write!(f, "remote backend error: {msg}"),
            PexesoError::NonFiniteQuery { row } => {
                write!(
                    f,
                    "non-finite query vector: row {row} has a NaN or infinite component"
                )
            }
        }
    }
}

impl std::error::Error for PexesoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PexesoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PexesoError {
    fn from(e: std::io::Error) -> Self {
        PexesoError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PexesoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PexesoError::DimensionMismatch {
            expected: 50,
            got: 300,
        };
        assert!(e.to_string().contains("expected 50"));
        assert!(PexesoError::EmptyInput("pivots")
            .to_string()
            .contains("pivots"));
        assert!(PexesoError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(PexesoError::NonFiniteQuery { row: 3 }
            .to_string()
            .contains("row 3"));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = PexesoError::from(io);
        assert!(std::error::Error::source(&e).is_some());
    }
}
