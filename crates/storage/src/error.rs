//! Storage-level errors.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The referenced relation does not exist in the database.
    UnknownRelation(String),
    /// The referenced attribute does not exist in the schema.
    UnknownAttribute {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
    },
    /// A tuple's arity does not match its relation's schema.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Expected arity (schema width).
        expected: usize,
        /// Actual tuple arity.
        actual: usize,
    },
    /// A relation with this name already exists.
    DuplicateRelation(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            StorageError::UnknownAttribute {
                relation,
                attribute,
            } => write!(
                f,
                "unknown attribute `{attribute}` in relation `{relation}`"
            ),
            StorageError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for relation `{relation}`: expected {expected}, got {actual}"
            ),
            StorageError::DuplicateRelation(r) => write!(f, "relation `{r}` already exists"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(StorageError::UnknownRelation("Order".into())
            .to_string()
            .contains("Order"));
        assert!(StorageError::ArityMismatch {
            relation: "R".into(),
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains("expected 3"));
    }
}
