//! Table schemas.

use crate::error::{JitsError, Result};
use crate::ids::ColumnId;
use crate::value::DataType;

/// A column definition inside a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-insensitive lookups, stored lower-case).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl ColumnDef {
    /// Builds a column definition; names are normalized to lower-case.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into().to_ascii_lowercase(),
            dtype,
        }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(JitsError::AlreadyExists(format!(
                    "duplicate column name '{}'",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` pairs.
    #[expect(
        clippy::expect_used,
        reason = "callers pass literal column lists; a duplicate is a typo to fail on at once"
    )]
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect())
            .expect("static schema must not contain duplicates")
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// All column definitions, in ordinal order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Definition of the column at `id`.
    pub fn column(&self, id: ColumnId) -> Option<&ColumnDef> {
        self.columns.get(id.index())
    }

    /// Resolves a column name (case-insensitive) to its id.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        let lower = name.to_ascii_lowercase();
        self.columns
            .iter()
            .position(|c| c.name == lower)
            .map(|i| ColumnId(i as u32))
    }

    /// Resolves a column name or returns a binding error.
    pub fn require_column(&self, name: &str) -> Result<ColumnId> {
        self.column_id(name)
            .ok_or_else(|| JitsError::Binding(format!("unknown column '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("make", DataType::Str),
            ("price", DataType::Float),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = demo();
        assert_eq!(s.column_id("MAKE"), Some(ColumnId(1)));
        assert_eq!(s.column_id("Price"), Some(ColumnId(2)));
        assert_eq!(s.column_id("missing"), None);
        assert!(s.require_column("missing").is_err());
    }

    #[test]
    fn duplicates_rejected() {
        let err = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("A", DataType::Str),
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn column_access() {
        let s = demo();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column(ColumnId(1)).unwrap().name, "make");
        assert_eq!(s.column(ColumnId(1)).unwrap().dtype, DataType::Str);
        assert!(s.column(ColumnId(9)).is_none());
    }
}
