//! Table schemas: ordered, strongly typed column definitions.

use graql_types::{DataType, GraqlError, Result};
use rustc_hash::FxHashMap;

/// One column of a table: a name and a declared [`DataType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered set of column definitions with O(1) name lookup.
///
/// Column names are case-sensitive identifiers, unique within a schema, as
/// in the paper's Appendix-A DDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    columns: Vec<ColumnDef>,
    by_name: FxHashMap<String, usize>,
}

impl TableSchema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        let mut by_name = FxHashMap::default();
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(GraqlError::name(format!("duplicate column '{}'", c.name)));
            }
        }
        Ok(TableSchema { columns, by_name })
    }

    /// Convenience constructor from `(name, type)` pairs; panics on
    /// duplicates (intended for statically known schemas in tests/builders).
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Self::new(cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect())
            .expect("static schema must not contain duplicates")
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Index of `name`, as a [`GraqlError::Name`] if absent.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| GraqlError::name(format!("unknown column '{name}'")))
    }

    pub fn column(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }

    /// The schema restricted to the given column indices (projection).
    /// A repeated index repeats a column name, a [`GraqlError::Name`].
    pub fn project(&self, indices: &[usize]) -> Result<TableSchema> {
        TableSchema::new(indices.iter().map(|&i| self.columns[i].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = TableSchema::of(&[("id", DataType::Varchar(10)), ("price", DataType::Float)]);
        assert_eq!(s.index_of("price"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.require("id").is_ok());
        assert!(matches!(s.require("nope"), Err(GraqlError::Name(_))));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::new(vec![
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::new("a", DataType::Float),
        ]);
        assert!(matches!(r, Err(GraqlError::Name(_))));
    }

    #[test]
    fn projection_keeps_order_and_names() {
        let s = TableSchema::of(&[
            ("a", DataType::Integer),
            ("b", DataType::Float),
            ("c", DataType::Date),
        ]);
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.column(0).name, "c");
        assert_eq!(p.column(1).name, "a");
    }

    #[test]
    fn projection_repeating_a_column_is_a_name_error() {
        let s = TableSchema::of(&[("id", DataType::Integer), ("name", DataType::Varchar(5))]);
        assert!(matches!(s.project(&[0, 0]), Err(GraqlError::Name(_))));
    }
}
