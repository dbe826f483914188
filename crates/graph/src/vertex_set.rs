//! Vertex types as views over tables (paper Eq. 1).
//!
//! `V(a1,…,ak) = Π_{a1,…,ak} σ_φ (T)` — select the rows satisfying φ,
//! project onto the key columns, and create **one vertex instance per
//! distinct key combination**.

use graql_table::ops::{filter_indices, group_indices, project, OpCtx};
use graql_table::{PhysExpr, Table};
use graql_types::{GraqlError, Result, Value};
use rustc_hash::FxHashMap;

/// How vertex instances relate to source-table rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Mapping {
    /// Every vertex corresponds to exactly one row (`rows[i]` is the
    /// source row of vertex `i`) — the common Fig. 2 case where the key is
    /// the table's primary key.
    OneToOne { rows: Vec<u32> },
    /// Several rows collapse into one vertex (the Fig. 4/5
    /// `ProducerCountry` case): `groups[i]` are the contributing rows of
    /// vertex `i`, `groups[i][0]` its representative.
    ManyToOne { groups: Vec<Vec<u32>> },
}

impl Mapping {
    /// A representative source row for vertex `i` (for key access; non-key
    /// attributes are only well-defined for one-to-one mappings).
    pub fn rep_row(&self, i: usize) -> u32 {
        match self {
            Mapping::OneToOne { rows } => rows[i],
            Mapping::ManyToOne { groups } => groups[i][0],
        }
    }

    pub fn is_one_to_one(&self) -> bool {
        matches!(self, Mapping::OneToOne { .. })
    }
}

/// A vertex type: name, source table, key columns and the instance ↔ row
/// mapping. The key values are materialized for O(1) key→instance lookup.
#[derive(Debug, Clone)]
pub struct VertexSet {
    pub name: String,
    /// Name of the source table in the database storage.
    pub table: String,
    /// Key column indices within the source table.
    pub key_cols: Vec<usize>,
    /// Materialized keys: one row per vertex instance, columns = key cols.
    pub keys: Table,
    pub mapping: Mapping,
    key_index: FxHashMap<Vec<Value>, u32>,
    identity: bool,
}

impl VertexSet {
    /// Builds the vertex set per Eq. 1 from `table` (named `table_name`),
    /// keyed by `key_cols`, with optional selection `filter`.
    pub fn build(
        name: impl Into<String>,
        table_name: impl Into<String>,
        table: &Table,
        key_cols: Vec<usize>,
        filter: Option<&PhysExpr>,
    ) -> Result<Self> {
        let name = name.into();
        if key_cols.is_empty() {
            return Err(GraqlError::name(format!("vertex {name} has an empty key")));
        }
        let mut selected: Vec<u32> = match filter {
            Some(f) => filter_indices(table, f),
            None => (0..table.n_rows() as u32).collect(),
        };
        // Rows with a NULL key column identify nothing (null equals
        // nothing under SQL semantics) and cannot be joined by Eq. 2, so
        // they contribute no vertex instance.
        selected.retain(|&r| {
            key_cols
                .iter()
                .all(|&c| !table.column(c).is_null(r as usize))
        });
        // Only the key columns are read: project, then gather.
        let view = project(table, &key_cols)?.gather(&selected);
        let all: Vec<usize> = (0..key_cols.len()).collect();
        let (reps, groups) = group_indices(&view, &all, &OpCtx::default())?;
        // Translate view-local row indices back to source-table rows.
        let to_src = |i: u32| selected[i as usize];
        let keys = view.gather(&reps);
        let one_to_one = groups.iter().all(|g| g.len() == 1);
        let mapping = if one_to_one {
            Mapping::OneToOne {
                rows: reps.iter().map(|&r| to_src(r)).collect(),
            }
        } else {
            Mapping::ManyToOne {
                groups: groups
                    .into_iter()
                    .map(|g| g.into_iter().map(to_src).collect())
                    .collect(),
            }
        };
        // Unfiltered, non-null, unique keys: vertex `i` is source row `i`
        // (groups are numbered in first-seen row order).
        let identity = one_to_one && keys.n_rows() == table.n_rows();
        let mut key_index = FxHashMap::default();
        for i in 0..keys.n_rows() {
            key_index.insert(keys.row(i), i as u32);
        }
        Ok(VertexSet {
            name,
            table: table_name.into(),
            key_cols,
            keys,
            mapping,
            key_index,
            identity,
        })
    }

    /// Number of vertex instances.
    pub fn len(&self) -> usize {
        self.keys.n_rows()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when vertex `i` is row `i` of the source table: every row
    /// passed the selection and holds a distinct, non-null key.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The instance whose key tuple equals `key`.
    pub fn lookup(&self, key: &[Value]) -> Option<u32> {
        self.key_index.get(key).copied()
    }

    /// Key tuple of instance `i`.
    pub fn key_of(&self, i: u32) -> Vec<Value> {
        self.keys.row(i as usize)
    }

    /// Value of source-table column `col` for vertex `i`, read through the
    /// mapping from `source` (which must be the table named by
    /// `self.table`).
    ///
    /// For many-to-one vertices only key columns are well-defined; other
    /// columns return an error, mirroring the paper's restriction that a
    /// many-to-one key "does not serve as a unique identifier" for the
    /// rest of the row.
    pub fn attr(&self, source: &Table, i: u32, col: usize) -> Result<Value> {
        if !self.mapping.is_one_to_one() && !self.key_cols.contains(&col) {
            return Err(GraqlError::type_error(format!(
                "attribute {:?} of many-to-one vertex type {} is not single-valued",
                source.schema().column(col).name,
                self.name
            )));
        }
        Ok(source.get(self.mapping.rep_row(i as usize) as usize, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_table::TableSchema;
    use graql_types::{CmpOp, DataType};

    fn producers() -> Table {
        let schema = TableSchema::of(&[
            ("id", DataType::Varchar(8)),
            ("country", DataType::Varchar(4)),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("m1"), Value::str("US")],
                vec![Value::str("m2"), Value::str("IT")],
                vec![Value::str("m3"), Value::str("FR")],
                vec![Value::str("m4"), Value::str("US")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn one_to_one_mapping_from_primary_key() {
        let t = producers();
        let v = VertexSet::build("ProducerVtx", "Producers", &t, vec![0], None).unwrap();
        assert_eq!(v.len(), 4);
        assert!(v.mapping.is_one_to_one());
        assert_eq!(v.lookup(&[Value::str("m3")]), Some(2));
        assert_eq!(v.key_of(2), vec![Value::str("m3")]);
        assert_eq!(v.attr(&t, 2, 1).unwrap(), Value::str("FR"));
        assert!(v.is_identity());
    }

    #[test]
    fn many_to_one_collapses_duplicate_keys_fig4() {
        // `create vertex ProducerCountry(country) from table Producers`:
        // one vertex per distinct country (Fig. 5: US, IT, FR).
        let t = producers();
        let v = VertexSet::build("ProducerCountry", "Producers", &t, vec![1], None).unwrap();
        assert_eq!(v.len(), 3);
        assert!(!v.mapping.is_one_to_one());
        assert!(!v.is_identity());
        let Mapping::ManyToOne { groups } = &v.mapping else {
            panic!()
        };
        assert_eq!(groups[0], vec![0, 3], "US group holds rows m1 and m4");
        assert_eq!(v.lookup(&[Value::str("US")]), Some(0));
        // Key attribute readable, non-key attribute rejected.
        assert_eq!(v.attr(&t, 0, 1).unwrap(), Value::str("US"));
        assert!(v.attr(&t, 0, 0).is_err());
    }

    #[test]
    fn filter_applies_before_projection() {
        let t = producers();
        let f = PhysExpr::cmp_col_const(1, CmpOp::Ne, Value::str("US"));
        let v = VertexSet::build("NonUs", "Producers", &t, vec![0], Some(&f)).unwrap();
        assert_eq!(v.len(), 2);
        assert!(!v.is_identity(), "vertex 0 is row 1");
        assert_eq!(v.lookup(&[Value::str("m1")]), None);
        assert_eq!(v.lookup(&[Value::str("m2")]), Some(0));
    }

    #[test]
    fn repeated_key_column_is_an_error_not_a_panic() {
        let t = producers();
        let r = VertexSet::build("V", "Producers", &t, vec![0, 0], None);
        assert!(matches!(r, Err(GraqlError::Name(_))), "{r:?}");
    }

    #[test]
    fn composite_keys() {
        let t = producers();
        let v = VertexSet::build("Both", "Producers", &t, vec![0, 1], None).unwrap();
        assert_eq!(v.len(), 4);
        assert_eq!(v.lookup(&[Value::str("m2"), Value::str("IT")]), Some(1));
        assert_eq!(v.lookup(&[Value::str("m2"), Value::str("US")]), None);
    }

    #[test]
    fn empty_key_rejected() {
        let t = producers();
        assert!(VertexSet::build("V", "Producers", &t, vec![], None).is_err());
    }

    #[test]
    fn null_keyed_rows_produce_no_vertices() {
        let schema = TableSchema::of(&[
            ("id", DataType::Varchar(8)),
            ("country", DataType::Varchar(4)),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::str("m1"), Value::str("US")],
                vec![Value::Null, Value::str("IT")],
                vec![Value::str("m3"), Value::Null],
            ],
        )
        .unwrap();
        let by_id = VertexSet::build("V", "T", &t, vec![0], None).unwrap();
        assert_eq!(by_id.len(), 2, "null id row excluded");
        assert!(!by_id.is_identity());
        let by_country = VertexSet::build("C", "T", &t, vec![1], None).unwrap();
        assert_eq!(by_country.len(), 2, "null country row excluded");
    }

    #[test]
    fn vertices_are_distinct_by_key_property() {
        // Eq. 1 invariant: every key tuple appears exactly once.
        let t = producers();
        for cols in [vec![0], vec![1], vec![0, 1]] {
            let v = VertexSet::build("V", "Producers", &t, cols, None).unwrap();
            let mut seen = std::collections::HashSet::new();
            for i in 0..v.len() as u32 {
                assert!(seen.insert(v.key_of(i)), "duplicate key for vertex {i}");
            }
        }
    }
}
