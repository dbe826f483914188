//! The in-memory table: a schema plus one [`Column`] per attribute.
//!
//! Columns are held as `Arc<Column>` and mutated copy-on-write, so
//! cloning a table, projecting it or renaming its columns bumps pointers:
//! an unfiltered `select *`, its `into table` copy and every pinned epoch
//! share the stored columns until one of them is written to. Writers take
//! a [`RowAppender`] (or one of the bulk appends), which unshares each
//! column once per batch of rows — never per cell.

use std::sync::Arc;

use graql_types::{DataType, GraqlError, Result, Value};

use crate::batch::{page_entries, BatchColumn, ColumnBatch};
use crate::column::Column;
use crate::schema::TableSchema;

/// A columnar, strongly typed, in-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

/// Exclusive row-at-a-time write access to a [`Table`]: its columns are
/// unshared once, when the appender is made, and every
/// [`RowAppender::push_row`] after that writes straight into them.
pub struct RowAppender<'a> {
    schema: &'a TableSchema,
    columns: Vec<&'a mut Column>,
    rows: &'a mut usize,
}

impl RowAppender<'_> {
    /// Appends one row; the tuple must match the schema arity and types.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(GraqlError::ingest(format!(
                "row has {} fields, table has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        // Validate all fields before mutating any column so a failed push
        // cannot leave ragged columns behind.
        for (v, def) in row.iter().zip(self.schema.columns()) {
            let ok = matches!(
                (v, def.dtype),
                (Value::Null, _)
                    | (Value::Int(_), DataType::Integer | DataType::Float)
                    | (Value::Float(_), DataType::Float)
                    | (Value::Str(_), DataType::Varchar(_))
                    | (Value::Date(_), DataType::Date)
            );
            if !ok {
                return Err(GraqlError::type_error(format!(
                    "cannot store {v:?} in column {:?} of type {}",
                    def.name, def.dtype
                )));
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v).expect("types were validated above");
        }
        *self.rows += 1;
        Ok(())
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: TableSchema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Arc::new(Column::new(c.dtype)))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Builds a table from row tuples (mainly for tests and small fixtures).
    pub fn from_rows(
        schema: TableSchema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Self> {
        let mut t = Table::empty(schema);
        let mut w = t.appender();
        for row in rows {
            w.push_row(&row)?;
        }
        drop(w);
        Ok(t)
    }

    /// Assembles a table directly from pre-built columns, owned
    /// (`Column`) or shared with another table (`Arc<Column>`).
    ///
    /// # Panics
    /// Panics if column count or lengths disagree with the schema — this is
    /// an internal constructor for kernels that have already validated
    /// shape.
    pub fn from_columns<C: Into<Arc<Column>>>(schema: TableSchema, columns: Vec<C>) -> Self {
        let columns: Vec<Arc<Column>> = columns.into_iter().map(Into::into).collect();
        assert_eq!(schema.len(), columns.len(), "column count mismatch");
        let rows = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            assert_eq!(c.len(), rows, "ragged columns");
        }
        Table {
            schema,
            columns,
            rows,
        }
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    pub fn n_rows(&self) -> usize {
        self.rows
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column `i` as the shared pointer the table holds: what a
    /// projection clones, and what `Arc::ptr_eq` compares to tell whether
    /// two tables share storage.
    pub fn shared_column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// Column reference by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.require(name)?])
    }

    /// Row-at-a-time write access. Unshares every column now (a deep
    /// copy of each column that another table or epoch still holds), so
    /// take one appender per batch of rows, not one per row.
    pub fn appender(&mut self) -> RowAppender<'_> {
        RowAppender {
            schema: &self.schema,
            columns: self.columns.iter_mut().map(Arc::make_mut).collect(),
            rows: &mut self.rows,
        }
    }

    /// Appends one row; the tuple must match the schema arity and types.
    /// A loop of pushes belongs on one [`Table::appender`].
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        self.appender().push_row(row)
    }

    /// Value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Materializes row `row` as a value tuple.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Iterator over materialized rows (cold paths: tests, display, CSV out).
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Coarse RSS proxy for this table's materialized size, used by query
    /// governance to charge memory budgets. Deterministic (cell count ×
    /// a fixed per-cell cost), not an exact heap measurement.
    pub fn approx_bytes(&self) -> u64 {
        (self.rows as u64) * (self.columns.len() as u64) * 16
    }

    /// New table containing `indices` rows in order (duplicates allowed).
    pub fn gather(&self, indices: &[u32]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(indices)))
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// Appends all rows of `other`, column by column (schemas must be
    /// type-compatible: equal families, or integer widening into float).
    /// All or nothing: a mismatch in any column leaves the table
    /// unchanged.
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.schema.len() != other.schema.len() {
            return Err(GraqlError::type_error(
                "cannot append tables of different arity",
            ));
        }
        for (i, (dst, src)) in self.columns.iter().zip(&other.columns).enumerate() {
            if !dst.accepts(src) {
                let def = self.schema.column(i);
                return Err(GraqlError::type_error(format!(
                    "cannot append a {} column to column {:?} of type {}",
                    src.dtype(),
                    def.name,
                    def.dtype
                )));
            }
        }
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(dst).extend_from(src, 0..other.rows);
        }
        self.rows += other.rows;
        Ok(())
    }

    /// Appends one [`ColumnBatch`] of a stream cut by
    /// [`crate::batch::Batches`]: value slices are extended, the batch's
    /// new dictionary entries pushed once each, and its string codes
    /// copied as they are after a bounds check — this table's string
    /// dictionaries *are* the stream's, so the table must have been built
    /// from that stream's batches alone, in order.
    ///
    /// Every count, type and code is validated before anything is
    /// written; a malformed batch is an error and leaves the table as it
    /// was. (An entry sent twice is not malformed: see
    /// [`crate::column::StrDict::extend_unindexed`].)
    pub fn append_batch(&mut self, batch: &ColumnBatch) -> Result<()> {
        let bad = |i: usize, what: &str| {
            GraqlError::type_error(format!(
                "column batch: column {:?}: {what}",
                self.schema.column(i).name
            ))
        };
        if batch.columns.len() != self.columns.len() {
            return Err(GraqlError::type_error(format!(
                "column batch has {} columns, table has {}",
                batch.columns.len(),
                self.columns.len()
            )));
        }
        let n = batch.n_rows;
        for (i, (col, bc)) in self.columns.iter().zip(&batch.columns).enumerate() {
            if bc.len() != n || bc.nulls().len() != n {
                return Err(bad(i, "length disagrees with the batch's row count"));
            }
            match (&**col, bc) {
                (Column::Int { .. }, BatchColumn::Int { .. })
                | (Column::Float { .. }, BatchColumn::Float { .. })
                | (Column::Date { .. }, BatchColumn::Date { .. }) => {}
                (
                    Column::Str { dict, .. },
                    BatchColumn::Str {
                        page,
                        ends,
                        codes,
                        nulls,
                    },
                ) => {
                    let mut at = 0;
                    for &end in ends {
                        if (end as usize) < at || !page.is_char_boundary(end as usize) {
                            return Err(bad(i, "dictionary page entries out of line"));
                        }
                        at = end as usize;
                    }
                    if at != page.len() {
                        return Err(bad(i, "dictionary page longer than its entries"));
                    }
                    // Null rows carry code 0, so an all-null column over an
                    // empty dictionary is the one case where 0 is in range
                    // of nothing.
                    let dict_len = dict.len() + ends.len();
                    if dict_len > u32::MAX as usize
                        || codes.iter().any(|&c| c as usize >= dict_len.max(1))
                        || (dict_len == 0 && nulls.count() != n)
                    {
                        return Err(bad(i, "string code beyond the dictionary"));
                    }
                }
                _ => return Err(bad(i, "type disagrees with the table's schema")),
            }
        }
        for (col, bc) in self.columns.iter_mut().zip(&batch.columns) {
            match (Arc::make_mut(col), bc) {
                (Column::Int { data, nulls }, BatchColumn::Int { data: d, nulls: nl }) => {
                    data.extend_from_slice(d);
                    nulls.extend_from_range(nl, 0..n);
                }
                (Column::Float { data, nulls }, BatchColumn::Float { data: d, nulls: nl }) => {
                    data.extend_from_slice(d);
                    nulls.extend_from_range(nl, 0..n);
                }
                (Column::Date { data, nulls }, BatchColumn::Date { data: d, nulls: nl }) => {
                    data.extend_from_slice(d);
                    nulls.extend_from_range(nl, 0..n);
                }
                (
                    Column::Str { dict, codes, nulls },
                    BatchColumn::Str {
                        page,
                        ends,
                        codes: c,
                        nulls: nl,
                    },
                ) => {
                    Arc::make_mut(dict).extend_unindexed(page_entries(page, ends));
                    codes.extend_from_slice(c);
                    nulls.extend_from_range(nl, 0..n);
                }
                _ => unreachable!("column kinds were checked above"),
            }
        }
        self.rows += n;
        Ok(())
    }

    /// Renders the table as aligned ASCII art (clients / examples / tests).
    pub fn render(&self) -> String {
        let header: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .iter_rows()
            .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&header, &widths));
        out.push_str(&format!(
            "|{}\n",
            widths
                .iter()
                .map(|w| format!("{:-<w$}--|", "", w = w))
                .collect::<String>()
        ));
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_types::DataType;

    fn people() -> Table {
        let schema = TableSchema::of(&[("id", DataType::Varchar(10)), ("age", DataType::Integer)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("p1"), Value::Int(30)],
                vec![Value::str("p2"), Value::Int(25)],
                vec![Value::str("p3"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let t = people();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(1, 0), Value::str("p2"));
        assert_eq!(t.get(1, 1), Value::Int(25));
        assert!(t.get(2, 1).is_null());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = people();
        assert!(t.push_row(&[Value::str("p4")]).is_err());
        assert_eq!(t.n_rows(), 3, "failed push must not change the table");
    }

    #[test]
    fn type_mismatch_rejected_atomically() {
        let mut t = people();
        // First field is fine, second is not: nothing may be written.
        assert!(t.push_row(&[Value::str("p4"), Value::str("oops")]).is_err());
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.column(0).len(), 3, "no partial column writes");
    }

    #[test]
    fn gather_selects_rows() {
        let t = people();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.n_rows(), 2);
        assert_eq!(g.get(0, 0), Value::str("p3"));
        assert_eq!(g.get(1, 0), Value::str("p1"));
    }

    #[test]
    fn append_concatenates() {
        let mut a = people();
        let b = people();
        a.append(&b).unwrap();
        assert_eq!(a.n_rows(), 6);
        assert_eq!(a.get(5, 0), Value::str("p3"));
    }

    #[test]
    fn append_merges_dictionaries_nulls_and_widens_integers() {
        let schema = TableSchema::of(&[("id", DataType::Varchar(10)), ("x", DataType::Float)]);
        let ints = TableSchema::of(&[("id", DataType::Varchar(10)), ("x", DataType::Integer)]);
        // 70 rows: null masks that straddle a word, strings the target
        // already holds and new ones.
        let rows = |n: usize| {
            (0..n).map(|i| match i % 3 {
                0 => vec![Value::Null, Value::Int(i as i64)],
                1 => vec![Value::str("p1"), Value::Null],
                _ => vec![Value::str(format!("q{i}")), Value::Int(-(i as i64))],
            })
        };
        let mut acc =
            Table::from_rows(schema, vec![vec![Value::str("p1"), Value::Float(0.5)]; 3]).unwrap();
        let other = Table::from_rows(ints, rows(70)).unwrap();
        acc.append(&other).unwrap();
        assert_eq!(acc.n_rows(), 73);
        assert_eq!(acc.column(0).len(), 73);
        for (i, want) in rows(70).enumerate() {
            let want_x = match &want[1] {
                Value::Int(v) => Value::Float(*v as f64),
                other => other.clone(),
            };
            assert_eq!(acc.row(3 + i), [want[0].clone(), want_x], "row {i}");
        }
        // "p1" was interned once.
        assert_eq!(acc.column(0).str_code(0), acc.column(0).str_code(4));
    }

    #[test]
    fn append_type_mismatch_changes_nothing() {
        let mut a = people();
        let swapped =
            TableSchema::of(&[("id", DataType::Varchar(10)), ("age", DataType::Varchar(4))]);
        let b = Table::from_rows(swapped, vec![vec![Value::str("p9"), Value::str("old")]]).unwrap();
        // The first column would fit; the second does not, so neither moves.
        assert!(a.append(&b).is_err());
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.column(0).len(), 3);
        let narrow = TableSchema::of(&[("id", DataType::Varchar(10))]);
        assert!(a.append(&Table::empty(narrow)).is_err());
    }

    #[test]
    fn clones_share_columns_until_written() {
        let a = people();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(a.shared_column(0), b.shared_column(0)));
        b.push_row(&[Value::str("p4"), Value::Int(1)]).unwrap();
        assert!(!Arc::ptr_eq(a.shared_column(0), b.shared_column(0)));
        assert_eq!((a.n_rows(), b.n_rows()), (3, 4));
        assert_eq!(a.column(0).len(), 3, "the original is untouched");
    }

    #[test]
    fn render_contains_header_and_cells() {
        let s = people().render();
        assert!(s.contains("id"));
        assert!(s.contains("age"));
        assert!(s.contains("p2"));
        assert!(s.contains("25"));
    }
}
