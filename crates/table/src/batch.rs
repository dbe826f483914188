//! Column batches: a run of rows in columnar form, the unit a result
//! table crosses a process boundary in.
//!
//! [`Table::batches`] cuts a table into batches without materializing a
//! cell: numeric and date columns are slice copies, null masks word
//! copies, and a string column's codes are translated through one
//! code-to-code table into a dictionary scoped to the *stream* — codes
//! are assigned in order of first use across all batches and each batch
//! carries only the entries it introduces. [`Table::append_batch`] is the
//! inverse on the receiving side.

use crate::bitset::BitSet;
use crate::column::{remap_codes, Column, UNSEEN};
use crate::table::Table;

/// One column of a [`ColumnBatch`]: the values of its rows (a placeholder
/// zero where the row is null) and the null mask.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchColumn {
    Int {
        data: Vec<i64>,
        nulls: BitSet,
    },
    Float {
        data: Vec<f64>,
        nulls: BitSet,
    },
    Date {
        data: Vec<i32>,
        nulls: BitSet,
    },
    /// The *dictionary page* is the strings this batch adds to the
    /// stream's dictionary, numbered on from its length before the batch:
    /// entry `k` is `page[ends[k - 1]..ends[k]]` (from 0 for the first).
    /// `codes` index the dictionary with the page added.
    Str {
        page: String,
        ends: Vec<u32>,
        codes: Vec<u32>,
        nulls: BitSet,
    },
}

/// The entries of a dictionary page, in code order.
///
/// # Panics
/// Panics if `ends` is not ascending on character boundaries of `page`
/// ([`Table::append_batch`] checks before it calls).
pub fn page_entries<'a>(page: &'a str, ends: &'a [u32]) -> impl Iterator<Item = &'a str> {
    ends.iter().scan(0, move |at, &end| {
        let entry = &page[*at..end as usize];
        *at = end as usize;
        Some(entry)
    })
}

impl BatchColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            BatchColumn::Int { data, .. } => data.len(),
            BatchColumn::Float { data, .. } => data.len(),
            BatchColumn::Date { data, .. } => data.len(),
            BatchColumn::Str { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn nulls(&self) -> &BitSet {
        match self {
            BatchColumn::Int { nulls, .. }
            | BatchColumn::Float { nulls, .. }
            | BatchColumn::Date { nulls, .. }
            | BatchColumn::Str { nulls, .. } => nulls,
        }
    }
}

/// `n_rows` rows of every column of a table. A plain value: anything can
/// build one (a decoder does), so [`Table::append_batch`] validates it.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    pub n_rows: usize,
    pub columns: Vec<BatchColumn>,
}

/// The batches of one table, in row order — see [`Table::batches`].
pub struct Batches<'a> {
    table: &'a Table,
    batch_rows: usize,
    next_row: usize,
    /// Per string column, source dictionary code → stream code (empty
    /// for the other column types).
    remaps: Vec<Vec<u32>>,
    /// Per column, the stream dictionary's length so far.
    dict_lens: Vec<u32>,
}

impl Table {
    /// Cuts the table into [`ColumnBatch`]es of `batch_rows` rows (the
    /// last one shorter; none at all for an empty table).
    ///
    /// # Panics
    /// Panics if `batch_rows` is zero.
    pub fn batches(&self, batch_rows: usize) -> Batches<'_> {
        assert!(batch_rows > 0, "a batch holds at least one row");
        let remaps = (0..self.n_cols())
            .map(|c| vec![UNSEEN; self.column(c).str_dict().map_or(0, |d| d.len())])
            .collect();
        Batches {
            table: self,
            batch_rows,
            next_row: 0,
            remaps,
            dict_lens: vec![0; self.n_cols()],
        }
    }
}

impl Iterator for Batches<'_> {
    type Item = ColumnBatch;

    fn next(&mut self) -> Option<ColumnBatch> {
        let lo = self.next_row;
        if lo >= self.table.n_rows() {
            return None;
        }
        let hi = (lo + self.batch_rows).min(self.table.n_rows());
        self.next_row = hi;
        let slice_nulls = |nulls: &BitSet| {
            let mut out = BitSet::new(0);
            out.extend_from_range(nulls, lo..hi);
            out
        };
        let columns = (0..self.table.n_cols())
            .map(|c| match self.table.column(c) {
                Column::Int { data, nulls } => BatchColumn::Int {
                    data: data[lo..hi].to_vec(),
                    nulls: slice_nulls(nulls),
                },
                Column::Float { data, nulls } => BatchColumn::Float {
                    data: data[lo..hi].to_vec(),
                    nulls: slice_nulls(nulls),
                },
                Column::Date { data, nulls } => BatchColumn::Date {
                    data: data[lo..hi].to_vec(),
                    nulls: slice_nulls(nulls),
                },
                Column::Str { dict, codes, nulls } => {
                    let (mut page, mut ends) = (String::new(), Vec::new());
                    let mut out = Vec::new();
                    let dict_len = &mut self.dict_lens[c];
                    remap_codes(
                        codes,
                        nulls,
                        lo..hi,
                        &mut self.remaps[c],
                        &mut out,
                        |code| {
                            page.push_str(dict.resolve(code));
                            ends.push(u32::try_from(page.len()).expect("a page is under 4 GiB"));
                            *dict_len += 1;
                            *dict_len - 1
                        },
                    );
                    BatchColumn::Str {
                        page,
                        ends,
                        codes: out,
                        nulls: slice_nulls(nulls),
                    }
                }
            })
            .collect();
        Some(ColumnBatch {
            n_rows: hi - lo,
            columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::StrDict;
    use crate::schema::TableSchema;
    use graql_types::{DataType, Date, Value};

    fn mixed(n: usize) -> Table {
        let schema = TableSchema::of(&[
            ("id", DataType::Varchar(16)),
            ("tag", DataType::Varchar(4)),
            ("n", DataType::Integer),
            ("x", DataType::Float),
            ("d", DataType::Date),
        ]);
        Table::from_rows(
            schema,
            (0..n).map(|i| {
                if i % 7 == 3 {
                    vec![Value::Null; 5]
                } else {
                    vec![
                        Value::str(format!("row{i}")),
                        Value::str(["a", "b", ""][i % 3]),
                        Value::Int(i as i64 - 5),
                        Value::Float(i as f64 / 4.0),
                        Value::Date(Date(i as i32)),
                    ]
                }
            }),
        )
        .unwrap()
    }

    fn reassemble(t: &Table, batch_rows: usize) -> Table {
        let mut out = Table::empty(t.schema().clone());
        for b in t.batches(batch_rows) {
            out.append_batch(&b).unwrap();
        }
        out
    }

    #[test]
    fn batches_reassemble_cell_for_cell() {
        for n in [0, 1, 63, 64, 65, 200] {
            let t = mixed(n);
            for batch_rows in [1, 7, 64, 1000] {
                let back = reassemble(&t, batch_rows);
                assert_eq!(back.n_rows(), n);
                assert!(
                    t.iter_rows().eq(back.iter_rows()),
                    "n={n} batch={batch_rows}"
                );
            }
        }
        assert_eq!(mixed(0).batches(8).count(), 0);
        assert_eq!(mixed(17).batches(8).count(), 3);
    }

    #[test]
    fn dictionary_entries_travel_once_in_order_of_first_use() {
        // A source dictionary in another order than its rows use it, with
        // an entry no row uses.
        let mut dict = StrDict::default();
        for s in ["unused", "b", "", "a"] {
            dict.intern(s);
        }
        let codes = vec![3, 1, 3, 0, 2, 1, 3, 2];
        let mut nulls = BitSet::new(codes.len());
        nulls.insert(3);
        let dict = std::sync::Arc::new(dict);
        let col = Column::Str { dict, codes, nulls };
        let t = Table::from_columns(TableSchema::of(&[("s", DataType::Varchar(4))]), vec![col]);

        let mut seen: Vec<String> = Vec::new();
        for b in t.batches(3) {
            let BatchColumn::Str {
                page,
                ends,
                codes,
                nulls,
            } = &b.columns[0]
            else {
                panic!("column 0 is a string column");
            };
            seen.extend(page_entries(page, ends).map(str::to_string));
            for (i, &c) in codes.iter().enumerate() {
                assert!(nulls.contains(i) || (c as usize) < seen.len());
            }
        }
        assert_eq!(
            seen,
            ["a", "b", ""],
            "first use order, each once, no 'unused'"
        );
        assert!(t.iter_rows().eq(reassemble(&t, 3).iter_rows()));
    }

    #[test]
    fn malformed_batches_are_rejected_without_adding_rows() {
        let t = mixed(10);
        let good = t.batches(10).next().unwrap();
        let mut dst = Table::empty(t.schema().clone());

        let mut short = good.clone();
        short.columns.pop();
        assert!(dst.append_batch(&short).is_err());

        let mut ragged = good.clone();
        ragged.n_rows = 9;
        assert!(dst.append_batch(&ragged).is_err());

        let mut swapped = good.clone();
        swapped.columns.swap(2, 3);
        assert!(dst.append_batch(&swapped).is_err());

        let mut wild = good.clone();
        if let BatchColumn::Str { codes, .. } = &mut wild.columns[0] {
            codes[0] = 1_000_000;
        }
        assert!(dst.append_batch(&wild).is_err());

        // Page entries that run backwards, split a character, or stop
        // short of the page.
        for (page, ends) in [("ab", vec![2, 1]), ("é", vec![1, 2]), ("abc", vec![2])] {
            let mut torn = good.clone();
            if let BatchColumn::Str {
                page: p, ends: e, ..
            } = &mut torn.columns[0]
            {
                (*p, *e) = (page.to_string(), ends);
            }
            assert!(dst.append_batch(&torn).is_err(), "{page:?}");
        }

        assert_eq!(dst.n_rows(), 0);
        dst.append_batch(&good).unwrap();
        assert!(t.iter_rows().eq(dst.iter_rows()));

        // A non-null row cannot point into an empty dictionary.
        let schema = TableSchema::of(&[("s", DataType::Varchar(4))]);
        let mut empty = Table::empty(schema);
        let orphan = ColumnBatch {
            n_rows: 1,
            columns: vec![BatchColumn::Str {
                page: String::new(),
                ends: vec![],
                codes: vec![0],
                nulls: BitSet::new(1),
            }],
        };
        assert!(empty.append_batch(&orphan).is_err());
    }
}
