//! Fixed-width row keys: the one encoding under `group by`, `distinct`,
//! the aggregates, `order by` and Eq. 1's vertex grouping.
//!
//! No kernel builds a [`graql_types::Value`] per row. Rows compare
//! through their column's typed slices ([`cmp_rows`]), and a row's key
//! over several columns is one `u64` word per column: a string's
//! dictionary code, an integer's or a date's value, a float's raw bits,
//! and 0 for null with the null marked in a trailing mask word. Equal
//! words are equal values under [`graql_types::Value::cmp_total`]: for
//! floats that is bit equality, so `-0.0 ≠ 0.0` and a NaN equals only an
//! identical NaN. A dictionary that
//! [`crate::column::StrDict::may_repeat`] has its codes canonicalised
//! first ([`canonical_codes`]).

use std::borrow::Cow;
use std::cmp::Ordering;

use graql_types::Result;
use rustc_hash::FxHashMap;

use super::OpCtx;
use crate::column::{canonical_codes, Column};
use crate::table::Table;

/// Marks a group with no row yet.
const NONE: u32 = u32::MAX;

/// Row `a` against row `b` of `col` as [`graql_types::Value::cmp_total`]
/// orders their values: null first, floats by `total_cmp`, strings by
/// their dictionary entries (equal codes are equal strings).
#[inline]
pub(crate) fn cmp_rows(col: &Column, a: usize, b: usize) -> Ordering {
    match (col.is_null(a), col.is_null(b)) {
        (false, false) => {}
        (x, y) => return y.cmp(&x),
    }
    match col {
        Column::Int { data, .. } => data[a].cmp(&data[b]),
        Column::Float { data, .. } => data[a].total_cmp(&data[b]),
        Column::Date { data, .. } => data[a].cmp(&data[b]),
        Column::Str { codes, .. } if codes[a] == codes[b] => Ordering::Equal,
        Column::Str { dict, codes, .. } => dict.resolve(codes[a]).cmp(dict.resolve(codes[b])),
    }
}

/// Each row's group and each group's first row, groups numbered in
/// first-seen order. Rows fall in one group when every column of `cols`
/// holds equal values, null equal to null (no columns: one group). The
/// guard is checked cooperatively per row of a keyed grouping.
///
/// A single string column whose dictionary has no more entries than the
/// table has rows groups through a dense array indexed by code; every
/// other key hashes its words.
pub(crate) fn group_ids(t: &Table, cols: &[usize], cx: &OpCtx) -> Result<(Vec<u32>, Vec<u32>)> {
    let n = t.n_rows();
    if cols.is_empty() {
        return Ok((vec![0; n], (0..n.min(1) as u32).collect()));
    }
    let mut tick = cx.guard.ticker();
    let (mut ids, mut reps) = (Vec::with_capacity(n), Vec::new());
    let mut assign = |slot: &mut u32, r: usize| {
        if *slot == NONE {
            *slot = reps.len() as u32;
            reps.push(r as u32);
        }
        ids.push(*slot);
    };
    if let [c] = cols {
        if let Column::Str { dict, codes, nulls } = t.column(*c) {
            if dict.len() <= n {
                let codes = canonical_codes(dict, codes, nulls);
                // One slot per code, then one for null.
                let mut slots = vec![NONE; dict.len() + 1];
                for r in 0..n {
                    tick.tick()?;
                    let s = if nulls.contains(r) {
                        dict.len()
                    } else {
                        codes[r] as usize
                    };
                    assign(&mut slots[s], r);
                }
                return Ok((ids, reps));
            }
        }
    }
    let (words, width) = encode(t, cols);
    let mut map: FxHashMap<&[u64], u32> = FxHashMap::default();
    for (r, key) in words.chunks_exact(width).enumerate() {
        tick.tick()?;
        assign(map.entry(key).or_insert(NONE), r);
    }
    Ok((ids, reps))
}

/// The rows' keys over `cols`, row-major, and the words per row: one
/// word per column, then one null-mask word per 64 columns.
fn encode(t: &Table, cols: &[usize]) -> (Vec<u64>, usize) {
    let width = cols.len() + cols.len().div_ceil(64);
    let mut words = vec![0u64; t.n_rows() * width];
    for (k, col) in cols.iter().map(|&c| t.column(c)).enumerate() {
        let codes: Cow<[u32]> = match col {
            Column::Str { dict, codes, nulls } => canonical_codes(dict, codes, nulls),
            _ => Cow::Borrowed(&[]),
        };
        for (r, key) in words.chunks_exact_mut(width).enumerate() {
            key[k] = match col {
                _ if col.is_null(r) => {
                    key[cols.len() + k / 64] |= 1 << (k % 64);
                    continue;
                }
                Column::Int { data, .. } => data[r] as u64,
                Column::Float { data, .. } => data[r].to_bits(),
                Column::Date { data, .. } => data[r] as u32 as u64,
                Column::Str { .. } => u64::from(codes[r]),
            };
        }
    }
    (words, width)
}
