//! Typed columnar storage.
//!
//! One [`Column`] per declared attribute. Strings are dictionary-encoded:
//! a `u32` code per row plus a shared, append-only [`StrDict`]. Equality
//! filters compare codes, row materialization clones an `Arc<str>`
//! instead of copying bytes, and [`Column::gather`] copies codes and
//! clones the dictionary's `Arc`, so a filtered, sorted or projected
//! column never touches a string. Nulls live in a per-column bitmask.

use std::ops::Range;
use std::sync::Arc;

use graql_types::{CmpOp, DataType, GraqlError, Result, Value};
use rustc_hash::FxHashMap;

use crate::bitset::BitSet;

/// Dictionary for a string column: code → `Arc<str>` plus reverse lookup.
///
/// A column holds its dictionary behind an `Arc`, and every column
/// gathered from it (filter, sort, distinct, top, views, results) holds
/// the same one, so a dictionary may hold strings that no row of a given
/// column uses. It only grows: a code, once assigned, names the same
/// string for the dictionary's lifetime. A writer interns through
/// `Arc::make_mut`, in place while it holds the only `Arc` and into a
/// copy otherwise, so a pinned epoch or a kept result goes on resolving
/// every code it holds.
///
/// Strings are distinct as long as they arrive through
/// [`StrDict::intern`]. [`StrDict::extend_unindexed`] trusts its caller
/// instead of hashing; after it, equal strings may hold several codes
/// (comparisons by string stay right, comparisons by code do not), and
/// the dictionary records that for its lifetime, so that row keys built
/// from codes canonicalise them first.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
    /// Reverse lookup over `strings[..indexed]`; what
    /// `extend_unindexed` appended joins it on the next `intern`.
    lookup: FxHashMap<Arc<str>, u32>,
    indexed: usize,
    may_repeat: bool,
}

impl StrDict {
    /// Interns `s`, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        for (code, e) in self.strings.iter().enumerate().skip(self.indexed) {
            self.lookup.entry(e.clone()).or_insert(code as u32);
        }
        self.indexed = self.strings.len();
        if let Some(&c) = self.lookup.get(s) {
            return c;
        }
        let code = self.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.strings.push(arc.clone());
        self.lookup.insert(arc, code);
        self.indexed += 1;
        code
    }

    /// Appends `entries` under the next codes without hashing them: for
    /// a caller whose entries are distinct by construction (a peer's
    /// dictionary page). An entry that repeats a string still gets a code
    /// of its own.
    pub fn extend_unindexed<'a>(&mut self, entries: impl Iterator<Item = &'a str>) {
        let len = self.strings.len();
        self.strings.extend(entries.map(Arc::from));
        self.may_repeat |= self.strings.len() > len;
    }

    /// True when a string may hold more than one code: entries were
    /// appended by [`StrDict::extend_unindexed`]. A code is then a key
    /// only after it is mapped to the first code of its string.
    pub(crate) fn may_repeat(&self) -> bool {
        self.may_repeat
    }

    /// The code of `s`, found by one lookup, when codes compare like
    /// strings: no entry arrived by `extend_unindexed`, so every entry is
    /// indexed and none repeats. `Some(None)`: no entry is `s`. `None`:
    /// the dictionary cannot tell by code.
    pub(crate) fn code_of(&self, s: &str) -> Option<Option<u32>> {
        (!self.may_repeat).then(|| self.lookup.get(s).copied())
    }

    pub fn resolve(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Marks a source dictionary code [`remap_codes`] has not met yet.
pub(crate) const UNSEEN: u32 = u32::MAX;

/// Appends to `out` the codes of rows `range`, translated through
/// `remap` (one slot per source dictionary code, [`UNSEEN`] until its
/// first use, when `first_use(code)` names the target code). Null rows
/// store code 0, as [`Column::push`] does. One table lookup per row and
/// one `first_use` call per distinct string: no hashing here.
pub(crate) fn remap_codes(
    codes: &[u32],
    nulls: &BitSet,
    range: Range<usize>,
    remap: &mut [u32],
    out: &mut Vec<u32>,
    mut first_use: impl FnMut(u32) -> u32,
) {
    out.reserve(range.len());
    for i in range {
        out.push(if nulls.contains(i) {
            0
        } else {
            let slot = &mut remap[codes[i] as usize];
            if *slot == UNSEEN {
                *slot = first_use(codes[i]);
            }
            *slot
        });
    }
}

/// `codes` as keys: unchanged when `dict` holds each string once, and
/// otherwise with every code replaced by the first code its string has
/// among these rows, decided once per distinct code. Null rows keep
/// code 0.
pub(crate) fn canonical_codes<'a>(
    dict: &StrDict,
    codes: &'a [u32],
    nulls: &BitSet,
) -> std::borrow::Cow<'a, [u32]> {
    if !dict.may_repeat() {
        return codes.into();
    }
    let (mut first, mut remap) = (FxHashMap::default(), vec![UNSEEN; dict.len()]);
    let mut out = Vec::new();
    remap_codes(codes, nulls, 0..codes.len(), &mut remap, &mut out, |c| {
        *first.entry(&**dict.resolve(c)).or_insert(c)
    });
    out.into()
}

/// A typed column of values with a null mask.
#[derive(Debug, Clone)]
pub enum Column {
    Int {
        data: Vec<i64>,
        nulls: BitSet,
    },
    Float {
        data: Vec<f64>,
        nulls: BitSet,
    },
    Str {
        dict: Arc<StrDict>,
        codes: Vec<u32>,
        nulls: BitSet,
    },
    Date {
        data: Vec<i32>,
        nulls: BitSet,
    },
}

impl Column {
    /// An empty column of the given declared type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Integer => Column::Int {
                data: Vec::new(),
                nulls: BitSet::new(0),
            },
            DataType::Float => Column::Float {
                data: Vec::new(),
                nulls: BitSet::new(0),
            },
            DataType::Varchar(_) => Column::Str {
                dict: Arc::default(),
                codes: Vec::new(),
                nulls: BitSet::new(0),
            },
            DataType::Date => Column::Date {
                data: Vec::new(),
                nulls: BitSet::new(0),
            },
        }
    }

    /// The column's type family (varchar capacity is not tracked here).
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Integer,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Varchar(0),
            Column::Date { .. } => DataType::Date,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Date { data, .. } => data.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value, widening `integer → float` where the column is a
    /// float column. Any other type mismatch is an error (strong typing).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (Column::Int { data, nulls }, Value::Int(i)) => {
                data.push(*i);
                nulls.push_bit(false);
            }
            (Column::Float { data, nulls }, Value::Float(f)) => {
                data.push(*f);
                nulls.push_bit(false);
            }
            (Column::Float { data, nulls }, Value::Int(i)) => {
                data.push(*i as f64);
                nulls.push_bit(false);
            }
            (Column::Str { dict, codes, nulls }, Value::Str(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
                nulls.push_bit(false);
            }
            (Column::Date { data, nulls }, Value::Date(d)) => {
                data.push(d.days());
                nulls.push_bit(false);
            }
            (col, Value::Null) => match col {
                Column::Int { data, nulls } => {
                    data.push(0);
                    nulls.push_bit(true);
                }
                Column::Float { data, nulls } => {
                    data.push(0.0);
                    nulls.push_bit(true);
                }
                Column::Str { codes, nulls, .. } => {
                    codes.push(0);
                    nulls.push_bit(true);
                }
                Column::Date { data, nulls } => {
                    data.push(0);
                    nulls.push_bit(true);
                }
            },
            (col, v) => {
                return Err(GraqlError::type_error(format!(
                    "cannot store {:?} in a {} column",
                    v,
                    col.dtype()
                )))
            }
        }
        Ok(())
    }

    /// True when rows of `other` can be appended to this column: the same
    /// type family, or integers widening into a float column — the
    /// pairings [`Column::push`] accepts value by value.
    pub fn accepts(&self, other: &Column) -> bool {
        matches!(
            (self, other),
            (Column::Int { .. }, Column::Int { .. })
                | (
                    Column::Float { .. },
                    Column::Float { .. } | Column::Int { .. }
                )
                | (Column::Str { .. }, Column::Str { .. })
                | (Column::Date { .. }, Column::Date { .. })
        )
    }

    /// Appends rows `range` of `other` in bulk: value slices are extended,
    /// null bits copied a word at a time, and string codes translated
    /// through a code-to-code table so each distinct string is interned
    /// once.
    ///
    /// # Panics
    /// Panics unless `self.accepts(other)`, or if `range` reaches beyond
    /// `other.len()`.
    pub fn extend_from(&mut self, other: &Column, range: Range<usize>) {
        match (&mut *self, other) {
            (
                Column::Int { data, nulls },
                Column::Int {
                    data: src,
                    nulls: sn,
                },
            ) => {
                data.extend_from_slice(&src[range.clone()]);
                nulls.extend_from_range(sn, range);
            }
            (
                Column::Float { data, nulls },
                Column::Float {
                    data: src,
                    nulls: sn,
                },
            ) => {
                data.extend_from_slice(&src[range.clone()]);
                nulls.extend_from_range(sn, range);
            }
            (
                Column::Float { data, nulls },
                Column::Int {
                    data: src,
                    nulls: sn,
                },
            ) => {
                data.extend(src[range.clone()].iter().map(|&i| i as f64));
                nulls.extend_from_range(sn, range);
            }
            (
                Column::Date { data, nulls },
                Column::Date {
                    data: src,
                    nulls: sn,
                },
            ) => {
                data.extend_from_slice(&src[range.clone()]);
                nulls.extend_from_range(sn, range);
            }
            (
                Column::Str { dict, codes, nulls },
                Column::Str {
                    dict: sd,
                    codes: sc,
                    nulls: sn,
                },
            ) => {
                let (dict, mut remap) = (Arc::make_mut(dict), vec![UNSEEN; sd.len()]);
                remap_codes(sc, sn, range.clone(), &mut remap, codes, |c| {
                    dict.intern(sd.resolve(c))
                });
                nulls.extend_from_range(sn, range);
            }
            (col, other) => panic!(
                "cannot append a {} column to a {} column",
                other.dtype(),
                col.dtype()
            ),
        }
    }

    /// The column's null mask.
    pub(crate) fn nulls(&self) -> &BitSet {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Str { nulls, .. }
            | Column::Date { nulls, .. } => nulls,
        }
    }

    /// True if row `i` holds null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls().contains(i)
    }

    /// Materializes row `i` as a [`Value`]. String values are `Arc` clones.
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Column::Int { data, .. } => Value::Int(data[i]),
            Column::Float { data, .. } => Value::Float(data[i]),
            Column::Str { dict, codes, .. } => Value::Str(dict.resolve(codes[i]).clone()),
            Column::Date { data, .. } => Value::Date(graql_types::Date(data[i])),
        }
    }

    /// The string dictionary, for string columns: shared with every
    /// column gathered from this one (`Arc::ptr_eq` tells).
    pub fn str_dict(&self) -> Option<&Arc<StrDict>> {
        match self {
            Column::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// Raw dictionary code of row `i` (string columns; null rows return
    /// `None`).
    #[inline]
    pub fn str_code(&self, i: usize) -> Option<u32> {
        match self {
            Column::Str { codes, nulls, .. } if !nulls.contains(i) => Some(codes[i]),
            _ => None,
        }
    }

    /// Typed batch kernel behind the morsel-parallel filter: appends to
    /// `out` every row index in `lo..hi` satisfying `self[row] op k`,
    /// under the engine's comparison semantics (null operands never
    /// match; int/float cross-compare through `f64::total_cmp`, exactly
    /// like [`Value::cmp_total`]). Returns `false` when this
    /// column/constant pairing has no typed sweep (cross-family
    /// comparisons) — the caller must fall back to row-at-a-time
    /// evaluation, which is semantically identical.
    pub fn filter_op_const(
        &self,
        op: CmpOp,
        k: &Value,
        lo: u32,
        hi: u32,
        out: &mut Vec<u32>,
    ) -> bool {
        use std::cmp::Ordering;
        #[inline]
        fn keep(op: CmpOp, o: Ordering) -> bool {
            match op {
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::Ne => o != Ordering::Equal,
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::Le => o != Ordering::Greater,
                CmpOp::Gt => o == Ordering::Greater,
                CmpOp::Ge => o != Ordering::Less,
            }
        }
        if k.is_null() {
            return true; // null compares with nothing: empty selection
        }
        #[inline]
        fn sweep(
            nulls: &BitSet,
            lo: u32,
            hi: u32,
            out: &mut Vec<u32>,
            hit: impl Fn(usize) -> bool,
        ) -> bool {
            out.extend((lo..hi).filter(|&i| !nulls.contains(i as usize) && hit(i as usize)));
            true
        }
        let nulls = self.nulls();
        match (self, k) {
            (Column::Int { data, .. }, Value::Int(k)) => {
                sweep(nulls, lo, hi, out, |u| keep(op, data[u].cmp(k)))
            }
            (Column::Int { data, .. }, Value::Float(k)) => sweep(nulls, lo, hi, out, |u| {
                keep(op, (data[u] as f64).total_cmp(k))
            }),
            (Column::Float { data, .. }, Value::Float(k)) => {
                sweep(nulls, lo, hi, out, |u| keep(op, data[u].total_cmp(k)))
            }
            (Column::Float { data, .. }, Value::Int(k)) => {
                let kf = *k as f64;
                sweep(nulls, lo, hi, out, |u| keep(op, data[u].total_cmp(&kf)))
            }
            (Column::Date { data, .. }, Value::Date(d)) => {
                let kd = d.days();
                sweep(nulls, lo, hi, out, |u| keep(op, data[u].cmp(&kd)))
            }
            (Column::Str { dict, codes, .. }, Value::Str(s)) => {
                // Equality on codes: one dictionary lookup, then one `u32`
                // compare per row (no row holds `UNSEEN`).
                if let (CmpOp::Eq | CmpOp::Ne, Some(code)) = (op, dict.code_of(s)) {
                    let (k, eq) = (code.unwrap_or(UNSEEN), op == CmpOp::Eq);
                    return sweep(nulls, lo, hi, out, |u| (codes[u] == k) == eq);
                }
                let test = |c: u32| keep(op, dict.resolve(c).as_ref().cmp(s.as_ref()));
                // A shared dictionary can outnumber the rows swept: decide
                // once per code only when that is the fewer comparisons.
                if dict.len() <= (hi - lo) as usize {
                    let pass: Vec<bool> = (0..dict.len() as u32).map(test).collect();
                    sweep(nulls, lo, hi, out, |u| pass[codes[u] as usize])
                } else {
                    sweep(nulls, lo, hi, out, |u| test(codes[u]))
                }
            }
            _ => false,
        }
    }

    /// A new column containing rows `indices` in order: values, codes and
    /// null bits are copied; a string column shares this one's dictionary.
    pub fn gather(&self, indices: &[u32]) -> Column {
        fn pick<T: Copy>(src: &[T], indices: &[u32]) -> Vec<T> {
            indices.iter().map(|&i| src[i as usize]).collect()
        }
        let (src, mut nulls) = (self.nulls(), BitSet::new(indices.len()));
        if !src.none() {
            for (k, &i) in indices.iter().enumerate() {
                if src.contains(i as usize) {
                    nulls.insert(k);
                }
            }
        }
        match self {
            Column::Int { data, .. } => Column::Int {
                data: pick(data, indices),
                nulls,
            },
            Column::Float { data, .. } => Column::Float {
                data: pick(data, indices),
                nulls,
            },
            Column::Str { dict, codes, .. } => Column::Str {
                dict: dict.clone(),
                codes: pick(codes, indices),
                nulls,
            },
            Column::Date { data, .. } => Column::Date {
                data: pick(data, indices),
                nulls,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_types::Date;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DataType::Integer);
        c.push(&Value::Int(5)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Int(-1)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(5));
        assert!(c.get(1).is_null());
        assert_eq!(c.get(2), Value::Int(-1));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(&Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Date);
        assert!(c.push(&Value::Int(3)).is_err());
        let mut c = Column::new(DataType::Integer);
        assert!(c.push(&Value::Float(1.0)).is_err()); // no narrowing
        assert!(c.push(&Value::str("x")).is_err());
    }

    #[test]
    fn string_dictionary_deduplicates() {
        let mut c = Column::new(DataType::Varchar(10));
        for s in ["US", "IT", "US", "US", "FR"] {
            c.push(&Value::str(s)).unwrap();
        }
        let dict = c.str_dict().unwrap();
        assert_eq!(dict.len(), 3);
        assert_eq!(c.get(2), Value::str("US"));
        assert_eq!(c.str_code(0), c.str_code(3));
        assert_ne!(c.str_code(0), c.str_code(1));
    }

    #[test]
    fn null_string_has_no_code() {
        let mut c = Column::new(DataType::Varchar(4));
        c.push(&Value::Null).unwrap();
        assert_eq!(c.str_code(0), None);
        assert!(c.get(0).is_null());
    }

    #[test]
    fn gather_shares_the_dictionary() {
        let mut c = Column::new(DataType::Varchar(4));
        for s in [
            Value::str("a"),
            Value::str("b"),
            Value::Null,
            Value::str("d"),
        ] {
            c.push(&s).unwrap();
        }
        let g = c.gather(&[3, 1, 2, 3]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.get(0), Value::str("d"));
        assert_eq!(g.get(1), Value::str("b"));
        assert!(g.get(2).is_null());
        assert_eq!(g.str_code(2), None);
        assert_eq!(g.get(3), Value::str("d"));
        // Codes are copied, not re-interned: the gathered column holds the
        // source's dictionary, unused "a" included.
        assert!(Arc::ptr_eq(g.str_dict().unwrap(), c.str_dict().unwrap()));
        assert_eq!(g.str_code(0), c.str_code(3));
        assert_eq!(g.str_dict().unwrap().len(), 3);
    }

    #[test]
    fn appending_to_a_shared_dictionary_copies_it_once() {
        let mut base = Column::new(DataType::Varchar(4));
        for s in ["a", "b", "c"] {
            base.push(&Value::str(s)).unwrap();
        }
        let kept = base.gather(&[2, 0]);
        let before: Vec<u32> = (0..3).map(|i| base.str_code(i).unwrap()).collect();
        // The first push meets a shared dictionary and copies it; the
        // second finds the copy unique and interns in place.
        base.push(&Value::str("new")).unwrap();
        let copy = Arc::as_ptr(base.str_dict().unwrap());
        assert_ne!(copy, Arc::as_ptr(kept.str_dict().unwrap()));
        base.push(&Value::str("a")).unwrap();
        base.push(&Value::str("newer")).unwrap();
        assert_eq!(
            Arc::as_ptr(base.str_dict().unwrap()),
            copy,
            "grown in place"
        );
        assert_eq!(
            kept.str_dict().unwrap().len(),
            3,
            "the kept column's dictionary is untouched"
        );
        assert_eq!(
            (kept.get(0), kept.get(1)),
            (Value::str("c"), Value::str("a"))
        );
        assert_eq!(base.str_dict().unwrap().len(), 5);
        let after: Vec<u32> = (0..3).map(|i| base.str_code(i).unwrap()).collect();
        assert_eq!(before, after, "old strings keep their codes");
        assert_eq!(
            base.str_code(4),
            base.str_code(0),
            "a repeated string reuses its code"
        );
        let all: Vec<Value> = (0..base.len()).map(|i| base.get(i)).collect();
        let want = ["a", "b", "c", "new", "a", "newer"].map(Value::str);
        assert_eq!(all, want);
    }

    #[test]
    fn canonical_codes_merge_an_entry_sent_twice() {
        let mut dict = StrDict::default();
        dict.intern("a");
        assert!(!dict.may_repeat());
        dict.extend_unindexed(["b", "a", "b"].into_iter());
        assert!(dict.may_repeat());
        let codes = [3, 1, 2, 0, 0];
        let nulls = BitSet::from_indices(5, [4]);
        let canon = canonical_codes(&dict, &codes, &nulls);
        assert_eq!(*canon, [3, 3, 2, 2, 0], "first code per string, null 0");
    }

    #[test]
    fn gather_preserves_nulls() {
        let mut c = Column::new(DataType::Date);
        c.push(&Value::Date(Date(10))).unwrap();
        c.push(&Value::Null).unwrap();
        let g = c.gather(&[1, 0]);
        assert!(g.get(0).is_null());
        assert_eq!(g.get(1), Value::Date(Date(10)));
    }
}
