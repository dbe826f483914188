//! Pairwise hash equi-join. Not a Table-1 operation and not on the
//! engine's path: `create edge … where` (paper Eq. 2) is built by the
//! n-way tuple join in `graql_core::ddl::build_edge`. This kernel is the
//! two-table library form.

use graql_types::Value;
use rustc_hash::FxHashMap;

use crate::table::Table;

/// When one side is at least this many times smaller than the other, the
/// join builds its hash table on the smaller side (row counts are exact
/// cardinalities — better statistics than any estimate). The factor keeps
/// a margin so the order-restoring pair sort on the swapped path is
/// amortized by the smaller build.
const BUILD_SWAP_FACTOR: usize = 4;

/// Equi-join `l` and `r` on the given key columns, returning matching
/// `(left_row, right_row)` index pairs in left-major order.
///
/// Null keys never join (SQL semantics). Keys compare under semantic
/// equality, so an `integer` column can join a `float` column.
///
/// The output is left-major (ascending left row, then ascending right
/// row) regardless of which side the hash table is built on — when the
/// build side is swapped, an order-restoring sort puts the pairs back in
/// the canonical sequence, so the physical choice is invisible in
/// results.
pub fn hash_join_pairs(l: &Table, lkeys: &[usize], r: &Table, rkeys: &[usize]) -> Vec<(u32, u32)> {
    assert_eq!(lkeys.len(), rkeys.len(), "join key arity mismatch");
    let key_of = |t: &Table, keys: &[usize], i: usize| -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(keys.len());
        for &c in keys {
            let v = t.get(i, c);
            if v.is_null() {
                return None; // null keys never join
            }
            key.push(v);
        }
        Some(key)
    };
    // Build on the right unless the left is much smaller.
    let swap = l.n_rows() * BUILD_SWAP_FACTOR < r.n_rows();
    let (build, bkeys, probe, pkeys) = if swap {
        (l, lkeys, r, rkeys)
    } else {
        (r, rkeys, l, lkeys)
    };
    let mut index: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
    for b in 0..build.n_rows() {
        if let Some(key) = key_of(build, bkeys, b) {
            index.entry(key).or_default().push(b as u32);
        }
    }
    let mut out: Vec<(u32, u32)> = Vec::new();
    for p in 0..probe.n_rows() {
        let matches = key_of(probe, pkeys, p).and_then(|key| index.get(&key));
        for &b in matches.into_iter().flatten() {
            out.push(if swap { (b, p as u32) } else { (p as u32, b) });
        }
    }
    if swap {
        // Probing right-major emitted right-major pairs; restore the
        // canonical left-major order.
        out.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use graql_types::DataType;

    fn products() -> Table {
        let schema = TableSchema::of(&[
            ("id", DataType::Varchar(8)),
            ("producer", DataType::Varchar(8)),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("p1"), Value::str("m1")],
                vec![Value::str("p2"), Value::str("m2")],
                vec![Value::str("p3"), Value::str("m1")],
                vec![Value::str("p4"), Value::Null],
            ],
        )
        .unwrap()
    }

    fn producers() -> Table {
        let schema = TableSchema::of(&[("id", DataType::Varchar(8))]);
        Table::from_rows(schema, vec![vec![Value::str("m1")], vec![Value::str("m2")]]).unwrap()
    }

    #[test]
    fn fk_join_matches_paper_producer_edge() {
        // `create edge producer … where ProductVtx.producer = ProducerVtx.id`
        let pairs = hash_join_pairs(&products(), &[1], &producers(), &[0]);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn null_keys_never_join() {
        let pairs = hash_join_pairs(&products(), &[1], &producers(), &[0]);
        assert!(pairs.iter().all(|&(l, _)| l != 3));
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let pairs = hash_join_pairs(&producers(), &[0], &products(), &[1]);
        // m1 matches p1 and p3.
        assert_eq!(pairs, vec![(0, 0), (0, 2), (1, 1)]);
    }

    #[test]
    fn multi_column_keys() {
        let schema = TableSchema::of(&[("a", DataType::Integer), ("b", DataType::Integer)]);
        let l = Table::from_rows(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Int(3)],
            ],
        )
        .unwrap();
        let r = Table::from_rows(schema, vec![vec![Value::Int(1), Value::Int(3)]]).unwrap();
        let pairs = hash_join_pairs(&l, &[0, 1], &r, &[0, 1]);
        assert_eq!(pairs, vec![(1, 0)]);
    }

    #[test]
    fn cross_numeric_family_join() {
        let ls = TableSchema::of(&[("x", DataType::Integer)]);
        let rs = TableSchema::of(&[("y", DataType::Float)]);
        let l = Table::from_rows(ls, vec![vec![Value::Int(2)]]).unwrap();
        let r = Table::from_rows(rs, vec![vec![Value::Float(2.0)]]).unwrap();
        assert_eq!(hash_join_pairs(&l, &[0], &r, &[0]), vec![(0, 0)]);
    }

    #[test]
    fn swapped_build_side_preserves_pair_order() {
        // Left is tiny (1 row), right is big enough to trigger the
        // smaller-side build; the pairs must still come out left-major.
        let ls = TableSchema::of(&[("k", DataType::Integer)]);
        let l = Table::from_rows(ls.clone(), vec![vec![Value::Int(7)]]).unwrap();
        let r = Table::from_rows(
            ls,
            (0..50).map(|i| vec![Value::Int(if i % 3 == 0 { 7 } else { 1000 + i })]),
        )
        .unwrap();
        let pairs = hash_join_pairs(&l, &[0], &r, &[0]);
        let expected: Vec<(u32, u32)> = (0..50u32).filter(|j| j % 3 == 0).map(|j| (0, j)).collect();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn empty_sides() {
        let p = products();
        let empty = Table::empty(p.schema().clone());
        assert!(hash_join_pairs(&empty, &[1], &p, &[1]).is_empty());
        assert!(hash_join_pairs(&p, &[1], &empty, &[1]).is_empty());
    }
}
