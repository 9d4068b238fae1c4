//! The order of index keys and ORDER BY is `Value::total_cmp`'s, computed
//! once: `value::order_key` writes each cell as bytes whose `memcmp` is
//! that order, and a B+tree, an index walk's bounds and a sort compare
//! those bytes. This is the encoding's oracle: over every pair of keys
//! the bytes must answer as the value versions do — `total_cmp` cell by
//! cell, a key before every longer key it leads; the complemented (DESC)
//! bytes the other way round; `starts_with` as `btree::has_prefix` over
//! values; and an index walk's byte bounds (`Tail::key_range`) admit
//! exactly the cells `Tail::admits` admits, from where the walk seeks.
//!
//! The cells cover every kind, and the pairs where kinds and bit
//! patterns meet: NULL, `0.0` beside `-0.0`, NaNs of either sign and
//! other payloads, `1` beside `1.0`, `2^53` beside `2^53 + 1` (equal as
//! doubles), a VARCHAR, a CLOB and a DATALINK with the same text, blobs,
//! and keys that lead one another; text and blobs holding `0x00`, which
//! the encoding escapes, are added beside them.

use easia_db::index::btree::{has_prefix, BPlusTree};
use easia_db::plan::Tail;
use easia_db::storage::RowId;
use easia_db::value::order_key;
use easia_db::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// The order over values: `total_cmp` cell by cell, then the shorter key.
fn value_cmp(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(a.len().cmp(&b.len()))
}

const TWO_53: i64 = 1 << 53;

/// Every cell kind, with the values where kinds meet.
fn cells() -> Vec<Value> {
    let mut cells = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
    for i in [i64::MIN, -1, 0, 1, 2, TWO_53, TWO_53 + 1, i64::MAX] {
        cells.extend([Value::Int(i), Value::Timestamp(i)]);
    }
    for d in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        TWO_53 as f64,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_beef),
        f64::from_bits(0xfff0_0000_0000_0001),
    ] {
        cells.push(Value::Double(d));
    }
    for text in ["", "a", "ab", "b", "é", "\u{7f}"] {
        cells.extend([
            Value::Str(text.into()),
            Value::Clob(text.into()),
            Value::Datalink(text.into()),
            Value::Blob(text.as_bytes().to_vec()),
        ]);
    }
    cells.push(Value::Blob(vec![0xff]));
    cells
}

/// Text and blobs holding the byte the encoding escapes.
fn zero_cells() -> Vec<Value> {
    let mut cells = Vec::new();
    for text in ["\0", "a\0", "a\0b", "a\0\0", "\0\u{1}"] {
        cells.extend([
            Value::Str(text.into()),
            Value::Blob(text.as_bytes().to_vec()),
        ]);
    }
    cells
}

/// `key`'s order key, each cell ascending or, with `desc`, descending.
fn order(key: &[Value], desc: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    key.iter().for_each(|v| order_key(v, desc, &mut bytes));
    bytes
}

/// The key a tree files for `key`, read back as values.
fn filed(key: &[Value]) -> Vec<Value> {
    let mut tree = BPlusTree::new();
    tree.insert(key.to_vec(), RowId(0));
    let mut back = Vec::new();
    tree.scan_from(&[], |k, _| {
        back = k.values();
        false
    });
    back
}

/// Hold the byte order, its complement, `starts_with` and the read-back
/// to their value versions on every pair of `keys`.
fn agree(keys: &[Vec<Value>]) -> Result<(), TestCaseError> {
    let asc: Vec<Vec<u8>> = keys.iter().map(|k| order(k, false)).collect();
    let desc: Vec<Vec<u8>> = keys.iter().map(|k| order(k, true)).collect();
    for (i, a) in keys.iter().enumerate() {
        let back = filed(a);
        prop_assert!(value_cmp(&back, a).is_eq(), "{a:?} reads back as {back:?}");
        for (j, b) in keys.iter().enumerate() {
            let (bytes, values) = (asc[i].cmp(&asc[j]), value_cmp(a, b));
            prop_assert!(bytes == values, "{a:?} vs {b:?}: {bytes:?}, not {values:?}");
            if a.len() == b.len() {
                let down = desc[i].cmp(&desc[j]);
                prop_assert!(down == values.reverse(), "DESC {a:?} vs {b:?}: {down:?}");
            }
            let under = asc[i].starts_with(&asc[j]);
            prop_assert!(under == has_prefix(a, b), "{a:?} under {b:?}");
        }
    }
    Ok(())
}

#[test]
fn every_pair_of_one_and_two_cell_keys_agrees() {
    let cells = [cells(), zero_cells()].concat();
    let mut keys: Vec<Vec<Value>> = cells.iter().map(|c| vec![c.clone()]).collect();
    // Two-cell keys led by the cells that tie across kinds.
    for lead in [Value::Int(1), Value::Double(1.0), Value::Double(-0.0)] {
        for c in &cells {
            keys.push(vec![lead.clone(), c.clone()]);
        }
    }
    agree(&keys).unwrap();
}

/// Every `Range` tail over the edge cells (either end open) and every
/// `Prefix` tail over their non-empty texts, under runs of zero to two
/// cells: the walk's byte bound admits a key under the run exactly when
/// `Tail::admits` admits its next cell, no key under another run, and
/// the walk seeks to the first key not below the tail's lower bound.
#[test]
fn index_walk_bounds_admit_what_the_tail_admits() {
    let cells = [cells(), zero_cells()].concat();
    let ends = (cells.iter().step_by(3).cloned().map(Some)).chain([None]);
    let ends: Vec<Option<Value>> = ends.collect();
    let mut tails = Vec::new();
    for lo in &ends {
        for hi in ends.iter().step_by(2) {
            let (lo, hi) = (lo.clone(), hi.clone());
            tails.push(Tail::Range { lo, hi });
        }
    }
    let texts = cells.iter().filter_map(|c| match c {
        Value::Str(s) if !s.is_empty() => Some(Tail::Prefix(s.clone())),
        _ => None,
    });
    tails.extend(texts);
    tails.push(Tail::All);
    let runs = [
        vec![],
        vec![Value::Int(1)],
        vec![Value::Str("a".into()), Value::Double(-0.0)],
    ];
    for run in &runs {
        for tail in &tails {
            let range = tail.key_range(run);
            let below = |c: &Value| {
                tail.lower_bound()
                    .is_some_and(|lo| c.total_cmp(&lo).is_lt())
            };
            for c in &cells {
                let key = order(&[&run[..], std::slice::from_ref(c)].concat(), false);
                let admits = range.admits(&key);
                assert_eq!(admits, tail.admits(c), "{tail:?} under {run:?}: {c:?}");
                assert_eq!(range.lo <= key, !below(c), "{tail:?} seeks past {c:?}");
                for other in &runs {
                    let key = [&other[..], std::slice::from_ref(c)].concat();
                    if !has_prefix(&key, run) {
                        let admits = range.admits(&order(&key, false));
                        assert!(!admits, "{tail:?} under {run:?}: {key:?}");
                    }
                }
            }
        }
    }
}

proptest! {
    /// Random keys of one to three cells, and keys cut from their own
    /// leading cells.
    #[test]
    fn byte_order_and_prefixes_are_the_value_versions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = [cells(), zero_cells()].concat();
        let mut keys: Vec<Vec<Value>> = (0..24)
            .map(|_| {
                (0..rng.gen_range(1..4))
                    .map(|_| cells[rng.gen_range(0..cells.len())].clone())
                    .collect()
            })
            .collect();
        for i in 0..8 {
            let lead = rng.gen_range(1..keys[i].len() + 1);
            keys.push(keys[i][..lead].to_vec());
        }
        agree(&keys)?;
    }
}
