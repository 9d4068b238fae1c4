//! The order of index keys is `Value::total_cmp`'s. A B+tree files each
//! key as the `encode_row` record of its cells and compares those bytes
//! cell by cell (`KeyRef::order`), never decoding them; `has_prefix`
//! reads them in place too. Both must answer as their value versions:
//! `total_cmp` cell by cell, a key before every longer key it leads, and
//! `btree::has_prefix` over values.
//!
//! The cells cover every kind, and the pairs where kinds and bit
//! patterns meet: NULL, `0.0` beside `-0.0`, NaNs of either sign and
//! other payloads, `1` beside `1.0`, `2^53` beside `2^53 + 1` (equal as
//! doubles), a VARCHAR, a CLOB and a DATALINK with the same text, blobs,
//! and keys that lead one another.

use easia_db::index::btree::{has_prefix, KeyRef};
use easia_db::value::encode_row;
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

fn record(key: &[Value]) -> Vec<u8> {
    let mut record = Vec::new();
    encode_row(key, &mut record);
    record
}

/// Hold the byte order and `has_prefix` to their value versions on
/// every pair of `keys`.
fn agree(keys: &[Vec<Value>]) -> Result<(), TestCaseError> {
    let records: Vec<Vec<u8>> = keys.iter().map(|k| record(k)).collect();
    for (a, ra) in keys.iter().zip(&records) {
        let ka = KeyRef::new(ra).unwrap();
        for (b, rb) in keys.iter().zip(&records) {
            let kb = KeyRef::new(rb).unwrap();
            let (bytes, values) = (ka.order(kb), value_cmp(a, b));
            prop_assert!(bytes == values, "{a:?} vs {b:?}: {bytes:?}, not {values:?}");
            prop_assert!(ka.has_prefix(kb) == has_prefix(a, b), "{a:?} under {b:?}");
        }
    }
    Ok(())
}

#[test]
fn every_pair_of_one_and_two_cell_keys_agrees() {
    let cells = cells();
    let mut keys: Vec<Vec<Value>> = cells.iter().map(|c| vec![c.clone()]).collect();
    // Two-cell keys led by the cells that tie across kinds.
    for lead in [Value::Int(1), Value::Double(1.0), Value::Double(-0.0)] {
        for c in &cells {
            keys.push(vec![lead.clone(), c.clone()]);
        }
    }
    agree(&keys).unwrap();
}

#[test]
fn a_key_view_is_a_whole_record() {
    let mut rec = record(&[Value::Int(7), Value::Str("seven".into())]);
    assert!(KeyRef::new(&rec).is_ok());
    assert!(KeyRef::new(&rec[..rec.len() - 1]).is_err(), "cut short");
    rec.push(0);
    assert!(KeyRef::new(&rec).is_err(), "trailing bytes");
    rec.pop();
    rec[4] = 0xEE;
    assert!(KeyRef::new(&rec).is_err(), "no tag");
}

proptest! {
    /// Random keys of one to three cells, and keys cut from their own
    /// leading cells.
    #[test]
    fn byte_order_and_prefixes_are_the_value_versions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = cells();
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
