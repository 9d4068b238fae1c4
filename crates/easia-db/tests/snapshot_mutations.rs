//! Mutation property of the checkpoint image: `Database::open` of a
//! damaged `EASNAP3` image is a typed error, or a database whose every
//! index answers as its heap — never a panic, and never an allocation out
//! of proportion to the image.
//!
//! The image is a real one: a table with a composite primary key and a
//! secondary index over doubles (NULLs, `-0.0`, NaNs, repeats), beside a
//! table with an overflow record. Each case truncates it, or flips bits
//! and rewrites bytes anywhere in it, and then recomputes the body CRC,
//! so that what is tested is the structure checks behind the checksum.
//! Other cases damage what the checksum cannot vouch for on purpose: an
//! index order naming a record twice, naming one past the table, or with
//! two positions swapped, or a heap's live row count — each of which
//! must be a `DbError::Storage`.
//!
//! One test only: the allocation counter is process-wide.

use easia_db::crc::crc32;
use easia_db::storage::RowId;
use easia_db::value::decode_row;
use easia_db::{Database, DbError, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::OnceLock;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Rows of `FILES`, the last table of the image: its two index orders
/// end the image, after its heap's live row count.
const ROWS: usize = 300;
const INDEXES: usize = 2;
/// Bytes `open` may allocate per image byte, plus a constant.
const PER_BYTE: u64 = 64;
const CONSTANT: u64 = 16 * 1024;

fn dir() -> PathBuf {
    std::env::temp_dir().join(format!("easia-db-snap-mutations-{}", std::process::id()))
}

/// The checkpoint image of the two tables, written once.
fn sample() -> Vec<u8> {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(write_sample).clone()
}

fn write_sample() -> Vec<u8> {
    let dir = dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE author (name VARCHAR(20) PRIMARY KEY, bio CLOB)")
        .unwrap();
    for (name, len) in [("ada", 10), ("bob", 6000), ("cy", 0)] {
        db.execute_with_params(
            "INSERT INTO author VALUES (?, ?)",
            &[Value::Str(name.into()), Value::Clob("b".repeat(len))],
        )
        .unwrap();
    }
    db.execute(
        "CREATE TABLE files (name VARCHAR(20), sim VARCHAR(20), x DOUBLE, \
         PRIMARY KEY (name, sim))",
    )
    .unwrap();
    db.execute("CREATE INDEX ix_files_x ON files (x)").unwrap();
    for i in 0..ROWS {
        let x = match i % 7 {
            0 => Value::Null,
            1 => Value::Double(-0.0),
            2 => Value::Double(f64::NAN),
            _ => Value::Double((i % 23) as f64),
        };
        db.execute_with_params(
            "INSERT INTO files VALUES (?, ?, ?)",
            &[
                Value::Str(format!("t{:02}.edf", i % 10)),
                Value::Str(format!("S{:03}", i / 10)),
                x,
            ],
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    drop(db);
    let image = std::fs::read(dir.join("snapshot.db")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    image
}

fn reseal(image: &mut [u8]) {
    if image.len() >= 12 {
        let crc = crc32(&image[12..]);
        image[8..12].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The `u32` at order position `at` of index `index` of `FILES`.
fn order_at(image_len: usize, index: usize, at: usize) -> usize {
    image_len - 4 * ROWS * (INDEXES - index) + 4 * at
}

/// Every index of every table files each heap row once, under the row's
/// own key cells, in ascending key order.
fn indexes_are_the_heap(db: &Database) -> Result<(), TestCaseError> {
    for name in db.table_names() {
        let t = db.table(&name).unwrap();
        let rows: HashMap<RowId, Vec<Value>> = (t.heap.records())
            .map(|(rid, rec)| (rid, decode_row(rec, &mut 0).unwrap()))
            .collect();
        for ix in &t.indexes {
            let (mut ok, mut seen, mut last) = (true, HashSet::new(), None::<Vec<Value>>);
            ix.tree.scan_from(&[], |key, rids| {
                let key = key.values();
                let ascends = last.as_ref().is_none_or(|last| {
                    let cmp = last.iter().zip(&key).map(|(a, b)| a.total_cmp(b));
                    cmp.fold(Ordering::Equal, Ordering::then) == Ordering::Less
                });
                ok &= ascends && rids.windows(2).all(|w| w[0] < w[1]);
                for rid in rids {
                    ok &= seen.insert(*rid)
                        && rows.get(rid).is_some_and(|row| {
                            (ix.col_indices.iter().zip(&key))
                                .all(|(&c, k)| row[c].total_cmp(k) == Ordering::Equal)
                        });
                }
                last = Some(key);
                ok
            });
            prop_assert!(ok, "{name}.{} does not file its heap", ix.name);
            prop_assert!(seen.len() == rows.len() && ix.tree.len() == rows.len());
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn damaged_images_are_typed_errors_or_consistent_databases(
        kind in 0u8..6,
        edits in proptest::collection::vec((any::<usize>(), 0u8..8, any::<u8>(), any::<bool>()), 1..6),
        a in 0usize..ROWS,
        b in 1usize..ROWS,
        index in 0usize..INDEXES,
    ) {
        let clean = sample();
        let mut image = clean.clone();
        let len = image.len();
        let order = |at: usize| order_at(len, index, at);
        let position = |image: &[u8], at: usize| image[order(at)..order(at) + 4].to_vec();
        let other = (a + b) % ROWS;
        // Damage the checksum cannot vouch for must be refused by name.
        let refused = kind >= 2;
        match kind {
            0 => {
                for &(at, bit, byte, rewrite) in &edits {
                    let at = at % len;
                    if rewrite { image[at] = byte } else { image[at] ^= 1 << bit }
                }
            }
            1 => image.truncate(edits[0].0 % len),
            2 => {
                let named = position(&image, other);
                image[order(a)..order(a) + 4].copy_from_slice(&named);
            }
            3 => {
                let past = if edits[0].3 { u32::MAX } else { (ROWS + edits[0].0 % 1000) as u32 };
                image[order(a)..order(a) + 4].copy_from_slice(&past.to_le_bytes());
            }
            4 => {
                let (pa, pb) = (position(&image, a), position(&image, other));
                image[order(a)..order(a) + 4].copy_from_slice(&pb);
                image[order(other)..order(other) + 4].copy_from_slice(&pa);
            }
            _ => {
                let rows_at = order_at(len, 0, 0) - 8;
                let lie = if edits[0].3 { u64::MAX } else { (ROWS + 1 + edits[0].0 % 5) as u64 };
                image[rows_at..rows_at + 8].copy_from_slice(&lie.to_le_bytes());
            }
        }
        reseal(&mut image);
        let dir = dir();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.db"), &image).unwrap();
        let (opened, counts) = counted(|| Database::open(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
        let cap = PER_BYTE * image.len() as u64 + CONSTANT;
        prop_assert!(
            counts.bytes <= cap,
            "open allocated {} bytes for a {} byte image",
            counts.bytes,
            image.len()
        );
        match opened {
            Ok(db) => {
                prop_assert!(!refused, "kind {kind} opened");
                indexes_are_the_heap(&db)?;
                if image == clean {
                    prop_assert!(db.table("FILES").unwrap().heap.len() == ROWS);
                }
            }
            Err(e) => {
                prop_assert!(image != clean, "the clean image refused: {e}");
                if refused {
                    prop_assert!(matches!(e, DbError::Storage(_)), "kind {kind}: {e:?}");
                }
            }
        }
    }
}
