//! Mutation property of the checkpoint file: `Database::open` of a
//! damaged `EASNAP5` file is a typed error, or a database whose every
//! index answers as its heap — never a panic, and never an allocation out
//! of proportion to the file.
//!
//! The base is a real one: a table with a composite primary key and a
//! secondary index over doubles (NULLs, `-0.0`, NaNs, repeats), beside a
//! table with an overflow record. Each case truncates it, or flips bits
//! and rewrites bytes anywhere in it, and then seals the base frame
//! again, so that what is tested is the structure checks behind the
//! checksums. Other cases damage what the checksum cannot vouch for on
//! purpose: an index order naming a record twice, naming one past the
//! table, or with two places swapped, or a heap's live row count — each
//! of which must be a `DbError::Storage`.
//!
//! A second file is the same base with one frame appended: the table of
//! the two indexes after rows were deleted, inserted and updated, as its
//! dirty pages and, for each index, the rows removed from and filed in
//! its order. A bit flipped anywhere in the frame is damage its
//! checksums find; a frame sealed again over a lie — a page numbered
//! past the table, a live row count the pages do not bear out, or a
//! delta that lies: a removed place the order does not hold, a filed
//! place that holds no record, a list out of key order, a place filed
//! twice — is a `DbError::Storage` too; so is a file of the format
//! before this one (`EASNAP4`); and a frame cut short is dropped,
//! leaving the base.
//!
//! One test only: the allocation counter is process-wide.

use easia_db::storage::RowId;
use easia_db::txn::seal_batch;
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

/// Where the frame's entry for `FILES` holds what the cases below lie
/// about: each index's list of removed rows, the heap section (its page
/// count), the section's live row count, and each index's list of filed
/// rows.
#[derive(Clone, Copy)]
struct Layout {
    removed: [usize; INDEXES],
    section: usize,
    live: usize,
    filed: [usize; INDEXES],
}

/// The checkpoint file of the two tables, written once: its base alone,
/// and the base with a frame after it; and where the frame's fields are.
fn sample(framed: bool) -> (Vec<u8>, Layout) {
    static IMAGES: OnceLock<(Vec<u8>, Vec<u8>, Layout)> = OnceLock::new();
    let (base, with_frame, layout) = IMAGES.get_or_init(write_sample);
    match framed {
        false => (base.clone(), *layout),
        true => (with_frame.clone(), *layout),
    }
}

fn write_sample() -> (Vec<u8>, Vec<u8>, Layout) {
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
    let base = std::fs::read(dir.join("snapshot.db")).unwrap();
    // The first row is deleted, its place left dead; rows are added and
    // two moved: the frame holds the first and the last pages of FILES.
    db.execute("DELETE FROM files WHERE name = 't00.edf' AND sim = 'S000'")
        .unwrap();
    db.execute("UPDATE files SET x = 1.5 WHERE sim = 'S001' AND name < 't02.edf'")
        .unwrap();
    for i in 0..FRAME_INSERTS {
        db.execute_with_params(
            "INSERT INTO files VALUES (?, 'S999', ?)",
            &[Value::Str(format!("n{i:02}.edf")), Value::Double(i as f64)],
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    let framed = std::fs::read(dir.join("snapshot.db")).unwrap();
    assert_eq!(&framed[..base.len()], &base[..], "a frame is appended");
    // Where the cases below find the frame's fields: the payload is its
    // CSN, one table, the table's name, then FILES' entry.
    let u32_at = |at: usize| u32::from_le_bytes(framed[at..at + 4].try_into().unwrap());
    let name_at = base.len() + 13 + 8 + 4 + 4;
    assert_eq!(
        &framed[name_at..name_at + 5],
        b"FILES",
        "the frame's one table"
    );
    let mut at = name_at + 5;
    let removed = [0; INDEXES].map(|_| {
        assert_eq!(u32_at(at) as usize, REMOVED, "rows removed from an order");
        at += 4 + 8 * REMOVED;
        at - 4 - 8 * REMOVED
    });
    let pages = db.table("FILES").unwrap().heap.page_count();
    assert_eq!(u32_at(at) as usize, pages);
    assert_eq!(u32_at(at + 8), 0, "the first page listed is the first");
    let list = 4 + 8 * FILED;
    let filed = [0, 1].map(|i| framed.len() - list * (INDEXES - i));
    for at in filed {
        assert_eq!(u32_at(at) as usize, FILED, "rows filed in an order");
    }
    let live = filed[0] - 8;
    assert_eq!(u32_at(live) as usize, ROWS - 1 + FRAME_INSERTS);
    let layout = Layout {
        removed,
        section: at,
        live,
        filed,
    };
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    (base, framed, layout)
}

/// Rows the frame adds to `FILES`, beside the one it deletes.
const FRAME_INSERTS: usize = 10;
/// Rows the frame removes from each order of `FILES`: the one deleted
/// and the old versions of the two updated.
const REMOVED: usize = 3;
/// Rows the frame files in each order: the inserted and the new
/// versions of the updated.
const FILED: usize = FRAME_INSERTS + 2;

/// Seal the frame at `at` again over whatever its payload now is.
fn reseal(image: &mut Vec<u8>, at: usize) {
    if image.len() >= at + 13 {
        let sealed = seal_batch(&image[at + 13..]);
        image.truncate(at);
        image.extend_from_slice(&sealed);
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
        kind in 0u8..15,
        edits in proptest::collection::vec((any::<usize>(), 0u8..8, any::<u8>(), any::<bool>()), 1..6),
        a in 0usize..ROWS,
        b in 1usize..ROWS,
        index in 0usize..INDEXES,
    ) {
        let framed = kind >= 6;
        let (clean, layout) = sample(framed);
        let mut image = clean.clone();
        let len = image.len();
        // The frame is sealed again after a lie; the base always is.
        let frame = sample(false).0.len();
        let sealed = if framed { frame } else { 8 };
        let order = |at: usize| order_at(len, index, at);
        let position = |image: &[u8], at: usize| image[order(at)..order(at) + 4].to_vec();
        let other = (a + b) % ROWS;
        // Damage the checksum cannot vouch for must be refused by name,
        // and so must a bit flipped in a whole frame.
        let refused = (2..14).contains(&kind);
        // Entry `i` of the delta list at `list`: a row id.
        let entry = |list: usize, i: usize| list + 4 + 8 * i;
        let rid_at = |image: &[u8], at: usize| image[at..at + 8].to_vec();
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
            5 => {
                let rows_at = order_at(len, 0, 0) - 8;
                let lie = if edits[0].3 { u64::MAX } else { (ROWS + 1 + edits[0].0 % 5) as u64 };
                image[rows_at..rows_at + 8].copy_from_slice(&lie.to_le_bytes());
            }
            6 => {
                let (at, bit, ..) = edits[0];
                image[frame + at % (len - frame)] ^= 1 << bit;
            }
            7 => {
                // The section's page count, how many pages are listed,
                // the first's number.
                let npages_at = layout.section;
                let npages = u32::from_le_bytes(image[npages_at..npages_at + 4].try_into().unwrap());
                let past = npages + (edits[0].0 % 3) as u32;
                image[npages_at + 8..npages_at + 12].copy_from_slice(&past.to_le_bytes());
            }
            8 => {
                // A filed place that holds no record: the row deleted
                // first (row id 0), or one past the table.
                let at = entry(layout.filed[index], a % FILED);
                let dead = if edits[0].3 { 0u64 } else { u64::MAX };
                image[at..at + 8].copy_from_slice(&dead.to_le_bytes());
            }
            9 => {
                let lie = if edits[0].3 { 0 } else { (ROWS + FRAME_INSERTS + edits[0].0 % 5) as u64 };
                image[layout.live..layout.live + 8].copy_from_slice(&lie.to_le_bytes());
            }
            10 => {
                // A removed place the order does not hold: a row the
                // frame files (not in the image before it), one past the
                // table, or a row that stays (row id 5).
                let at = entry(layout.removed[index], a % REMOVED);
                let lie = match edits[0].0 % 3 {
                    0 => rid_at(&image, entry(layout.filed[index], b % FILED)),
                    1 => u64::MAX.to_le_bytes().to_vec(),
                    _ => 5u64.to_le_bytes().to_vec(),
                };
                image[at..at + 8].copy_from_slice(&lie);
            }
            11 => {
                // A list out of key order: two entries of the removed
                // list, or of the filed one, swapped.
                let (list, n) = match edits[0].3 {
                    true => (layout.removed[index], REMOVED),
                    false => (layout.filed[index], FILED),
                };
                let (i, j) = (a % n, (a + 1 + b % (n - 1)) % n);
                let (ri, rj) = (rid_at(&image, entry(list, i)), rid_at(&image, entry(list, j)));
                image[entry(list, i)..entry(list, i) + 8].copy_from_slice(&rj);
                image[entry(list, j)..entry(list, j) + 8].copy_from_slice(&ri);
            }
            12 => {
                // A place filed twice: an entry repeated in the list, or
                // a row the order already holds (row id 5).
                let i = a % (FILED - 1);
                let twice = match edits[0].3 {
                    true => rid_at(&image, entry(layout.filed[index], i)),
                    false => 5u64.to_le_bytes().to_vec(),
                };
                image[entry(layout.filed[index], i + 1)..entry(layout.filed[index], i + 1) + 8]
                    .copy_from_slice(&twice);
            }
            // The format before this one is named and refused.
            13 => image[6] = b'4',
            // A frame cut short is dropped: the base remains.
            _ => image.truncate(frame + edits[0].0 % (len - frame)),
        }
        if kind != 6 && kind != 14 {
            reseal(&mut image, sealed);
        }
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
                let rows = db.table("FILES").unwrap().heap.len();
                if image == clean {
                    prop_assert!(rows == ROWS + usize::from(framed) * (FRAME_INSERTS - 1));
                }
                if kind == 14 {
                    prop_assert!(rows == ROWS, "a torn frame leaves the base");
                }
            }
            Err(e) => {
                prop_assert!(image != clean, "the clean image refused: {e}");
                if refused {
                    prop_assert!(matches!(e, DbError::Storage(_)), "kind {kind}: {e:?}");
                }
                if kind == 13 {
                    prop_assert!(e.to_string().contains("a EASNAP4 file"), "{e}");
                }
            }
        }
    }
}
