//! Mutation property of the checkpoint file: `Database::open` of a
//! damaged `EASNAP6` file is a typed error, or a database whose every
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
//! dirty pages alone. A bit flipped anywhere in the frame is damage its
//! checksums find; a frame sealed again over a lie — a page numbered
//! past the table, a live row count the pages do not bear out, or a page
//! holding a record that is not a row of the table — is a
//! `DbError::Storage` too; so is a file of the format before this one
//! (`EASNAP5`); and a frame cut short is dropped, leaving the base. A
//! frame page that lies about which of its slots hold a record — one
//! that revives a slot the frame tombstoned, as its zeroed bytes or as
//! a copy of another row, or tombstones a live one — with the live count
//! made to match, is a typed error or a database whose indexes answer as
//! its heap: the rows the frame removes and files are read off its
//! pages, so what a lying page says is what the heap then holds. Two
//! lies the orders' ascent cannot see are refused by name: a record
//! rewritten to carry its order neighbour's primary key, in the base or
//! in a frame (a unique index holding a key twice), and a frame page
//! gaining a slot over a live record's bytes (two records overlapping).
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
/// about: the heap section (its page count), the first and the last
/// page it lists, and the section's live row count.
#[derive(Clone, Copy)]
struct Layout {
    section: usize,
    pages: [usize; 2],
    live: usize,
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
    let section = name_at + 5;
    let pages = db.table("FILES").unwrap().heap.page_count();
    assert_eq!(u32_at(section) as usize, pages);
    let listed = u32_at(section + 4) as usize;
    assert_eq!(u32_at(section + 8), 0, "the first page listed is the first");
    // Entry `i` is its number and its page.
    let entry = |i: usize| section + 8 + i * (4 + PAGE);
    let over = entry(listed);
    assert_eq!(&framed[over..over + 8], &[0; 8], "no overflow entry");
    let live = framed.len() - 8;
    assert_eq!(over + 8, live);
    let live_rows = u64::from_le_bytes(framed[live..].try_into().unwrap());
    assert_eq!(live_rows as usize, ROWS - 1 + FRAME_INSERTS);
    let layout = Layout {
        section,
        pages: [entry(0) + 4, entry(listed - 1) + 4],
        live,
    };
    // The first page's tombstones: the row deleted and the old versions
    // of the two updated.
    assert_eq!(slots(&framed[entry(0) + 4..], false).len(), 3);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    (base, framed, layout)
}

/// Rows the frame adds to `FILES`, beside the one it deletes.
const FRAME_INSERTS: usize = 10;
/// A heap page.
const PAGE: usize = 8192;

/// The slots of the page at the start of `page` that hold a record
/// (`live`) or are tombstones.
fn slots(page: &[u8], live: bool) -> Vec<usize> {
    let count = u16::from_le_bytes([page[0], page[1]]) as usize;
    (0..count)
        .filter(|&s| (len_of(page, s) != 0) == live)
        .collect()
}

/// Where slot `slot`'s entry of the page at `page` starts: its offset,
/// then its length.
fn slot_at(page: usize, slot: usize) -> usize {
    page + 6 + 4 * slot
}

fn len_of(page: &[u8], slot: usize) -> u16 {
    let at = slot_at(0, slot) + 2;
    u16::from_le_bytes([page[at], page[at + 1]])
}

/// Add `by` to the frame's live row count.
fn recount(image: &mut [u8], layout: Layout, by: i64) {
    let at = layout.live;
    let live = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    image[at..at + 8].copy_from_slice(&(live as i64 + by).to_le_bytes());
}

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
        kind in 0u8..17,
        edits in proptest::collection::vec((any::<usize>(), 0u8..8, any::<u8>(), any::<bool>()), 1..6),
        a in 0usize..ROWS,
        b in 1usize..ROWS,
        index in 0usize..INDEXES,
    ) {
        let framed = match kind {
            15 => edits[0].3,
            kind => kind >= 6,
        };
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
        let refused = (2..10).contains(&kind) || kind == 13 || kind >= 15;
        // The first or the last page the frame lists, and its slots that
        // hold a record.
        let page = layout.pages[usize::from(edits[0].3)];
        let live = if framed { slots(&image[page..], true) } else { Vec::new() };
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
                // A record that is not a row: one byte short, or a cell
                // count of 2 or 4 for the 3 columns.
                let slot = live[a % live.len()];
                let at = slot_at(page, slot);
                match edits[0].2 % 3 {
                    0 => {
                        let short = len_of(&image[page..], slot) - 1;
                        image[at + 2..at + 4].copy_from_slice(&short.to_le_bytes());
                    }
                    n => {
                        let rec = page + u16::from_le_bytes([image[at], image[at + 1]]) as usize;
                        image[rec..rec + 4].copy_from_slice(&(2 * n as u32).to_le_bytes());
                    }
                }
            }
            9 => {
                let lie = if edits[0].3 { 0 } else { (ROWS + FRAME_INSERTS + edits[0].0 % 5) as u64 };
                image[layout.live..layout.live + 8].copy_from_slice(&lie.to_le_bytes());
            }
            10 | 11 => {
                // A tombstone of the first page revived: over its zeroed
                // bytes, or as a copy of a live record's place and length.
                let page = layout.pages[0];
                let (dead, live) = (slots(&image[page..], false), slots(&image[page..], true));
                let at = |slot: usize| slot_at(page, slot);
                let slot = dead[a % dead.len()];
                let revived = match kind {
                    10 => [&image[at(slot)..at(slot) + 2], &(1 + b as u16 % 40).to_le_bytes()].concat(),
                    _ => image[at(live[b % live.len()])..at(live[b % live.len()]) + 4].to_vec(),
                };
                image[at(slot)..at(slot) + 4].copy_from_slice(&revived);
                recount(&mut image, layout, 1);
            }
            12 => {
                // A live record tombstoned.
                let at = slot_at(page, live[a % live.len()]);
                image[at + 2..at + 4].fill(0);
                recount(&mut image, layout, -1);
            }
            // The format before this one is named and refused.
            13 => image[6] = b'5',
            15 => {
                // A row's key rewritten to the next one's in its unique
                // order: in the base, row `i`'s SIM to that of row
                // `i + 10` (same NAME); in the frame, an inserted row's
                // NAME to the next inserted one's.
                let (name, sim, to, from) = match framed {
                    false => {
                        let i = a % (ROWS - 10);
                        let name = format!("t{:02}.edf", i % 10);
                        let sim = (format!("S{:03}", i / 10), format!("S{:03}", i / 10 + 1));
                        (name.clone(), sim.0, (name, sim.1), 8)
                    }
                    true => {
                        let j = a % (FRAME_INSERTS - 1);
                        let name = format!("n{j:02}.edf");
                        let to = (format!("n{:02}.edf", j + 1), "S999".to_string());
                        (name, "S999".into(), to, frame)
                    }
                };
                let record = |name: &str, sim: &str| {
                    [&[3, 7, 0, 0, 0][..], name.as_bytes(), &[3, 4, 0, 0, 0], sim.as_bytes()].concat()
                };
                let old = record(&name, &sim);
                let at = from + image[from..].windows(old.len()).position(|w| w == old).unwrap();
                image[at..at + old.len()].copy_from_slice(&record(&to.0, &to.1));
            }
            16 => {
                // The last frame page gains a slot over a live record.
                let page = layout.pages[1];
                let u16_at = |image: &[u8], at: usize| u16::from_le_bytes([image[at], image[at + 1]]);
                let (count, free_start) = (u16_at(&image, page), u16_at(&image, page + 2));
                assert!(u16_at(&image, page + 4) >= free_start + 4, "room for a slot");
                let live = slots(&image[page..], true);
                let copied = slot_at(page, live[a % live.len()]);
                let slot = slot_at(page, count as usize);
                image.copy_within(copied..copied + 4, slot);
                image[page..page + 2].copy_from_slice(&(count + 1).to_le_bytes());
                image[page + 2..page + 4].copy_from_slice(&(free_start + 4).to_le_bytes());
                recount(&mut image, layout, 1);
            }
            // A frame cut short is dropped: the base remains.
            14 => image.truncate(frame + edits[0].0 % (len - frame)),
            _ => unreachable!("kind {kind}"),
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
                let named = match kind {
                    13 => "a EASNAP5 file",
                    15 => "index order holds a unique key twice",
                    16 => "two records overlap",
                    _ => "",
                };
                prop_assert!(e.to_string().contains(named), "kind {kind}: {e}");
            }
        }
    }
}
