//! The checkpoint image, `snapshot.db`: its byte layout, its one
//! writer, its one reader, and the checks `open` and `scrub` share.
//!
//! A checkpoint file is the magic, then a *base* frame holding every
//! table with its DDL, then any number of frames appended after it,
//! each holding the tables that changed, by name. Every frame is sealed
//! as a log batch is ([`crate::txn::seal_batch`]) and opens with the
//! image's CSN.
//!
//! A base's table entry is its heap section
//! (`HeapTable::write_section`, every page) and then each index's whole
//! order: the `u32` places of its rows (each page's slots in turn,
//! then the overflow entries), in key order. A frame's table entry is
//! its name and the heap section of its dirty pages, and nothing else.
//! A slot is never reused and a record never changes in place, so the
//! pages a frame replaces say what left and entered the image: a place
//! that held a record before the frame and holds none in it is a row
//! removed from every order, and one that held none and holds one is a
//! row filed (`HeapTable::restore_section` reports both). `open` merges
//! the base's orders with the rows filed since, less those removed, in
//! one pass and builds each tree from the result (`fill_indexes`).
//!
//! The module reads and writes tables through their heaps and trees,
//! and learns which records an image holds from a visibility closure;
//! when to write a frame or a whole image is the caller's.

use super::heap::Places;
use super::{put_str, Cursor, HeapTable, RowId, PAGE_SIZE};
use crate::crc::crc32;
use crate::db::{Index, Table};
use crate::error::{DbError, Result};
use crate::index::btree::KeyRef;
use crate::index::BPlusTree;
use crate::mvcc::Csn;
use crate::schema::TableSchema;
use crate::txn::{batch_header, frame_at, Frame, BATCH_HEADER_LEN};
use crate::value::{sieve_record, Records};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// The image's file name in a database's directory.
pub(crate) const FILE: &str = "snapshot.db";
/// What a checkpoint file starts with, before its base frame.
pub(crate) const MAGIC: &[u8] = b"EASNAP6\0";

/// Serialise an image at `csn` of `tables`: the whole image (`full`) —
/// the file magic, then a base frame holding every table with its DDL
/// and whole orders — or one frame holding each table by its name and
/// its dirty pages. `view` gives each table's live row count and which
/// of its records the image holds; only those are written, pages copied
/// with the slot of every other record tombstoned, and only those are
/// placed in an index's order.
///
/// Every record written is checked to be a row of its table
/// ([`check_record`]); one that is not is a typed error, raised
/// before anything on disk is touched.
pub(crate) fn write<V: Fn(RowId) -> bool>(
    full: bool,
    csn: Csn,
    tables: &[(&String, &Table)],
    mut view: impl FnMut(&str, &Table) -> (usize, V),
) -> Result<Vec<u8>> {
    // A base's pages and orders, or a frame's dirty pages, bound it:
    // reserved once.
    let room = |t: &Table| match full {
        true => (PAGE_SIZE + 4) * t.heap.page_count() + 4 * t.heap.len() * t.indexes.len(),
        false => (PAGE_SIZE + 4) * t.heap.dirty_pages(),
    };
    let mut out = Vec::with_capacity(tables.iter().map(|(_, t)| room(t)).sum::<usize>() + 4096);
    if full {
        out.extend_from_slice(MAGIC);
    }
    // Room for the frame header, filled in at the end.
    let header = out.len();
    out.resize(header + BATCH_HEADER_LEN, 0);
    out.extend_from_slice(&csn.to_le_bytes());
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for &(name, t) in tables {
        let (live, visible) = view(name, t);
        let keep = |rid, rec: &[u8]| match visible(rid) {
            true => check_record(&t.schema, rid, rec, |_| {}).map(|()| true),
            false => Ok(false),
        };
        if !full {
            put_str(&mut out, name);
            t.heap.write_section(false, live, keep, &mut out)?;
            continue;
        }
        put_str(&mut out, &schema_to_ddl(&t.schema));
        // Extra (non-implicit) indexes as DDL too.
        let extra = t.indexes.iter().filter(|ix| !ix.implicit);
        out.extend_from_slice(&(extra.clone().count() as u32).to_le_bytes());
        for ix in extra {
            put_str(&mut out, &index_to_ddl(&t.schema, ix));
        }
        t.heap.write_section(true, live, keep, &mut out)?;
        let places = t.heap.places();
        for ix in &t.indexes {
            let at = out.len();
            ix.tree.scan_from(&[], |_, rows| {
                for &rid in rows.iter().filter(|&&rid| visible(rid)) {
                    let place = places.of(rid).expect("a tree files rows of its heap");
                    out.extend_from_slice(&(place as u32).to_le_bytes());
                }
                true
            });
            if out.len() - at != 4 * live {
                return Err(DbError::Storage(format!(
                    "{name} index {} files {} of {live} rows",
                    ix.name,
                    (out.len() - at) / 4
                )));
            }
        }
    }
    let payload = &out[header + BATCH_HEADER_LEN..];
    if payload.len() > u32::MAX as usize {
        return Err(DbError::Storage("checkpoint frame over 4 GiB".into()));
    }
    let sealed = batch_header(payload.len(), crc32(payload));
    out[header..header + BATCH_HEADER_LEN].copy_from_slice(&sealed);
    Ok(out)
}

/// Put an image [`write`] wrote in `dir`. A frame is appended to the
/// file at `append`, where its last whole frame ends, and synced; a
/// torn frame a crash left there is cut off first, durably. A whole
/// image (`append` is `None`) is written beside the file and synced,
/// renamed over it, and the directory synced: the image reaches the
/// disk, then its name.
pub(crate) fn publish(dir: &Path, bytes: &[u8], append: Option<u64>) -> Result<()> {
    let path = dir.join(FILE);
    let io = || match append {
        Some(end) => {
            let mut file = OpenOptions::new().write(true).open(&path)?;
            if file.metadata()?.len() != end {
                file.set_len(end)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(end))?;
            file.write_all(bytes)?;
            file.sync_data()
        }
        None => {
            let tmp = dir.join("snapshot.tmp");
            let mut file = File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_data()?;
            std::fs::rename(&tmp, &path)?;
            File::open(dir)?.sync_all()
        }
    };
    io().map_err(|e: std::io::Error| DbError::Storage(format!("publish snapshot: {e}")))
}

/// A table's entry in an image, as [`read`] hands it to
/// [`Restore::table`].
pub(crate) enum Entry {
    /// A base's entry: the table's `CREATE TABLE`, and a `CREATE INDEX`
    /// for each index the table does not make itself.
    Create(String, Vec<String>),
    /// A frame's entry: the name of a table its base created.
    Name(String),
}

/// What an image is read into.
pub(crate) trait Restore {
    /// The table `entry` restores into: for a base's entry, the empty
    /// table its DDL creates.
    fn table(&mut self, entry: Entry) -> Result<&mut Table>;
}

/// A table's index orders as an image carries them: its base's whole
/// orders, in the places of the heap the base held, and the rows the
/// frames after it removed from them all and filed in them all.
pub(crate) struct Orders<'a> {
    /// Each index's base order, one after another.
    base: &'a [u8],
    /// How the heap the base held numbers its places.
    places: Places,
    /// Rows the base held: the length of each base order.
    rows: usize,
    /// Rows of the base's orders removed since.
    removed: BTreeSet<RowId>,
    /// Rows filed since and not removed again.
    filed: BTreeSet<RowId>,
    /// A frame replaced or extended the heap the base held.
    moved: bool,
}

/// Read a checkpoint file [`write`] wrote into `into`: restore the
/// base, let each whole frame's pages and overflow entries replace or
/// extend it, noting the rows each frame removes and files, and build
/// every index from its base order and those rows. A torn last frame is
/// dropped, as a torn log tail is. Damage is a typed storage error, and
/// so is a body that lies under good checksums, and a file of another
/// format. Returns the image's CSN (its newest frame's), and where its
/// base and its last whole frame end.
pub(crate) fn read(file: &[u8], into: &mut impl Restore) -> Result<(Csn, u64, u64)> {
    let format = |magic: &[u8]| String::from_utf8_lossy(&magic[..7]).into_owned();
    if file.len() >= MAGIC.len() && file.starts_with(&MAGIC[..6]) && !file.starts_with(MAGIC) {
        return Err(DbError::Storage(format!(
            "bad snapshot magic: a {} file, and this build reads {} only",
            format(file),
            format(MAGIC)
        )));
    }
    let (frames, end, damage) = frames(file);
    if let Some((at, what)) = damage {
        return Err(DbError::Storage(format!("snapshot at byte {at}: {what}")));
    }
    let mut orders: BTreeMap<String, Orders> = BTreeMap::new();
    let mut csn = 0;
    for (i, &(_, payload)) in frames.iter().enumerate() {
        let mut c = Cursor::new("snapshot", payload, 0);
        csn = c.u64()?;
        for _ in 0..c.u32()? {
            if i == 0 {
                let entry = Entry::Create(
                    c.str()?,
                    (0..c.u32()?).map(|_| c.str()).collect::<Result<_>>()?,
                );
                let t = into.table(entry)?;
                t.heap.restore_section(&mut c, |_, _| {})?;
                let (rows, indexes) = (t.heap.len(), t.indexes.len());
                let order = Orders {
                    base: c.take(4 * rows * indexes)?,
                    places: t.heap.places(),
                    rows,
                    removed: BTreeSet::new(),
                    filed: BTreeSet::new(),
                    moved: false,
                };
                orders.insert(t.schema.name.clone(), order);
                continue;
            }
            let t = into.table(Entry::Name(c.str()?))?;
            let order = (orders.get_mut(&t.schema.name))
                .ok_or_else(|| c.error("a frame names a table its base does not"))?;
            // A row filed by an earlier frame and removed by this one
            // is in no order the base or this frame holds.
            t.heap.restore_section(&mut c, |rid, entered| {
                if entered {
                    order.filed.insert(rid);
                } else if !order.filed.remove(&rid) {
                    order.removed.insert(rid);
                }
            })?;
            order.moved = true;
        }
        if c.pos != payload.len() {
            return Err(c.error("trailing bytes"));
        }
    }
    for (name, order) in orders {
        let t = into.table(Entry::Name(name))?;
        fill_indexes(&t.schema, &t.heap, &mut t.indexes, Some(&order), |_, _| {
            Ok(())
        })?;
    }
    let base = frames[0].0 + BATCH_HEADER_LEN + frames[0].1.len();
    Ok((csn, base as u64, end as u64))
}

/// The whole frames of a checkpoint file, the base first, each as its
/// offset and payload; where the last of them ends; and the damage that
/// stopped the walk, if any, as its offset and what failed to verify. A
/// torn last frame ends the walk as a torn log tail does, by one
/// classifier ([`frame_at`]); a file with no whole base is damage.
pub(crate) fn frames(file: &[u8]) -> Frames<'_> {
    let mut frames = Vec::new();
    if !file.starts_with(MAGIC) {
        return (frames, 0, Some((0, "bad snapshot magic".into())));
    }
    let mut pos = MAGIC.len();
    while pos < file.len() {
        match frame_at(file, pos) {
            Frame::Whole(payload) => {
                frames.push((pos, payload));
                pos += BATCH_HEADER_LEN + payload.len();
            }
            Frame::Torn => break,
            Frame::Damaged(what) => return (frames, pos, Some((pos, what))),
        }
    }
    let damage = frames
        .is_empty()
        .then(|| (pos, "snapshot has no whole base".into()));
    (frames, pos, damage)
}

/// What [`frames`] finds.
pub(crate) type Frames<'a> = (Vec<(usize, &'a [u8])>, usize, Option<(usize, String)>);

/// Check that `rec`, the stored record at `rid`, is a row of the table:
/// one whole row encoding — every cell's tag, length and text valid —
/// nothing after it, and a cell per column; lend each cell to `cell`.
pub(crate) fn check_record<'r>(
    schema: &TableSchema,
    rid: RowId,
    rec: &'r [u8],
    mut cell: impl FnMut(&'r [u8]),
) -> Result<()> {
    let (mut pos, mut cells) = (0, 0);
    let walked = sieve_record(rec, &mut pos, |span| {
        cell(&rec[span]);
        cells += 1;
    });
    let what = match walked {
        Err(DbError::Storage(what)) => what,
        Err(other) => return Err(other),
        Ok(()) if pos != rec.len() => "row decode: trailing bytes".into(),
        Ok(()) if cells != schema.columns.len() => format!(
            "row decode: {cells} cells for {} columns",
            schema.columns.len()
        ),
        Ok(()) => return Ok(()),
    };
    Err(DbError::Storage(format!(
        "{} row {:#x}: {what}",
        schema.name, rid.0
    )))
}

/// Fill the (empty) trees of `indexes` from a table's heap: one walk
/// checks each record and copies each key's cells out, then each tree is
/// built from the order `orders` holds for it, or by sorting. An order
/// is its base's places — each checked to hold a record — less the rows
/// removed since, merged in one pass with the rows filed since, in key
/// order; the run must ascend, name every record and, for a unique
/// index, hold each NULL-free key once. `admit` sees every key before it
/// is filed and may refuse it.
pub(crate) fn fill_indexes(
    schema: &TableSchema,
    heap: &HeapTable,
    indexes: &mut [Index],
    orders: Option<&Orders>,
    mut admit: impl FnMut(RowId, KeyRef) -> Result<()>,
) -> Result<()> {
    let (n, mut keys) = (heap.len(), vec![Records::default(); indexes.len()]);
    // Every key takes at least its cell count.
    keys.iter_mut().for_each(|k| k.reserve(4 * n, n));
    let mut rids = Vec::with_capacity(n);
    // Which record, in heap order, each place of the base's heap holds
    // (`u32::MAX`: none); in the base's own heap without a tombstone, a
    // place is that position itself.
    let same = orders.is_none_or(|o| !o.moved && o.places.count() == n);
    let mut at = vec![u32::MAX; orders.filter(|_| !same).map_or(0, |o| o.places.count())];
    let mut cells = Vec::with_capacity(schema.columns.len());
    for (rid, rec) in heap.records() {
        cells.clear();
        check_record(schema, rid, rec, |cell| cells.push(cell))?;
        for (ix, keys) in indexes.iter().zip(&mut keys) {
            keys.push_spans(ix.col_indices.iter().map(|&i| cells[i]));
            admit(rid, KeyRef(keys.get(keys.len() - 1)))?;
        }
        if let Some(o) = orders.filter(|_| !same) {
            if let Some(k) = o.places.of(rid).and_then(|p| at.get_mut(p)) {
                *k = rids.len() as u32;
            }
        }
        rids.push(rid);
    }
    let bad =
        |what: &str| DbError::Storage(format!("snapshot: {} index order {what}", schema.name));
    let Some(o) = orders else {
        for (ix, keys) in indexes.iter_mut().zip(&keys) {
            ix.tree = BPlusTree::from_pairs((0..n).map(|p| (keys.get(p), rids[p])).collect());
        }
        return Ok(());
    };
    let record = |p: usize| match same {
        true => (p < n).then_some(p),
        false => at.get(p).filter(|&&k| k != u32::MAX).map(|&k| k as usize),
    };
    // The base's places of the rows removed since, and where the rows
    // filed since are in heap order.
    let mut skip = vec![false; o.places.count()];
    for &rid in &o.removed {
        let p = (o.places.of(rid)).ok_or_else(|| bad("removes a place the order does not hold"))?;
        skip[p] = true;
    }
    let filed = (o.filed.iter())
        .map(|rid| (rids.binary_search(rid)).map_err(|_| bad("names a place that holds no record")))
        .collect::<Result<Vec<_>>>()?;
    for (i, (ix, keys)) in indexes.iter_mut().zip(&keys).enumerate() {
        let pair = |p: usize| (keys.get(p), rids[p]);
        let cmp = |a: usize, b: usize| {
            let ((ka, ra), (kb, rb)) = (pair(a), pair(b));
            KeyRef(ka).order(KeyRef(kb)).then(ra.cmp(&rb))
        };
        let base = (o.base[4 * o.rows * i..4 * o.rows * (i + 1)].chunks_exact(4))
            .map(|p| u32::from_le_bytes(p.try_into().expect("4 bytes")) as usize);
        let skipped = |p: usize| skip.get(p).is_some_and(|&s| s);
        // Every place kept holds a record, and the places skipped are
        // the rows removed.
        if base.clone().any(|p| !skipped(p) && record(p).is_none()) {
            return Err(bad("names a place that holds no record"));
        }
        if base.clone().filter(|&p| skipped(p)).count() != o.removed.len() {
            return Err(bad("removes a place the order does not hold"));
        }
        let files = o.rows - o.removed.len() + filed.len();
        if files != n {
            return Err(bad(&format!("files {files} of {n} rows")));
        }
        // n rows that ascend strictly by key and row id name every
        // record once.
        let kept = base.filter(|&p| !skipped(p));
        let mut kept = kept.map(|p| record(p).expect("checked")).peekable();
        let mut filed = filed.clone();
        filed.sort_unstable_by(|&a, &b| cmp(a, b));
        let mut filed = filed.into_iter().peekable();
        let run = std::iter::from_fn(move || match (kept.peek(), filed.peek()) {
            (Some(&k), Some(&f)) if cmp(f, k).is_gt() => kept.next(),
            (Some(_), None) => kept.next(),
            _ => filed.next(),
        });
        ix.tree = BPlusTree::from_run(run.map(pair)).map_err(|_| bad("does not ascend"))?;
        // A unique index files each NULL-free key once: the tree files
        // equal keys under one entry.
        let mut twice = false;
        if ix.unique {
            ix.tree.scan_from(&[], |key, rows| {
                twice = rows.len() > 1 && !key.cells().any(|(tag, _)| tag == 0);
                !twice
            });
        }
        if twice {
            return Err(bad("holds a unique key twice"));
        }
    }
    Ok(())
}

/// Reconstruct CREATE TABLE DDL from a schema (used by snapshots; also
/// handy for introspection tools).
pub fn schema_to_ddl(s: &TableSchema) -> String {
    let mut parts = Vec::new();
    for c in &s.columns {
        let mut p = format!("{} {}", c.name, c.ty.sql_name());
        if let Some(dl) = &c.datalink {
            p = format!("{} DATALINK LINKTYPE URL", c.name);
            let options = [
                (dl.integrity_all, " INTEGRITY ALL", " INTEGRITY NONE"),
                (
                    dl.read_permission_db,
                    " READ PERMISSION DB",
                    " READ PERMISSION FS",
                ),
                (
                    dl.write_permission_blocked,
                    " WRITE PERMISSION BLOCKED",
                    " WRITE PERMISSION FS",
                ),
                (dl.recovery, " RECOVERY YES", " RECOVERY NO"),
                (
                    dl.on_unlink_restore,
                    " ON UNLINK RESTORE",
                    " ON UNLINK DELETE",
                ),
            ];
            if !dl.file_link_control {
                p.push_str(" NO FILE LINK CONTROL");
            } else {
                p.push_str(" FILE LINK CONTROL");
                for (on, yes, no) in options {
                    p.push_str(if on { yes } else { no });
                }
            }
        }
        if c.not_null && !s.primary_key.contains(&c.name) {
            p.push_str(" NOT NULL");
        }
        if c.unique {
            p.push_str(" UNIQUE");
        }
        parts.push(p);
    }
    if !s.primary_key.is_empty() {
        parts.push(format!("PRIMARY KEY ({})", s.primary_key.join(", ")));
    }
    for fk in &s.foreign_keys {
        parts.push(format!(
            "FOREIGN KEY ({}) REFERENCES {} ({})",
            fk.columns.join(", "),
            fk.ref_table,
            fk.ref_columns.join(", ")
        ));
    }
    format!("CREATE TABLE {} ({})", s.name, parts.join(", "))
}

pub(crate) fn index_to_ddl(schema: &TableSchema, ix: &Index) -> String {
    let cols: Vec<&str> = ix
        .col_indices
        .iter()
        .map(|&i| schema.columns[i].name.as_str())
        .collect();
    format!(
        "CREATE {}INDEX {} ON {} ({})",
        if ix.unique { "UNIQUE " } else { "" },
        ix.name,
        schema.name,
        cols.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{decode_row, encode_cells, SqlType, Value};
    use crate::Database;

    /// An empty table of an INTEGER key and a CLOB, with the index on
    /// its key it makes itself and one on the CLOB it does not.
    fn table(name: &str) -> Table {
        let columns = vec![
            ColumnDef::new("K", SqlType::Integer),
            ColumnDef::new("D", SqlType::Clob),
        ];
        let mut schema = TableSchema::new(name, columns).unwrap();
        schema.set_primary_key(vec!["K".into()]).unwrap();
        let index = |name: String, col, implicit| Index {
            name,
            col_indices: vec![col],
            unique: implicit,
            implicit,
            tree: BPlusTree::new(),
        };
        Table {
            indexes: vec![
                index(format!("PK_{name}"), 0, true),
                index(format!("IX_{name}_D"), 1, false),
            ],
            schema,
            heap: HeapTable::new(),
        }
    }

    /// File (`insert`) or unfile `row` at `rid` in each of `t`'s trees.
    fn file_keys(t: &mut Table, row: &[Value], rid: RowId, insert: bool) {
        for ix in &mut t.indexes {
            let mut key = Vec::new();
            encode_cells(ix.col_indices.iter().map(|&i| &row[i]), &mut key);
            match insert {
                true => ix.tree.insert_key(KeyRef(&key), rid),
                false => assert!(ix.tree.remove_key(KeyRef(&key), rid)),
            }
        }
    }

    fn insert(t: &mut Table, k: i64, d: String) {
        let row = [Value::Int(k), Value::Clob(d)];
        let rid = t.heap.insert(&row);
        file_keys(t, &row, rid, true);
    }

    fn delete(t: &mut Table, rid: RowId) {
        let rec = t.heap.record(rid).unwrap();
        let row = decode_row(rec, &mut 0).unwrap();
        file_keys(t, &row, rid, false);
        assert!(t.heap.delete(rid));
    }

    /// `t` was written whole or in a frame: its pages are clean.
    fn written(t: &mut Table) {
        t.heap.mark_clean();
    }

    /// Every record of `t` at its row id, and each index's entries in
    /// key order.
    type Contents = (Vec<(RowId, Vec<u8>)>, Vec<Vec<(Vec<u8>, Vec<RowId>)>>);

    fn contents(t: &Table) -> Contents {
        let records = t.heap.records().map(|(rid, r)| (rid, r.to_vec()));
        let entries = |ix: &Index| {
            let mut entries = Vec::new();
            ix.tree.scan_from(&[], |key, rids| {
                entries.push((key.0.to_vec(), rids.to_vec()));
                true
            });
            entries
        };
        (records.collect(), t.indexes.iter().map(entries).collect())
    }

    /// Read into by name: a base's entry must be the DDL of `T` or `U`,
    /// whose empty table it creates.
    impl Restore for BTreeMap<String, Table> {
        fn table(&mut self, entry: Entry) -> Result<&mut Table> {
            let name = match entry {
                Entry::Name(name) => name,
                Entry::Create(ddl, indexes) => {
                    let t = (["T", "U"].map(table).into_iter())
                        .find(|t| schema_to_ddl(&t.schema) == ddl)
                        .expect("the DDL of T or U");
                    assert_eq!(indexes, [index_to_ddl(&t.schema, &t.indexes[1])]);
                    let name = t.schema.name.clone();
                    self.insert(name.clone(), t);
                    name
                }
            };
            Ok(self.get_mut(&name).expect("a table the base created"))
        }
    }

    /// A base of two tables, then a frame that deletes a row from a
    /// dirty page of one and a frame that extends its heap by a page and
    /// an overflow entry and deletes the base's overflow row — whose
    /// place the new slots moved — read back to the tables; and the base
    /// alone to the tables as they were when it was written.
    #[test]
    fn a_base_and_two_frames_read_back_to_the_tables() {
        let [mut t, mut u] = ["T", "U"].map(table);
        for k in 0..300 {
            insert(&mut t, k, "d".repeat(k as usize % 90));
        }
        insert(&mut t, -2, "g".repeat(5000));
        for k in 0..5 {
            insert(&mut u, k, String::new());
        }
        let names = ["T", "U"].map(String::from);
        let all = |_: &str, t: &Table| (t.heap.len(), |_: RowId| true);
        let mut file = write(true, 1, &[(&names[0], &t), (&names[1], &u)], all).unwrap();
        let (at_base, base) = (contents(&t), file.len());
        written(&mut t);

        let third = t.heap.records().nth(3).unwrap().0;
        delete(&mut t, third);
        let frame = write(false, 2, &[(&names[0], &t)], all).unwrap();
        assert!(frame.len() < 2 * PAGE_SIZE, "a frame of one page");
        file.extend_from_slice(&frame);
        written(&mut t);

        let big = t.heap.records().last().unwrap().0;
        let pages = t.heap.page_count();
        for k in 300.. {
            insert(&mut t, k, "e".repeat(80));
            if t.heap.page_count() > pages {
                break;
            }
        }
        insert(&mut t, -1, "f".repeat(5000));
        delete(&mut t, big);
        let frame = write(false, 3, &[(&names[0], &t)], all).unwrap();
        assert!(frame.len() < 3 * PAGE_SIZE, "a frame of two pages");
        file.extend_from_slice(&frame);

        let mut back = BTreeMap::new();
        let read_back = read(&file, &mut back).unwrap();
        assert_eq!(read_back, (3, base as u64, file.len() as u64));
        assert_eq!(contents(&back["T"]), contents(&t));
        assert_eq!(contents(&back["U"]), contents(&u));
        let mut back = BTreeMap::new();
        read(&file[..base], &mut back).unwrap();
        assert_eq!(contents(&back["T"]), at_base);
    }

    /// Every single-bit flip of a whole frame is damage its checksums
    /// find, at the frame's offset, and `open` refuses it by name; the
    /// frame cut short at any byte is dropped, leaving the base.
    #[test]
    fn every_bit_flipped_in_a_frame_is_found_and_every_cut_dropped() {
        let dir = std::env::temp_dir().join(format!("easia-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(20))")
            .unwrap();
        db.checkpoint().unwrap();
        let base = std::fs::read(dir.join(FILE)).unwrap().len();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let file = std::fs::read(dir.join(FILE)).unwrap();
        assert!(file.len() > base + PAGE_SIZE, "a frame of one page");
        let mut flipped = file.clone();
        for at in base..file.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                let (frames, _, damage) = frames(&flipped);
                assert_eq!((frames.len(), damage.map(|d| d.0)), (1, Some(base)));
                flipped[at] ^= 1 << bit;
            }
        }
        for at in [base, base + 13, file.len() - 1] {
            flipped[at] ^= 0x10;
            std::fs::write(dir.join(FILE), &flipped).unwrap();
            let err = Database::open(&dir).map(drop);
            let named = format!("snapshot at byte {base}: ");
            assert!(matches!(err, Err(DbError::Storage(m)) if m.starts_with(&named)));
            flipped[at] ^= 0x10;
        }
        for cut in base..file.len() {
            let (frames, end, damage) = frames(&file[..cut]);
            assert_eq!((frames.len(), end, damage), (1, base, None));
        }
        std::fs::write(dir.join(FILE), &file).unwrap();
        let mut back = Database::open(&dir).unwrap();
        assert_eq!(back.execute("SELECT k FROM t").unwrap().rows.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
