//! The checkpoint image, `snapshot.db`: its byte layout, its one
//! writer, its one reader, the checks `open` and `scrub` share, and the
//! record of what changed since the last image (`Changes`) that a
//! frame is written from.
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
//! then the overflow entries), in key order. A
//! frame's table entry carries what changed and nothing else: for each
//! index the rows removed from its order since the previous image, then
//! the heap section of the dirty pages, then for each index the rows
//! filed in its order since. Each list is a count and then `u64` row
//! ids, in the index's key order; a row id, unlike a place, names the
//! same row in every frame. `open` merges the base's orders with every
//! frame's lists in one pass and builds each tree from the result
//! (`fill_indexes`).
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
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// The image's file name in a database's directory.
pub(crate) const FILE: &str = "snapshot.db";
/// What a checkpoint file starts with, before its base frame.
pub(crate) const MAGIC: &[u8] = b"EASNAP5\0";

/// Which of a table's rows may have entered or left its image since the
/// last one was published, each beside whether that image holds it: a
/// row filed in the table's indexes since, a row that left them since,
/// and a row whose visibility can change with neither (it has a version
/// entry). A frame's delta orders are read off it ([`Changes::delta`]).
/// It holds no more than the rows written since the last checkpoint —
/// what the log holds — and the versioned ones, and starts over when an
/// image is published.
#[derive(Debug, Default)]
pub(crate) struct Changes {
    /// Rows the last published image holds.
    live: usize,
    rows: BTreeMap<RowId, Held>,
}

/// Whether the last published image holds a row.
#[derive(Debug)]
enum Held {
    /// No: the row entered the indexes since, or the image could not
    /// see it.
    No,
    /// Yes, and its record is still in the heap.
    Yes,
    /// Yes, and its record has left the heap since: a copy, to find the
    /// row's keys by.
    Gone(Box<[u8]>),
}

impl Changes {
    /// Row `id` entered the table's indexes: a row no image holds.
    pub(crate) fn filed(&mut self, id: RowId) {
        self.rows.insert(id, Held::No);
    }

    /// Row `id`, stored as `rec`, is leaving the table's indexes and its
    /// heap.
    pub(crate) fn removed(&mut self, id: RowId, rec: &[u8]) {
        let held = self.rows.entry(id).or_insert(Held::Yes);
        if let Held::Yes = held {
            *held = Held::Gone(rec.into());
        }
    }

    /// Row `id` has a version entry, so its visibility can change
    /// without a write: unless noted otherwise, the last image holds it
    /// (it was frozen then, or it was noted).
    pub(crate) fn versioned(&mut self, id: RowId) {
        self.rows.entry(id).or_insert(Held::Yes);
    }

    /// Whether a row is noted.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// An image holding `live` rows of the table was published: start
    /// over from the rows of `held` — those whose visibility can change
    /// without a write — each beside whether the image holds it.
    pub(crate) fn published(&mut self, live: usize, held: impl Iterator<Item = (RowId, bool)>) {
        self.live = live;
        self.rows.clear();
        let held = held.map(|(id, yes)| (id, if yes { Held::Yes } else { Held::No }));
        self.rows.extend(held);
    }

    /// The rows the last image holds and the next one (`heap`'s records
    /// `visible` admits) does not, and the rows the next one holds and
    /// the last does not, each beside its record.
    fn delta<'a>(
        &'a self,
        heap: &'a HeapTable,
        visible: impl Fn(RowId) -> bool,
    ) -> Result<Delta<'a>> {
        let (mut removed, mut filed) = (Vec::new(), Vec::new());
        for (&id, held) in &self.rows {
            let next = heap.record(id).filter(|_| visible(id));
            match (held, next, heap.record(id)) {
                (Held::No, Some(rec), _) => filed.push((id, rec)),
                (Held::Yes, None, Some(rec)) => removed.push((id, rec)),
                (Held::Gone(rec), None, None) => removed.push((id, &rec[..])),
                (Held::No, None, _) | (Held::Yes, Some(_), _) => {}
                _ => return Err(DbError::Storage(format!("row {:#x} lost its record", id.0))),
            }
        }
        Ok((removed, filed))
    }

    /// Check that an image of `live` rows is the last image's less
    /// `removed` rows and plus `filed` ones.
    fn adds_up(&self, removed: usize, filed: usize, live: usize) -> Result<()> {
        match self.live + filed == live + removed {
            true => Ok(()),
            false => Err(DbError::Storage(format!(
                "a delta of {removed} removed and {filed} filed does not take {} rows to {live}",
                self.live
            ))),
        }
    }
}

/// Rows removed from and filed in a table's image, each beside its
/// record ([`Changes::delta`]).
type Delta<'a> = (Vec<(RowId, &'a [u8])>, Vec<(RowId, &'a [u8])>);

/// Serialise an image at `csn` of `tables`: the whole image (`full`) —
/// the file magic, then a base frame holding every table with its DDL
/// and whole orders — or one frame holding each table by its name, its
/// dirty pages and its delta orders ([`Changes`]). `view` gives each
/// table's live row count and which of its records the image holds;
/// only those are written, pages copied with the slot of every other
/// record tombstoned, and only those are placed in an index's order.
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
            let (removed, filed) = t.changes.delta(&t.heap, &visible)?;
            put_delta(t, &removed, &mut out)?;
            t.heap.write_section(false, live, keep, &mut out)?;
            put_delta(t, &filed, &mut out)?;
            t.changes.adds_up(removed.len(), filed.len(), live)?;
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

/// Write `rows` — row ids beside their records — once for each index of
/// `t`: their count, then their row ids in the index's key order.
fn put_delta(t: &Table, rows: &[(RowId, &[u8])], out: &mut Vec<u8>) -> Result<()> {
    let mut keys = vec![Records::default(); t.indexes.len()];
    let mut cells = Vec::with_capacity(t.schema.columns.len());
    for &(rid, rec) in rows {
        cells.clear();
        check_record(&t.schema, rid, rec, |cell| cells.push(cell))?;
        for (ix, keys) in t.indexes.iter().zip(&mut keys) {
            keys.push_spans(ix.col_indices.iter().map(|&i| cells[i]));
        }
    }
    let mut order = Vec::with_capacity(rows.len());
    for keys in &keys {
        order.clear();
        order.extend(0..rows.len());
        order.sort_unstable_by(|&a, &b| {
            let key = |i: usize| KeyRef(keys.get(i));
            key(a).order(key(b)).then(rows[a].0.cmp(&rows[b].0))
        });
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for &i in &order {
            out.extend_from_slice(&rows[i].0 .0.to_le_bytes());
        }
    }
    Ok(())
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
/// orders, in the places of the heap the base held, and what the frames
/// after it removed from them and filed in them, by row id.
pub(crate) struct Orders<'a> {
    /// Each index's base order, one after another.
    base: &'a [u8],
    /// How the heap the base held numbers its places.
    places: Places,
    /// Rows the base held: the length of each base order.
    rows: usize,
    /// Per index, the rows of its base order removed since.
    removed: Vec<BTreeSet<RowId>>,
    /// Per index, the rows filed since and not removed again.
    filed: Vec<BTreeSet<RowId>>,
    /// A frame replaced or extended the heap the base held.
    moved: bool,
}

/// A delta of index `index` of `table` that lies.
fn lie(table: &str, index: &str, what: &str) -> DbError {
    DbError::Storage(format!("snapshot: {table} index {index} delta {what}"))
}

/// Read a checkpoint file [`write`] wrote into `into`: restore the
/// base, let each whole frame's pages and overflow entries replace or
/// extend it, and build every index from its base order and the rows
/// each frame removed from and filed in it. A torn last frame is
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
                t.heap.restore_section(&mut c)?;
                let (rows, indexes) = (t.heap.len(), t.indexes.len());
                let order = Orders {
                    base: c.take(4 * rows * indexes)?,
                    places: t.heap.places(),
                    rows,
                    removed: vec![BTreeSet::new(); indexes],
                    filed: vec![BTreeSet::new(); indexes],
                    moved: false,
                };
                orders.insert(t.schema.name.clone(), order);
                continue;
            }
            let t = into.table(Entry::Name(c.str()?))?;
            let order = (orders.get_mut(&t.schema.name))
                .ok_or_else(|| c.error("a frame names a table its base does not"))?;
            // Removed rows are found in the heap as the image before
            // this frame held it; filed ones, as this frame leaves it.
            for ix in 0..t.indexes.len() {
                for rid in delta_list(&mut c, t, ix)? {
                    if !order.filed[ix].remove(&rid) && !order.removed[ix].insert(rid) {
                        return Err(lie(
                            &t.schema.name,
                            &t.indexes[ix].name,
                            "removes a place twice",
                        ));
                    }
                }
            }
            t.heap.restore_section(&mut c)?;
            order.moved = true;
            for ix in 0..t.indexes.len() {
                for rid in delta_list(&mut c, t, ix)? {
                    if !order.filed[ix].insert(rid) {
                        return Err(lie(
                            &t.schema.name,
                            &t.indexes[ix].name,
                            "files a place twice",
                        ));
                    }
                }
            }
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

/// Read one delta list of index `ix` of `t` at `c`: its row ids, each
/// checked to hold a row of the heap as it stands, in ascending key
/// order, none twice.
fn delta_list(c: &mut Cursor, t: &Table, ix: usize) -> Result<Vec<RowId>> {
    let n = c.u32()?;
    if n > (c.buf.len() - c.pos) / 8 {
        return Err(c.error("truncated"));
    }
    let lie = |what: &str| lie(&t.schema.name, &t.indexes[ix].name, what);
    let cols = &t.indexes[ix].col_indices;
    let mut rids: Vec<RowId> = Vec::with_capacity(n);
    let mut cells = Vec::with_capacity(cols.len());
    let (mut last, mut key) = (Records::default(), Records::default());
    for _ in 0..n {
        let rid = RowId(c.u64()?);
        let rec = (t.heap.record(rid)).ok_or_else(|| lie("names a place that holds no record"))?;
        cells.clear();
        check_record(&t.schema, rid, rec, |cell| cells.push(cell))?;
        key.clear();
        key.push_spans(cols.iter().map(|&i| cells[i]));
        if let Some(&before) = rids.last() {
            match KeyRef(last.get(0))
                .order(KeyRef(key.get(0)))
                .then(before.cmp(&rid))
            {
                Ordering::Less => {}
                Ordering::Equal => return Err(lie("names a place twice")),
                Ordering::Greater => return Err(lie("is not in key order")),
            }
        }
        std::mem::swap(&mut last, &mut key);
        rids.push(rid);
    }
    Ok(rids)
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
/// order; the run must ascend and name every record. `admit` sees every
/// key before it is filed and may refuse it.
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
    let record = |p: usize| match same {
        true => (p < n).then_some(p),
        false => at.get(p).filter(|&&k| k != u32::MAX).map(|&k| k as usize),
    };
    for (i, (ix, keys)) in indexes.iter_mut().zip(&keys).enumerate() {
        let pair = |p: usize| (keys.get(p), rids[p]);
        let Some(o) = orders else {
            ix.tree = BPlusTree::from_pairs((0..n).map(pair).collect());
            continue;
        };
        let base = (o.base[4 * o.rows * i..4 * o.rows * (i + 1)].chunks_exact(4))
            .map(|p| u32::from_le_bytes(p.try_into().expect("4 bytes")) as usize);
        let (removed, filed) = (&o.removed[i], &o.filed[i]);
        if removed.is_empty() && filed.is_empty() {
            // n places that each hold a record and ascend strictly by
            // key and row id name every record once.
            let order = base.map(record);
            if o.rows != n {
                return Err(bad(&format!("files {} of {n} rows", o.rows)));
            }
            if order.clone().any(|k| k.is_none()) {
                return Err(bad("names a place that holds no record"));
            }
            let order = order.map(|k| pair(k.expect("checked")));
            ix.tree = BPlusTree::from_run(order).map_err(|_| bad("does not ascend"))?;
            continue;
        }
        let lie = |what: &str| lie(&schema.name, &ix.name, what);
        // The base's places of the rows removed since.
        let mut skip = vec![
            false;
            if removed.is_empty() {
                0
            } else {
                o.places.count()
            }
        ];
        for &rid in removed {
            let p =
                (o.places.of(rid)).ok_or_else(|| lie("removes a place the order does not hold"))?;
            skip[p] = true;
        }
        // The rows filed since, in key order.
        let mut filed = (filed.iter())
            .map(|rid| {
                rids.binary_search(rid)
                    .map_err(|_| lie("names a place that holds no record"))
            })
            .collect::<Result<Vec<_>>>()?;
        let cmp = |a: usize, b: usize| {
            let ((ka, ra), (kb, rb)) = (pair(a), pair(b));
            KeyRef(ka).order(KeyRef(kb)).then(ra.cmp(&rb))
        };
        filed.sort_unstable_by(|&a, &b| cmp(a, b));
        let (mut run, mut skipped, mut filed) =
            (Vec::with_capacity(n), 0, filed.into_iter().peekable());
        for p in base {
            if skip.get(p).is_some_and(|&s| s) {
                skipped += 1;
                continue;
            }
            let k = record(p).ok_or_else(|| bad("names a place that holds no record"))?;
            while let Some(f) = filed.next_if(|&f| cmp(f, k).is_lt()) {
                run.push(f);
            }
            run.push(k);
        }
        run.extend(filed);
        if skipped != removed.len() {
            return Err(lie("removes a place the order does not hold"));
        }
        if run.len() != n {
            return Err(bad(&format!("files {} of {n} rows", run.len())));
        }
        ix.tree = BPlusTree::from_run(run.iter().map(|&p| pair(p)))
            .map_err(|_| bad("does not ascend"))?;
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
            changes: Changes::default(),
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
        t.changes.filed(rid);
    }

    fn delete(t: &mut Table, rid: RowId) {
        let rec = t.heap.record(rid).unwrap();
        let row = decode_row(rec, &mut 0).unwrap();
        t.changes.removed(rid, rec);
        file_keys(t, &row, rid, false);
        assert!(t.heap.delete(rid));
    }

    /// `t` was written whole or in a frame: its pages are clean and its
    /// changes start over.
    fn written(t: &mut Table) {
        t.heap.mark_clean();
        t.changes.published(t.heap.len(), std::iter::empty());
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
