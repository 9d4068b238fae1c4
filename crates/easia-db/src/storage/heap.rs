//! Heap tables: an append-friendly collection of slotted pages, plus an
//! overflow area for records too large for one page (big BLOB/CLOB rows —
//! the "small files that can be uploaded over the Internet").

use super::page::{Page, SlotId, PAGE_SIZE, SLOT};
use super::Cursor;
use crate::error::{DbError, Result};
use crate::value::{encode_row, Value};
use std::borrow::Cow;

/// Stable address of a row in a heap table.
///
/// Encoding: the high bit selects the overflow area; otherwise the value
/// is `page << 16 | slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

const OVERFLOW_BIT: u64 = 1 << 63;
/// Records above this size go to the overflow area rather than a page.
const MAX_INLINE: usize = PAGE_SIZE / 2;

impl RowId {
    fn paged(page: u32, slot: SlotId) -> Self {
        RowId((u64::from(page) << 16) | u64::from(slot))
    }

    fn overflow(idx: u64) -> Self {
        RowId(OVERFLOW_BIT | idx)
    }

    fn decode(self) -> RowAddr {
        if self.0 & OVERFLOW_BIT != 0 {
            RowAddr::Overflow((self.0 & !OVERFLOW_BIT) as usize)
        } else {
            RowAddr::Paged((self.0 >> 16) as u32, (self.0 & 0xffff) as SlotId)
        }
    }
}

enum RowAddr {
    Paged(u32, SlotId),
    Overflow(usize),
}

/// A heap table of encoded rows.
#[derive(Debug, Default)]
pub struct HeapTable {
    pages: Vec<Page>,
    /// Oversized records; `None` = deleted.
    overflow: Vec<Option<Vec<u8>>>,
    /// Live row count.
    len: usize,
    /// Per page: written to since a checkpoint last marked it clean.
    dirty: Vec<bool>,
    /// The same, per overflow entry.
    dirty_overflow: Vec<bool>,
    /// Page bytes deleted records still take (their slots and bytes).
    dead: usize,
}

/// How [`HeapTable::compact`] renumbered a heap's records: each old row
/// id beside its new one, ascending in both.
#[derive(Debug)]
pub(crate) struct Moves(Vec<(RowId, RowId)>);

impl Moves {
    /// The new id of the record that was at `old`; `None` if none was.
    pub(crate) fn get(&self, old: RowId) -> Option<RowId> {
        let i = self.0.binary_search_by_key(&old, |&(from, _)| from).ok()?;
        Some(self.0[i].1)
    }
}

/// How a heap numbers the places a record can take: each page's slots
/// in turn, then the overflow entries. A checkpoint's whole index
/// order names rows by these. A page that gains a slot moves every
/// place after it, so a numbering holds for the heap it was taken of.
#[derive(Debug)]
pub(crate) struct Places {
    /// Where each page's places start; the last, where the overflow
    /// entries' start.
    starts: Vec<usize>,
    overflow: usize,
}

impl Places {
    /// How many places there are.
    pub(crate) fn count(&self) -> usize {
        self.starts[self.starts.len() - 1] + self.overflow
    }

    /// The place of `id`; `None` past the heap this numbering was taken
    /// of.
    pub(crate) fn of(&self, id: RowId) -> Option<usize> {
        let last = self.starts[self.starts.len() - 1];
        match id.decode() {
            RowAddr::Paged(p, s) => {
                let start = *self.starts.get(p as usize)?;
                let place = start + usize::from(s);
                (place < *self.starts.get(p as usize + 1)?).then_some(place)
            }
            RowAddr::Overflow(i) => (i < self.overflow).then_some(last + i),
        }
    }
}

impl HeapTable {
    /// New empty heap.
    pub fn new() -> Self {
        HeapTable::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated pages (for stats/benchmarks).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of the heap's pages that deleted records still take: what a
    /// compaction would give back.
    pub fn dead_bytes(&self) -> usize {
        self.dead
    }

    /// Page `i`, for tests that write an image by hand.
    #[cfg(test)]
    pub(crate) fn page(&self, i: usize) -> &Page {
        &self.pages[i]
    }

    /// Insert a row; returns its stable id.
    pub fn insert(&mut self, row: &[Value]) -> RowId {
        let mut rec = Vec::new();
        encode_row(row, &mut rec);
        self.insert_record(rec.into())
    }

    /// Insert an already encoded row (never empty: an encoding starts
    /// with its cell count). Where a record lands depends only on its
    /// length and on the lengths of the records before it, so copying a
    /// heap's records in order reproduces the placement that encoding
    /// its rows in order would. (A `Cow`: an oversized record is kept as
    /// the caller's buffer when the caller can give it up.)
    pub(crate) fn insert_record(&mut self, rec: Cow<'_, [u8]>) -> RowId {
        self.len += 1;
        if rec.len() > MAX_INLINE {
            self.overflow.push(Some(rec.into_owned()));
            self.dirty_overflow.push(true);
            return RowId::overflow(self.overflow.len() as u64 - 1);
        }
        // Append to the last page with room; otherwise a new page. A
        // free-space map would avoid the linear tail check; with
        // append-mostly metadata tables the last page almost always fits.
        if let Some((i, page)) = self.pages.iter_mut().enumerate().next_back() {
            if page.fits(rec.len()) {
                let slot = page.insert(&rec);
                self.dirty[i] = true;
                return RowId::paged(i as u32, slot);
            }
        }
        let mut page = Page::new();
        let slot = page.insert(&rec);
        self.pages.push(page);
        self.dirty.push(true);
        RowId::paged(self.pages.len() as u32 - 1, slot)
    }

    /// The encoded record at `id`; `None` if deleted/never existed.
    pub fn record(&self, id: RowId) -> Option<&[u8]> {
        match id.decode() {
            RowAddr::Paged(p, s) => self.pages.get(p as usize)?.get(s),
            RowAddr::Overflow(i) => self.overflow.get(i)?.as_deref(),
        }
    }

    /// Delete the row at `id`; returns true if it was live.
    pub fn delete(&mut self, id: RowId) -> bool {
        let deleted = match id.decode() {
            RowAddr::Paged(p, s) => match self.pages.get_mut(p as usize) {
                Some(pg) => {
                    let freed = pg.get(s).map_or(0, |rec| rec.len() + SLOT);
                    self.dead += freed;
                    pg.delete(s)
                }
                None => false,
            },
            RowAddr::Overflow(i) => self
                .overflow
                .get_mut(i)
                .map(|slot| slot.take().is_some())
                .unwrap_or(false),
        };
        if deleted {
            self.len -= 1;
            self.mark_dirty(id);
        }
        deleted
    }

    /// Mark the page (or overflow entry) holding `id` as changed.
    pub(crate) fn mark_dirty(&mut self, id: RowId) {
        let bit = match id.decode() {
            RowAddr::Paged(p, _) => self.dirty.get_mut(p as usize),
            RowAddr::Overflow(i) => self.dirty_overflow.get_mut(i),
        };
        if let Some(bit) = bit {
            *bit = true;
        }
    }

    /// Whether any page or overflow entry is dirty.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty.iter().chain(&self.dirty_overflow).any(|&d| d)
    }

    /// Mark every page and overflow entry clean.
    pub(crate) fn mark_clean(&mut self) {
        self.dirty.fill(false);
        self.dirty_overflow.fill(false);
    }

    /// Rebuild the heap from its records, in storage order, into fresh
    /// pages: the space deleted records took is given back. Every record
    /// keeps its bytes and its order, and every page of the new heap is
    /// dirty. Returns the renumbering, which whoever holds a row id of
    /// this heap must apply.
    pub(crate) fn compact(&mut self) -> Moves {
        let old = std::mem::take(self);
        let mut moves = Vec::with_capacity(old.len);
        for (pi, page) in old.pages.iter().enumerate() {
            for (slot, rec) in page.iter() {
                let id = self.insert_record(Cow::Borrowed(rec));
                moves.push((RowId::paged(pi as u32, slot), id));
            }
        }
        for (i, rec) in old.overflow.into_iter().enumerate() {
            if let Some(rec) = rec {
                let id = self.insert_record(Cow::Owned(rec));
                moves.push((RowId::overflow(i as u64), id));
            }
        }
        Moves(moves)
    }

    /// Iterate `(RowId, encoded record)` over all live rows in storage
    /// order.
    pub fn records(&self) -> impl Iterator<Item = (RowId, &[u8])> + '_ {
        let paged = self.pages.iter().enumerate().flat_map(|(pi, page)| {
            page.iter()
                .map(move |(slot, rec)| (RowId::paged(pi as u32, slot), rec))
        });
        let over = self
            .overflow
            .iter()
            .enumerate()
            .filter_map(|(i, rec)| Some((RowId::overflow(i as u64), rec.as_deref()?)));
        paged.chain(over)
    }

    /// How this heap numbers its places now.
    pub(crate) fn places(&self) -> Places {
        let mut starts = Vec::with_capacity(self.pages.len() + 1);
        starts.push(0);
        for page in &self.pages {
            starts.push(starts[starts.len() - 1] + usize::from(page.slot_count()));
        }
        Places {
            starts,
            overflow: self.overflow.len(),
        }
    }

    /// How many pages are dirty: what a section of the dirty pages
    /// copies.
    pub(crate) fn dirty_pages(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Write this heap's section of a checkpoint: its page count and
    /// every page (`all`) or only the dirty ones, each as its number and
    /// its 8 KiB; its overflow count and those overflow entries the same
    /// way; then `live`, the rows the section holds. A page is copied
    /// with the slot of every record `keep` refuses tombstoned, slot
    /// numbers kept, so row ids — and an index order's places — survive a
    /// restart. `keep` sees every record written and may fail the write.
    pub(crate) fn write_section(
        &self,
        all: bool,
        live: usize,
        mut keep: impl FnMut(RowId, &[u8]) -> Result<bool>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // Each area's count, then how many of its entries are listed.
        let counts = |out: &mut Vec<u8>, dirty: &[bool]| {
            let listed = dirty.iter().filter(|&&d| all || d).count();
            out.extend_from_slice(&(dirty.len() as u32).to_le_bytes());
            out.extend_from_slice(&(listed as u32).to_le_bytes());
        };
        counts(out, &self.dirty);
        for (i, page) in self.pages.iter().enumerate() {
            if all || self.dirty[i] {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                page.copy_into(out, |slot, rec| keep(RowId::paged(i as u32, slot), rec))?;
            }
        }
        counts(out, &self.dirty_overflow);
        for (i, rec) in self.overflow.iter().enumerate() {
            if all || self.dirty_overflow[i] {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                match rec {
                    Some(r) if keep(RowId::overflow(i as u64), r)? => {
                        out.extend_from_slice(&(r.len() as u32 + 1).to_le_bytes());
                        out.extend_from_slice(r);
                    }
                    _ => out.extend_from_slice(&0u32.to_le_bytes()),
                }
            }
        }
        out.extend_from_slice(&(live as u64).to_le_bytes());
        Ok(())
    }

    /// Apply a section [`HeapTable::write_section`] wrote, advancing `c`:
    /// each page and overflow entry it lists replaces this heap's or
    /// extends it, and the result is clean. Each place whose record the
    /// section adds or takes away is reported to `changed`, beside
    /// whether it now holds one: every record of a page or entry that
    /// extends the heap, and in one that replaces another, each slot or
    /// entry that held a record before and none now, or the reverse. The
    /// bytes come from disk: a count the remaining input cannot hold is
    /// refused before anything is reserved for it, numbers must ascend
    /// and leave no gap, every page's slot directory is checked
    /// ([`Page::from_bytes`]) and no two of its records may share a byte
    /// ([`Page::check_disjoint`]), and the section's live count must be
    /// the number of records the heap then holds.
    pub(crate) fn restore_section(
        &mut self,
        c: &mut Cursor,
        mut changed: impl FnMut(RowId, bool),
    ) -> Result<()> {
        let bad = |what: &str| DbError::Storage(format!("heap snapshot: {what}"));
        // Where each listed entry goes: over an old one, or onto the end.
        let target = |at: usize, had: usize, count: usize, next: &mut usize| match at {
            _ if at < *next || at >= count => Err(bad("an entry out of order or past the table")),
            _ if at > had => Err(bad("an entry number leaves a gap")),
            _ => {
                *next = at + 1;
                Ok(at)
            }
        };
        // A place that held a record (`was`) and holds one (`is`).
        let mut flip = |id: RowId, was: bool, is: bool| {
            if was != is {
                changed(id, is);
                self.len = if is { self.len + 1 } else { self.len - 1 };
            }
        };
        let npages = c.u32()?;
        let listed = c.u32()?;
        if listed > (c.buf.len() - c.pos) / (4 + PAGE_SIZE) {
            return Err(c.error("truncated"));
        }
        self.pages
            .reserve(npages.saturating_sub(self.pages.len()).min(listed));
        let (mut next, mut spans) = (0, Vec::new());
        for _ in 0..listed {
            let at = target(c.u32()?, self.pages.len(), npages, &mut next)?;
            let page = Page::from_bytes(c.take(PAGE_SIZE)?)?;
            page.check_disjoint(&mut spans)?;
            let old = self.pages.get(at);
            for s in 0..page.slot_count().max(old.map_or(0, Page::slot_count)) {
                let was = old.is_some_and(|o| o.get(s).is_some());
                flip(RowId::paged(at as u32, s), was, page.get(s).is_some());
            }
            match self.pages.get_mut(at) {
                Some(old) => *old = page,
                None => self.pages.push(page),
            }
        }
        if self.pages.len() != npages {
            return Err(bad("a page count the listed pages do not bear out"));
        }
        let nover = c.u32()?;
        let listed = c.u32()?;
        // Every overflow entry takes at least its number and its marker.
        if listed > (c.buf.len() - c.pos) / 8 {
            return Err(c.error("truncated"));
        }
        self.overflow
            .reserve(nover.saturating_sub(self.overflow.len()).min(listed));
        let mut next = 0;
        for _ in 0..listed {
            let at = target(c.u32()?, self.overflow.len(), nover, &mut next)?;
            let rec = match c.u32()? {
                0 => None,
                marker => Some(c.take(marker - 1)?.to_vec()),
            };
            let was = self.overflow.get(at).is_some_and(Option::is_some);
            flip(RowId::overflow(at as u64), was, rec.is_some());
            match self.overflow.get_mut(at) {
                Some(old) => *old = rec,
                None => self.overflow.push(rec),
            }
        }
        if self.overflow.len() != nover {
            return Err(bad("an overflow count the listed entries do not bear out"));
        }
        let live = c.u64()?;
        if live != self.len as u64 {
            return Err(bad("live row count does not match the records"));
        }
        self.dirty = vec![false; npages];
        self.dirty_overflow = vec![false; nover];
        self.dead = self.pages.iter().map(Page::dead_bytes).sum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::Str(format!("row-{i}"))]
    }

    /// `row` as the heap stores it.
    fn rec(row: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_row(row, &mut out);
        out
    }

    /// The record at `id`, copied out.
    fn record(h: &HeapTable, id: RowId) -> Option<Vec<u8>> {
        h.record(id).map(<[u8]>::to_vec)
    }

    #[test]
    fn insert_get_delete() {
        let mut h = HeapTable::new();
        let a = h.insert(&row(1));
        let b = h.insert(&row(2));
        assert_eq!(h.len(), 2);
        assert_eq!(record(&h, a), Some(rec(&row(1))));
        assert!(h.delete(a));
        assert!(h.record(a).is_none());
        assert!(!h.delete(a));
        assert_eq!(h.len(), 1);
        assert_eq!(record(&h, b), Some(rec(&row(2))));
    }

    #[test]
    fn spans_multiple_pages() {
        let mut h = HeapTable::new();
        let ids: Vec<RowId> = (0..2000).map(|i| h.insert(&row(i))).collect();
        assert!(h.page_count() > 1);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(record(&h, *id), Some(rec(&row(i as i64))));
        }
        assert_eq!(h.records().count(), 2000);
    }

    #[test]
    fn large_rows_use_overflow() {
        let mut h = HeapTable::new();
        let big = vec![Value::Blob(vec![7u8; 100_000])];
        let id = h.insert(&big);
        assert_eq!(h.page_count(), 0, "big row bypasses pages");
        assert_eq!(record(&h, id), Some(rec(&big)));
        assert!(h.delete(id));
        assert!(h.record(id).is_none());
    }

    #[test]
    fn scan_covers_pages_and_overflow() {
        let mut h = HeapTable::new();
        h.insert(&row(1));
        h.insert(&[Value::Blob(vec![1u8; 50_000])]);
        h.insert(&row(2));
        let rows: Vec<_> = h.records().collect();
        assert_eq!(rows.len(), 3);
    }

    /// `h`'s section — every page, or only the dirty ones — with every
    /// record kept.
    fn section(h: &HeapTable, all: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        h.write_section(all, h.len(), |_, _| Ok(true), &mut buf)
            .unwrap();
        buf
    }

    /// Apply the section `buf` holds to `h`; where it ends.
    fn restore(h: &mut HeapTable, buf: &[u8]) -> Result<usize> {
        let mut c = Cursor::new("snapshot", buf, 0);
        h.restore_section(&mut c, |_, _| {}).map(|()| c.pos)
    }

    #[test]
    fn snapshot_round_trip() {
        let mut h = HeapTable::new();
        let a = h.insert(&row(1));
        let b = h.insert(&[Value::Blob(vec![9u8; 20_000])]);
        let c = h.insert(&row(3));
        h.delete(c);
        let buf = section(&h, true);
        let mut h2 = HeapTable::new();
        assert_eq!(restore(&mut h2, &buf).unwrap(), buf.len());
        assert_eq!(h2.len(), 2);
        assert_eq!(record(&h2, a), Some(rec(&row(1))));
        assert_eq!(record(&h2, b), Some(rec(&[Value::Blob(vec![9u8; 20_000])])));
        assert!(h2.record(c).is_none());
        assert!(!h2.is_dirty(), "a restored heap is clean");
    }

    /// A section of the dirty pages alone, applied over the heap's last
    /// whole section, is the heap: replaced pages, new pages, a replaced
    /// and a new overflow entry; a record `keep` refuses is tombstoned
    /// in the copy and nowhere else.
    #[test]
    fn a_dirty_section_over_a_whole_one_is_the_heap() {
        let mut h = HeapTable::new();
        let ids: Vec<RowId> = (0..5000).map(|i| h.insert(&row(i))).collect();
        let big = h.insert(&[Value::Blob(vec![3u8; 9000])]);
        let whole = section(&h, true);
        h.mark_clean();
        assert!(!h.is_dirty());
        h.delete(ids[3]);
        h.delete(big);
        let late: Vec<RowId> = (5000..5400).map(|i| h.insert(&row(i))).collect();
        let big2 = h.insert(&[Value::Blob(vec![4u8; 9000])]);
        let hidden = late[10];
        let mut dirty = Vec::new();
        h.write_section(false, h.len() - 1, |id, _| Ok(id != hidden), &mut dirty)
            .unwrap();
        assert!(
            dirty.len() < section(&h, true).len() / 2,
            "the clean pages stay out"
        );

        let mut back = HeapTable::new();
        restore(&mut back, &whole).unwrap();
        assert_eq!(restore(&mut back, &dirty).unwrap(), dirty.len());
        assert_eq!(back.len(), h.len() - 1);
        assert!(back.record(hidden).is_none() && h.record(hidden).is_some());
        let kept = |heap: &HeapTable| -> Vec<(RowId, Vec<u8>)> {
            (heap.records())
                .filter(|&(id, _)| id != hidden)
                .map(|(id, r)| (id, r.to_vec()))
                .collect()
        };
        assert_eq!(kept(&back), kept(&h));
        assert_eq!(record(&back, big2), record(&h, big2));

        // Applied to a heap that lacks the pages it extends, or with a
        // live count the records do not bear out, it is refused.
        assert!(restore(&mut HeapTable::new(), &dirty).is_err());
        let mut lying = dirty.clone();
        let n = lying.len();
        lying[n - 8..].copy_from_slice(&(h.len() as u64).to_le_bytes());
        let mut back = HeapTable::new();
        restore(&mut back, &whole).unwrap();
        assert!(restore(&mut back, &lying).is_err());
    }

    /// Each section applied reports the places whose record it adds or
    /// takes away, and no other: a whole one over an empty heap every
    /// record, a dirty one a deleted record, new slots of a page it
    /// replaces, a new page's records, and an overflow entry deleted and
    /// one added.
    #[test]
    fn a_section_reports_the_places_it_fills_and_empties() {
        let applied = |h: &mut HeapTable, buf: &[u8]| {
            let mut changed = Vec::new();
            let mut c = Cursor::new("snapshot", buf, 0);
            h.restore_section(&mut c, |id, is| changed.push((id, is)))
                .unwrap();
            changed.sort_unstable();
            changed
        };
        let mut h = HeapTable::new();
        let ids: Vec<RowId> = (0..300).map(|i| h.insert(&row(i))).collect();
        let big = h.insert(&[Value::Blob(vec![3u8; 9000])]);
        let mut back = HeapTable::new();
        let all: Vec<_> = h.records().map(|(id, _)| (id, true)).collect();
        assert_eq!(applied(&mut back, &section(&h, true)), all);
        h.mark_clean();
        h.delete(ids[3]);
        h.delete(big);
        let pages = h.page_count();
        let mut late = Vec::new();
        while h.page_count() == pages {
            late.push(h.insert(&row(late.len() as i64)));
        }
        late.push(h.insert(&[Value::Blob(vec![4u8; 9000])]));
        let mut want: Vec<_> = late.iter().map(|&id| (id, true)).collect();
        want.extend([(ids[3], false), (big, false)]);
        want.sort_unstable();
        assert_eq!(applied(&mut back, &section(&h, false)), want);
        assert!(applied(&mut back, &section(&h, false)).is_empty());
    }

    /// A fresh heap's places are its records' positions; with records
    /// deleted they stay distinct and in range.
    #[test]
    fn places_number_every_record_once() {
        let mut h = HeapTable::new();
        let ids: Vec<RowId> = (0..300)
            .map(|i| match i % 50 {
                7 => h.insert(&[Value::Blob(vec![1; 6000])]),
                _ => h.insert(&row(i)),
            })
            .collect();
        let places = h.places();
        assert_eq!(places.count(), h.len());
        for (k, (id, _)) in h.records().enumerate() {
            assert_eq!(places.of(id), Some(k));
        }
        for id in ids.iter().step_by(3) {
            assert!(h.delete(*id));
        }
        let places = h.places();
        let mut seen: Vec<usize> = ids.iter().map(|&id| places.of(id).unwrap()).collect();
        assert!(seen.iter().all(|&p| p < places.count()));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ids.len());
    }

    /// Compaction gives back what deleted records took and moves every
    /// other record, in order, keeping its bytes.
    #[test]
    fn compaction_gives_back_dead_space_and_renumbers_in_order() {
        let mut h = HeapTable::new();
        let ids: Vec<RowId> = (0..3000)
            .map(|i| match i % 500 {
                9 => h.insert(&[Value::Blob(vec![5; 6000])]),
                _ => h.insert(&row(i)),
            })
            .collect();
        let pages = h.page_count();
        for id in ids.iter().step_by(2) {
            assert!(h.delete(*id));
        }
        assert!(h.dead_bytes() * 3 > pages * PAGE_SIZE, "{}", h.dead_bytes());
        let before: Vec<(RowId, Vec<u8>)> = h.records().map(|(id, r)| (id, r.to_vec())).collect();
        let moves = h.compact();
        assert_eq!(h.dead_bytes(), 0);
        assert!(
            h.page_count() <= pages / 2 + 1,
            "{} of {pages}",
            h.page_count()
        );
        assert_eq!(h.len(), before.len());
        let after: Vec<(RowId, Vec<u8>)> = h.records().map(|(id, r)| (id, r.to_vec())).collect();
        let renumbered: Vec<(RowId, Vec<u8>)> = (before.iter())
            .map(|(id, r)| (moves.get(*id).unwrap(), r.clone()))
            .collect();
        assert_eq!(renumbered, after, "every record, in order, at its new id");
        assert!(moves.get(ids[0]).is_none(), "a deleted record goes nowhere");
        assert!(h.is_dirty());
        // A restored heap counts the space its tombstones hold.
        let mut back = HeapTable::new();
        h.delete(after[1].0);
        restore(&mut back, &section(&h, true)).unwrap();
        assert_eq!(back.dead_bytes(), h.dead_bytes());
    }

    #[test]
    fn restore_rejects_truncation() {
        let mut h = HeapTable::new();
        h.insert(&row(1));
        let buf = section(&h, true);
        assert!(restore(&mut HeapTable::new(), &buf[..buf.len() - 4]).is_err());
    }
}
