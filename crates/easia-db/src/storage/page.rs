//! Slotted pages.
//!
//! Classic layout: a slot directory grows from the front, record data grows
//! from the back. Deleting a record tombstones its slot, and a slot is
//! never reused. Records never move between pages, so a `(page, slot)`
//! pair is a stable row address until deletion — across a checkpoint and
//! a restart too, since a checkpoint copies pages with their slot numbers
//! kept. Only a heap's compaction moves records, into fresh pages
//! (`HeapTable::compact`).
//!
//! A page image read from a checkpoint is checked whole by
//! [`Page::from_bytes`] before it is used, so no byte of one can index,
//! slice or count past the page: the compiler refuses an unchecked
//! index, slice, `expect`, `unwrap`, panic or overflowing arithmetic
//! here, except where an `#[allow]` names the invariant that holds it.
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::unwrap_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::arithmetic_side_effects)]

use crate::error::{DbError, Result};

/// Page size in bytes. 8 KiB, as in most disk-based engines.
pub const PAGE_SIZE: usize = 8192;

/// Slot number within a page.
pub type SlotId = u16;

const HEADER: usize = 6; // slot_count: u16, free_start: u16, free_end: u16
/// Bytes of one slot directory entry: offset: u16, len: u16 (len 0 =
/// tombstone).
pub(crate) const SLOT: usize = 4;

/// An 8 KiB slotted page.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut p = Page {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_u16(0, 0); // slot count
        p.set_u16(2, HEADER as u16); // free start
        p.set_u16(4, PAGE_SIZE as u16); // free end
        p
    }

    /// The u16 at `off`, or 0 past the page.
    fn u16_at(&self, off: usize) -> u16 {
        let end = off.saturating_add(2);
        let bytes = self.buf.get(off..end).and_then(|b| b.try_into().ok());
        u16::from_le_bytes(bytes.unwrap_or_default())
    }

    /// Where `slot`'s entry lies in the slot directory: its record's
    /// offset, then its length.
    fn slot_at(slot: SlotId) -> usize {
        SLOT.saturating_mul(slot.into()).saturating_add(HEADER)
    }

    /// Number of slots (including tombstones).
    pub fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    fn free_start(&self) -> usize {
        self.u16_at(2) as usize
    }

    fn free_end(&self) -> usize {
        self.u16_at(4) as usize
    }

    /// Contiguous free bytes available for one more record + slot.
    pub fn free_space(&self) -> usize {
        self.free_end().saturating_sub(self.free_start())
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len > 0 && self.free_space().saturating_sub(SLOT) >= len
    }

    /// Tombstone `slot`; returns true if it held a record.
    pub fn delete(&mut self, slot: SlotId) -> bool {
        let live = self.get(slot).is_some();
        if live {
            self.set_u16(Page::slot_at(slot).saturating_add(2), 0);
        }
        live
    }

    /// Check that no two live records of a page read back from disk
    /// share a byte: two slots over one record would be two rows. A page
    /// as inserts lay it out, each record below the slot's before it,
    /// passes in one walk; any other layout has its records' spans
    /// sorted in `spans`, a scratch buffer reused page after page.
    pub(crate) fn check_disjoint(&self, spans: &mut Vec<(u16, u16)>) -> Result<()> {
        spans.clear();
        let mut below = u16::MAX;
        for slot in 0..self.slot_count() {
            let slot_off = Page::slot_at(slot);
            let (off, len) = (
                self.u16_at(slot_off),
                self.u16_at(slot_off.saturating_add(2)),
            );
            if len != 0 {
                let end = off.saturating_add(len);
                spans.push((off, end));
                below = if end <= below { off } else { 0 };
            }
        }
        if below > 0 {
            return Ok(());
        }
        spans.sort_unstable();
        match spans.windows(2).any(|w| matches!(w, [a, b] if a.1 > b.0)) {
            true => Err(DbError::Storage("page image: two records overlap".into())),
            false => Ok(()),
        }
    }

    /// Live records as `(slot, bytes)` pairs, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Raw bytes, for snapshots.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..]
    }

    /// Bytes of the page its deleted records still take: their slots and
    /// their record bytes, which only a compaction gives back.
    pub(crate) fn dead_bytes(&self) -> usize {
        let used = (PAGE_SIZE.saturating_sub(self.free_end())).saturating_add(self.free_start());
        let live: usize = self
            .iter()
            .map(|(_, rec)| rec.len().saturating_add(SLOT))
            .sum();
        used.saturating_sub(live.saturating_add(HEADER))
    }

    /// Rebuild from snapshot bytes. The header and the slot directory
    /// are checked here, once, so that [`Page::get`] and [`Page::insert`]
    /// can index by them: the directory ends where the header says free
    /// space starts, free space ends inside the page, and every live
    /// record lies between there and the page end. (A checksum only
    /// proves the bytes are the ones written.)
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let bad = |what: &str| DbError::Storage(format!("page image: {what}"));
        let buf: [u8; PAGE_SIZE] = bytes.try_into().map_err(|_| bad("not a whole page"))?;
        let page = Page { buf: Box::new(buf) };
        let dir_end = SLOT
            .saturating_mul(page.slot_count().into())
            .saturating_add(HEADER);
        if dir_end > PAGE_SIZE || page.free_start() != dir_end {
            return Err(bad("slot directory does not match the header"));
        }
        let free_end = page.free_end();
        if free_end < dir_end || free_end > PAGE_SIZE {
            return Err(bad("free space outside the page"));
        }
        for slot_off in (HEADER..dir_end).step_by(SLOT) {
            let off = page.u16_at(slot_off) as usize;
            let len = page.u16_at(slot_off.saturating_add(2)) as usize;
            if len != 0 && (off < free_end || off.saturating_add(len) > PAGE_SIZE) {
                return Err(bad("record outside the page's record area"));
            }
        }
        Ok(page)
    }
}

/// Reads and writes at the offsets a page's slot directory gives: laid
/// out so by [`Page::insert`], or checked so by [`Page::from_bytes`]
/// when the page is read back from disk.
#[allow(
    clippy::indexing_slicing,
    reason = "slot directory checked by Page::from_bytes"
)]
impl Page {
    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off.saturating_add(2)].copy_from_slice(&v.to_le_bytes());
    }

    /// Insert a record; returns its slot. Panics if it does not fit
    /// (callers check [`Page::fits`] first) or if the record is empty.
    pub fn insert(&mut self, record: &[u8]) -> SlotId {
        assert!(self.fits(record.len()), "record does not fit in page");
        let slot = self.slot_count();
        let new_end = self.free_end().saturating_sub(record.len());
        self.buf[new_end..new_end.saturating_add(record.len())].copy_from_slice(record);
        let slot_off = Page::slot_at(slot);
        self.set_u16(slot_off, new_end as u16);
        self.set_u16(slot_off.saturating_add(2), record.len() as u16);
        self.set_u16(0, slot.saturating_add(1));
        self.set_u16(2, slot_off.saturating_add(SLOT) as u16);
        self.set_u16(4, new_end as u16);
        slot
    }

    /// Read the record in `slot`; `None` for tombstones or out-of-range.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let slot_off = Page::slot_at(slot);
        let off = self.u16_at(slot_off) as usize;
        let len = self.u16_at(slot_off.saturating_add(2)) as usize;
        (len != 0).then(|| &self.buf[off..off.saturating_add(len)])
    }

    /// Append this page's bytes to `out` with the slot of every live
    /// record `keep` refuses tombstoned: slot numbers, and every other
    /// record's place, are kept. Only the records kept are copied: the
    /// bytes of a refused record, and of one deleted earlier, are zeros
    /// in the copy.
    pub(crate) fn copy_into(
        &self,
        out: &mut Vec<u8>,
        mut keep: impl FnMut(SlotId, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let at = out.len();
        out.extend_from_slice(&self.buf[..self.free_start()]);
        out.resize(at.saturating_add(PAGE_SIZE), 0);
        for (slot, rec) in self.iter() {
            let slot_off = at.saturating_add(Page::slot_at(slot));
            if keep(slot, rec)? {
                let off = at.saturating_add(self.u16_at(Page::slot_at(slot)).into());
                out[off..off.saturating_add(rec.len())].copy_from_slice(rec);
            } else {
                out[slot_off.saturating_add(2)..slot_off.saturating_add(SLOT)].fill(0);
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "tests read pages they built, whose shape they know"
)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"alpha");
        let b = p.insert(b"beta");
        assert_eq!(p.get(a), Some(&b"alpha"[..]));
        assert_eq!(p.get(b), Some(&b"beta"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"alpha");
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete is a no-op");
        assert_eq!(p.get(a), None);
        // Slot numbers of later inserts keep increasing.
        let b = p.insert(b"beta");
        assert_eq!(b, 1);
    }

    #[test]
    fn fills_until_full() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec);
            n += 1;
        }
        // 8192 - 6 header over (100 + 4) per record ≈ 78 records.
        assert_eq!(n, (PAGE_SIZE - HEADER) / (100 + SLOT));
        assert!(!p.fits(100));
        assert!(p.fits(p.free_space() - SLOT));
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut p = Page::new();
        p.insert(b"a");
        let b = p.insert(b"b");
        p.insert(b"c");
        p.delete(b);
        let live: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(live, vec![(0, b"a".to_vec()), (2, b"c".to_vec())]);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut p = Page::new();
        p.insert(b"persisted");
        let bytes = p.as_bytes().to_vec();
        let q = Page::from_bytes(&bytes).unwrap();
        assert_eq!(q.get(0), Some(&b"persisted"[..]));
        assert!(Page::from_bytes(&bytes[..100]).is_err());
    }

    #[test]
    fn from_bytes_refuses_a_directory_that_would_index_outside_the_page() {
        let mut p = Page::new();
        p.insert(b"first");
        p.insert(b"second");
        p.delete(0);
        let good = p.as_bytes().to_vec();
        let q = Page::from_bytes(&good).unwrap();
        assert_eq!(q.get(0), None, "a tombstone is not damage");
        assert_eq!(q.get(1), Some(&b"second"[..]));

        let set = |img: &mut [u8], off: usize, v: u16| {
            img[off..off + 2].copy_from_slice(&v.to_le_bytes());
        };
        let slot1 = HEADER + SLOT;
        let hostile: [(&str, usize, u16); 8] = [
            ("slot_count past the page", 0, u16::MAX),
            ("slot_count beyond free_start", 0, 3),
            (
                "free_start beyond the directory",
                2,
                (HEADER + 3 * SLOT) as u16,
            ),
            ("free_end past the page", 4, PAGE_SIZE as u16 + 1),
            ("free_end inside the directory", 4, HEADER as u16),
            ("record offset past the page", slot1, PAGE_SIZE as u16 - 2),
            ("record offset in the free area", slot1, 100),
            ("record length past the page", slot1 + 2, 4000),
        ];
        for (what, off, v) in hostile {
            let mut img = good.clone();
            set(&mut img, off, v);
            let err = Page::from_bytes(&img).expect_err(what);
            assert!(matches!(err, DbError::Storage(_)), "{what}: {err}");
        }
    }

    /// Two live slots over one record's bytes, or over parts of two
    /// records, are refused; a tombstone over a live record's place is
    /// no record, and records side by side do not overlap.
    #[test]
    fn overlapping_records_are_refused() {
        let mut p = Page::new();
        p.insert(b"first");
        p.insert(b"second");
        p.insert(b"third");
        let mut spans = Vec::new();
        assert_eq!(p.check_disjoint(&mut spans), Ok(()));
        let slot = |s: usize| HEADER + s * SLOT;
        let mut img = p.as_bytes().to_vec();
        img.copy_within(slot(0)..slot(0) + 4, slot(2));
        let twice = Page::from_bytes(&img).unwrap();
        assert!(matches!(
            twice.check_disjoint(&mut spans),
            Err(DbError::Storage(_))
        ));
        // Slot 2 one byte longer, into the record before it.
        let mut img = p.as_bytes().to_vec();
        let len = u16::from_le_bytes([img[slot(2) + 2], img[slot(2) + 3]]);
        img[slot(2) + 2..slot(2) + 4].copy_from_slice(&(len + 1).to_le_bytes());
        let grown = Page::from_bytes(&img).unwrap();
        assert!(grown.check_disjoint(&mut spans).is_err());
        p.delete(1);
        let mut img = p.as_bytes().to_vec();
        img.copy_within(slot(0)..slot(0) + 2, slot(1));
        let tombstone = Page::from_bytes(&img).unwrap();
        assert_eq!(tombstone.check_disjoint(&mut spans), Ok(()));
    }

    /// A copy holds the records it keeps and nothing of the others: a
    /// refused record and a deleted one are zeros, and every slot keeps
    /// its number.
    #[test]
    fn a_copy_carries_no_bytes_of_a_record_it_does_not_keep() {
        let mut p = Page::new();
        p.insert(b"kept-one");
        let deleted = p.insert(b"deleted-secret");
        let refused = p.insert(b"refused-secret");
        p.insert(b"kept-two");
        p.delete(deleted);
        assert_eq!(p.dead_bytes(), b"deleted-secret".len() + SLOT);
        let mut out = Vec::new();
        p.copy_into(&mut out, |slot, _| Ok(slot != refused))
            .unwrap();
        assert_eq!(out.len(), PAGE_SIZE);
        assert!(!out.windows(6).any(|w| w == b"secret"));
        let q = Page::from_bytes(&out).unwrap();
        let live: Vec<_> = q.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(
            live,
            vec![(0, b"kept-one".to_vec()), (3, b"kept-two".to_vec())]
        );
        assert_eq!(
            q.dead_bytes(),
            p.dead_bytes() + b"refused-secret".len() + SLOT
        );
    }

    #[test]
    fn out_of_range_slot() {
        let p = Page::new();
        assert_eq!(p.get(5), None);
    }
}
