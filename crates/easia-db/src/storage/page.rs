//! Slotted pages.
//!
//! Classic layout: a slot directory grows from the front, record data grows
//! from the back. Deleting a record tombstones its slot; the dead space is
//! squeezed out when a checkpoint copies the live records into a fresh
//! heap. Records never move between pages, so a `(page, slot)` pair is a
//! stable row address until deletion.

use crate::error::{DbError, Result};

/// Page size in bytes. 8 KiB, as in most disk-based engines.
pub const PAGE_SIZE: usize = 8192;

/// Slot number within a page.
pub type SlotId = u16;

const HEADER: usize = 6; // slot_count: u16, free_start: u16, free_end: u16
const SLOT: usize = 4; // offset: u16, len: u16 (len 0 = tombstone)

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

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
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
        len > 0 && self.free_space() >= len + SLOT
    }

    /// Insert a record; returns its slot. Panics if it does not fit
    /// (callers check [`Page::fits`] first) or if the record is empty.
    pub fn insert(&mut self, record: &[u8]) -> SlotId {
        assert!(self.fits(record.len()), "record does not fit in page");
        let slot = self.slot_count();
        let new_end = self.free_end() - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        let slot_off = HEADER + slot as usize * SLOT;
        self.set_u16(slot_off, new_end as u16);
        self.set_u16(slot_off + 2, record.len() as u16);
        self.set_u16(0, slot + 1);
        self.set_u16(2, (slot_off + SLOT) as u16);
        self.set_u16(4, new_end as u16);
        slot
    }

    /// Read the record in `slot`; `None` for tombstones or out-of-range.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let slot_off = HEADER + slot as usize * SLOT;
        let off = self.u16_at(slot_off) as usize;
        let len = self.u16_at(slot_off + 2) as usize;
        if len == 0 {
            None
        } else {
            Some(&self.buf[off..off + len])
        }
    }

    /// Tombstone `slot`; returns true if it held a record.
    pub fn delete(&mut self, slot: SlotId) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let slot_off = HEADER + slot as usize * SLOT;
        if self.u16_at(slot_off + 2) == 0 {
            return false;
        }
        self.set_u16(slot_off + 2, 0);
        true
    }

    /// Live records as `(slot, bytes)` pairs, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Raw bytes, for snapshots.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..]
    }

    /// Rebuild from snapshot bytes. The header and the slot directory
    /// are checked here, once, so that [`Page::get`] and [`Page::insert`]
    /// can index by them: the directory ends where the header says free
    /// space starts, free space ends inside the page, and every live
    /// record lies between there and the page end. (A checksum only
    /// proves the bytes are the ones written.)
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let bad = |what: &str| DbError::Storage(format!("page image: {what}"));
        if bytes.len() != PAGE_SIZE {
            return Err(bad("not a whole page"));
        }
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        buf.copy_from_slice(bytes);
        let page = Page { buf };
        let dir_end = HEADER + page.slot_count() as usize * SLOT;
        if dir_end > PAGE_SIZE || page.free_start() != dir_end {
            return Err(bad("slot directory does not match the header"));
        }
        let free_end = page.free_end();
        if free_end < dir_end || free_end > PAGE_SIZE {
            return Err(bad("free space outside the page"));
        }
        for slot_off in (HEADER..dir_end).step_by(SLOT) {
            let off = page.u16_at(slot_off) as usize;
            let len = page.u16_at(slot_off + 2) as usize;
            if len != 0 && (off < free_end || off + len > PAGE_SIZE) {
                return Err(bad("record outside the page's record area"));
            }
        }
        Ok(page)
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

    #[test]
    fn out_of_range_slot() {
        let p = Page::new();
        assert_eq!(p.get(5), None);
    }
}
