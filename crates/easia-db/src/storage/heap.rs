//! Heap tables: an append-friendly collection of slotted pages, plus an
//! overflow area for records too large for one page (big BLOB/CLOB rows —
//! the "small files that can be uploaded over the Internet").

use super::page::{Page, SlotId, PAGE_SIZE};
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
            return RowId::overflow(self.overflow.len() as u64 - 1);
        }
        // Append to the last page with room; otherwise a new page. A
        // free-space map would avoid the linear tail check; with
        // append-mostly metadata tables the last page almost always fits.
        if let Some((i, page)) = self.pages.iter_mut().enumerate().next_back() {
            if page.fits(rec.len()) {
                let slot = page.insert(&rec);
                return RowId::paged(i as u32, slot);
            }
        }
        let mut page = Page::new();
        let slot = page.insert(&rec);
        self.pages.push(page);
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
            RowAddr::Paged(p, s) => self
                .pages
                .get_mut(p as usize)
                .map(|pg| pg.delete(s))
                .unwrap_or(false),
            RowAddr::Overflow(i) => self
                .overflow
                .get_mut(i)
                .map(|slot| slot.take().is_some())
                .unwrap_or(false),
        };
        if deleted {
            self.len -= 1;
        }
        deleted
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

    /// How many places a record of this heap can take — each page's slots
    /// in turn, then the overflow entries — and each row id's place.
    pub(crate) fn places(&self) -> (usize, impl Fn(RowId) -> usize + '_) {
        let mut starts = vec![0];
        for page in &self.pages {
            starts.push(starts[starts.len() - 1] + usize::from(page.slot_count()));
        }
        let overflow = starts[self.pages.len()];
        let place = move |id: RowId| match id.decode() {
            RowAddr::Paged(p, s) => starts[p as usize] + usize::from(s),
            RowAddr::Overflow(i) => overflow + i,
        };
        (overflow + self.overflow.len(), place)
    }

    /// Serialise the whole heap for a snapshot.
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for p in &self.pages {
            out.extend_from_slice(p.as_bytes());
        }
        out.extend_from_slice(&(self.overflow.len() as u32).to_le_bytes());
        for rec in &self.overflow {
            match rec {
                Some(r) => {
                    out.extend_from_slice(&(r.len() as u32 + 1).to_le_bytes());
                    out.extend_from_slice(r);
                }
                None => out.extend_from_slice(&0u32.to_le_bytes()),
            }
        }
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
    }

    /// Rebuild a heap from snapshot bytes, advancing `pos`. The bytes
    /// come from disk: a count the remaining input cannot hold is
    /// refused before anything is reserved for it, every page's slot
    /// directory is checked ([`Page::from_bytes`]), and the live count
    /// must be the number of records found.
    pub fn restore(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let trunc = || DbError::Storage("heap snapshot truncated".into());
        let read_u32 = |buf: &[u8], pos: &mut usize| -> Result<u32> {
            let s = buf.get(*pos..*pos + 4).ok_or_else(trunc)?;
            *pos += 4;
            Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
        };
        let npages = read_u32(buf, pos)? as usize;
        if npages > (buf.len() - *pos) / PAGE_SIZE {
            return Err(trunc());
        }
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            pages.push(Page::from_bytes(&buf[*pos..*pos + PAGE_SIZE])?);
            *pos += PAGE_SIZE;
        }
        let nover = read_u32(buf, pos)? as usize;
        // Every overflow entry takes at least its 4-byte marker.
        if nover > (buf.len() - *pos) / 4 {
            return Err(trunc());
        }
        let mut overflow = Vec::with_capacity(nover);
        for _ in 0..nover {
            let marker = read_u32(buf, pos)? as usize;
            if marker == 0 {
                overflow.push(None);
            } else {
                let len = marker - 1;
                let rec = buf.get(*pos..*pos + len).ok_or_else(trunc)?.to_vec();
                *pos += len;
                overflow.push(Some(rec));
            }
        }
        let len_bytes = buf.get(*pos..*pos + 8).ok_or_else(trunc)?;
        *pos += 8;
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes"));
        let heap = HeapTable {
            pages,
            overflow,
            len: len as usize,
        };
        if heap.records().count() as u64 != len {
            return Err(DbError::Storage(
                "heap snapshot: live row count does not match the records".into(),
            ));
        }
        Ok(heap)
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

    #[test]
    fn snapshot_round_trip() {
        let mut h = HeapTable::new();
        let a = h.insert(&row(1));
        let b = h.insert(&[Value::Blob(vec![9u8; 20_000])]);
        let c = h.insert(&row(3));
        h.delete(c);
        let mut buf = Vec::new();
        h.snapshot(&mut buf);
        let mut pos = 0;
        let h2 = HeapTable::restore(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(h2.len(), 2);
        assert_eq!(record(&h2, a), Some(rec(&row(1))));
        assert_eq!(record(&h2, b), Some(rec(&[Value::Blob(vec![9u8; 20_000])])));
        assert!(h2.record(c).is_none());
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
        {
            let (places, place) = h.places();
            assert_eq!(places, h.len());
            for (k, (id, _)) in h.records().enumerate() {
                assert_eq!(place(id), k);
            }
        }
        for id in ids.iter().step_by(3) {
            assert!(h.delete(*id));
        }
        let (places, place) = h.places();
        let mut seen: Vec<usize> = ids.iter().map(|&id| place(id)).collect();
        assert!(seen.iter().all(|&p| p < places));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ids.len());
    }

    #[test]
    fn restore_rejects_truncation() {
        let mut h = HeapTable::new();
        h.insert(&row(1));
        let mut buf = Vec::new();
        h.snapshot(&mut buf);
        let mut pos = 0;
        assert!(HeapTable::restore(&buf[..buf.len() - 4], &mut pos).is_err());
    }
}
