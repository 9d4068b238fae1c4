//! Heap tables: an append-friendly collection of slotted pages, plus an
//! overflow area for records too large for one page (big BLOB/CLOB rows —
//! the "small files that can be uploaded over the Internet").

use super::page::{Page, SlotId, PAGE_SIZE};
use crate::error::{DbError, Result};
use crate::value::{decode_row, encode_row, Value};
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

    /// Fetch and decode the row at `id`; `None` if deleted/never existed.
    /// For the engine's own upkeep (constraint checks, index
    /// maintenance): a statement's reads take [`HeapTable::record`] and
    /// report what the decoder makes of it.
    pub fn get(&self, id: RowId) -> Option<Vec<Value>> {
        decode_row(self.record(id)?, &mut 0).ok()
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

    /// Replace the row at `id` with `row`. The row moves (delete +
    /// re-insert), so the returned id supersedes the old one.
    pub fn update(&mut self, id: RowId, row: &[Value]) -> Result<RowId> {
        if !self.delete(id) {
            return Err(DbError::Storage(format!("update of missing row {id:?}")));
        }
        Ok(self.insert(row))
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

    /// Iterate `(RowId, row)` over all live rows in storage order; like
    /// [`HeapTable::get`], for the engine's own upkeep.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        self.records().map(|(rid, rec)| {
            let row = decode_row(rec, &mut 0).expect("stored rows decode");
            (rid, row)
        })
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

    #[test]
    fn insert_get_delete() {
        let mut h = HeapTable::new();
        let a = h.insert(&row(1));
        let b = h.insert(&row(2));
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(a).unwrap()[0], Value::Int(1));
        assert!(h.delete(a));
        assert!(h.get(a).is_none());
        assert!(!h.delete(a));
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(b).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn update_moves_row() {
        let mut h = HeapTable::new();
        let a = h.insert(&row(1));
        let a2 = h.update(a, &row(99)).unwrap();
        assert!(h.get(a).is_none());
        assert_eq!(h.get(a2).unwrap()[0], Value::Int(99));
        assert_eq!(h.len(), 1);
        assert!(h.update(a, &row(5)).is_err(), "stale id rejected");
    }

    #[test]
    fn spans_multiple_pages() {
        let mut h = HeapTable::new();
        let ids: Vec<RowId> = (0..2000).map(|i| h.insert(&row(i))).collect();
        assert!(h.page_count() > 1);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.get(*id).unwrap()[0], Value::Int(i as i64));
        }
        assert_eq!(h.scan().count(), 2000);
    }

    #[test]
    fn large_rows_use_overflow() {
        let mut h = HeapTable::new();
        let big = vec![Value::Blob(vec![7u8; 100_000])];
        let id = h.insert(&big);
        assert_eq!(h.page_count(), 0, "big row bypasses pages");
        assert_eq!(h.get(id).unwrap(), big);
        assert!(h.delete(id));
        assert!(h.get(id).is_none());
    }

    #[test]
    fn scan_covers_pages_and_overflow() {
        let mut h = HeapTable::new();
        h.insert(&row(1));
        h.insert(&[Value::Blob(vec![1u8; 50_000])]);
        h.insert(&row(2));
        let rows: Vec<_> = h.scan().collect();
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
        assert_eq!(h2.get(a).unwrap()[0], Value::Int(1));
        assert_eq!(h2.get(b).unwrap()[0], Value::Blob(vec![9u8; 20_000]));
        assert!(h2.get(c).is_none());
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
