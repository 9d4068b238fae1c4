//! Row storage: slotted pages, heap tables, the checkpoint image, and
//! seeded disk-fault injection for durability testing.

pub mod fault;
pub mod heap;
pub mod page;
pub mod snapshot;

pub use fault::{DiskFault, DiskFaultInjector};
pub use heap::{HeapTable, RowId};
pub use page::{Page, SlotId, PAGE_SIZE};

use crate::error::{DbError, Result};

/// The one reader of both on-disk formats, the log's records and the
/// checkpoint image: little-endian integers and `u32`-length strings
/// from `buf` at `pos`. A read past the end is a storage error naming
/// the format.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    format: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(format: &'static str, buf: &'a [u8], pos: usize) -> Self {
        Cursor { buf, pos, format }
    }

    /// A storage error naming the format.
    pub(crate) fn error(&self, what: &str) -> DbError {
        DbError::Storage(format!("{}: {what}", self.format))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = (self.buf.get(self.pos..self.pos.saturating_add(n)))
            .ok_or_else(|| self.error("truncated"))?;
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize)
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()?;
        let bytes = self.take(len)?.to_vec();
        String::from_utf8(bytes).map_err(|_| self.error("bad utf8"))
    }
}

/// Write `s` as [`Cursor::str`] reads it.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}
