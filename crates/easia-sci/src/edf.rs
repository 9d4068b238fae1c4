//! EDF — the EASIA Data Format.
//!
//! A minimal self-describing scientific container standing in for the
//! HDF files the paper browses with NCSA's SDB: a magic header, a typed
//! attribute table, and named n-dimensional `f64` datasets.
//!
//! Layout (all integers little-endian):
//! ```text
//! "EDF1"
//! u32 attr_count  { u16 key_len, key, u16 val_len, val }*
//! u32 dataset_count
//!   { u16 name_len, name, u8 ndim, u64 dims[ndim], f64 data[prod(dims)] }*
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Magic prefix of EDF files.
pub const MAGIC: &[u8; 4] = b"EDF1";

/// Errors from EDF encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdfError {
    /// Not an EDF file.
    BadMagic,
    /// File ends mid-structure.
    Truncated,
    /// A declared size is inconsistent.
    Malformed(String),
    /// Dataset not present.
    NoSuchDataset(String),
}

impl fmt::Display for EdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdfError::BadMagic => write!(f, "not an EDF file"),
            EdfError::Truncated => write!(f, "truncated EDF file"),
            EdfError::Malformed(m) => write!(f, "malformed EDF file: {m}"),
            EdfError::NoSuchDataset(n) => write!(f, "no such dataset: {n}"),
        }
    }
}

impl std::error::Error for EdfError {}

/// One named dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name, e.g. `u`, `v`, `w`, `p`.
    pub name: String,
    /// Dimensions, e.g. `[64, 64, 64]`.
    pub dims: Vec<u64>,
    /// Row-major data, first dimension fastest (matches
    /// [`crate::field::TurbulenceField`] layout for 3-D grids).
    pub data: Vec<f64>,
}

impl Dataset {
    /// Total element count implied by `dims`.
    pub fn element_count(&self) -> Result<u64, EdfError> {
        element_count(&self.name, &self.dims)
    }
}

/// The product of `dims`; `Malformed` when it does not fit a `u64`.
fn element_count(name: &str, dims: &[u64]) -> Result<u64, EdfError> {
    dims.iter()
        .try_fold(1u64, |n, &d| n.checked_mul(d))
        .ok_or_else(|| overflow(name, dims))
}

#[cold]
fn overflow(name: &str, dims: &[u64]) -> EdfError {
    EdfError::Malformed(format!("{name}: dims {dims:?} overflow"))
}

/// An in-memory EDF file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdfFile {
    /// String attributes (title, units, timestep, ...).
    pub attrs: BTreeMap<String, String>,
    /// Datasets in insertion order.
    pub datasets: Vec<Dataset>,
}

impl EdfFile {
    /// Empty file.
    pub fn new() -> Self {
        EdfFile::default()
    }

    /// Set an attribute (builder style).
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.attrs.insert(key.to_string(), value.to_string());
        self
    }

    /// Add a dataset (builder style). Panics if `data.len()` does not
    /// match the dimensions.
    pub fn with_dataset(mut self, name: &str, dims: &[u64], data: Vec<f64>) -> Self {
        assert_eq!(
            Ok(data.len() as u64),
            element_count(name, dims),
            "dataset {name}: {} elements for dims {dims:?}",
            data.len()
        );
        self.datasets.push(Dataset {
            name: name.to_string(),
            dims: dims.to_vec(),
            data,
        });
        self
    }

    /// Find a dataset by name.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Serialise to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.attrs.len() as u32).to_le_bytes());
        for (k, v) in &self.attrs {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(&(v.len() as u16).to_le_bytes());
            out.extend_from_slice(v.as_bytes());
        }
        out.extend_from_slice(&(self.datasets.len() as u32).to_le_bytes());
        for d in &self.datasets {
            out.extend_from_slice(&(d.name.len() as u16).to_le_bytes());
            out.extend_from_slice(d.name.as_bytes());
            out.push(d.dims.len() as u8);
            for &dim in &d.dims {
                out.extend_from_slice(&dim.to_le_bytes());
            }
            for &x in &d.data {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// Parse from bytes (full materialisation; use [`EdfReader`] for
    /// header-only or range reads).
    pub fn decode(bytes: &[u8]) -> Result<EdfFile, EdfError> {
        let reader = EdfReader::open(bytes)?;
        let mut file = EdfFile {
            attrs: reader.attrs.clone(),
            datasets: Vec::new(),
        };
        for meta in &reader.datasets {
            let data = reader.read_dataset(bytes, &meta.name)?;
            file.datasets.push(Dataset {
                name: meta.name.clone(),
                dims: meta.dims.clone(),
                data,
            });
        }
        Ok(file)
    }
}

/// Dataset metadata without the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Dataset name.
    pub name: String,
    /// Dimensions.
    pub dims: Vec<u64>,
    /// Byte offset of the payload within the file.
    pub data_offset: usize,
}

impl DatasetMeta {
    /// Total element count.
    pub fn element_count(&self) -> Result<u64, EdfError> {
        element_count(&self.name, &self.dims)
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> Result<u64, EdfError> {
        let n = self.element_count()?;
        n.checked_mul(8)
            .ok_or_else(|| overflow(&self.name, &self.dims))
    }
}

/// Bytes a directory entry takes at the least: a name length, a
/// dimension count and one dimension.
const MIN_ENTRY: usize = 2 + 1 + 8;

/// The values of a range read, decoded as they are read: see
/// [`EdfReader::values`]. `nth` (and so `step_by`) skips without
/// decoding.
#[derive(Debug, Clone)]
pub struct Values<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for Values<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        self.0.next().map(decode)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<f64> {
        self.0.nth(n).map(decode)
    }
}

impl ExactSizeIterator for Values<'_> {}

#[inline]
fn decode(c: &[u8]) -> f64 {
    f64::from_le_bytes(c.try_into().expect("8 bytes"))
}

/// Header-level reader: parses attributes and dataset directory without
/// touching payloads — this is what lets server-side operations slice a
/// dataset while reading only the bytes they need.
#[derive(Debug, Clone)]
pub struct EdfReader {
    /// File attributes.
    pub attrs: BTreeMap<String, String>,
    /// Dataset directory.
    pub datasets: Vec<DatasetMeta>,
}

impl EdfReader {
    /// Parse the header of `bytes`.
    pub fn open(bytes: &[u8]) -> Result<EdfReader, EdfError> {
        if bytes.len() < 4 {
            return Err(EdfError::BadMagic);
        }
        if &bytes[..4] != MAGIC {
            return Err(EdfError::BadMagic);
        }
        let mut pos = 4usize;
        let read_u16 = |pos: &mut usize| -> Result<u16, EdfError> {
            let s = bytes.get(*pos..*pos + 2).ok_or(EdfError::Truncated)?;
            *pos += 2;
            Ok(u16::from_le_bytes(s.try_into().expect("2 bytes")))
        };
        let read_u32 = |pos: &mut usize| -> Result<u32, EdfError> {
            let s = bytes.get(*pos..*pos + 4).ok_or(EdfError::Truncated)?;
            *pos += 4;
            Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
        };
        let read_u64 = |pos: &mut usize| -> Result<u64, EdfError> {
            let s = bytes.get(*pos..*pos + 8).ok_or(EdfError::Truncated)?;
            *pos += 8;
            Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
        };
        let read_str = |pos: &mut usize, len: usize| -> Result<String, EdfError> {
            let s = bytes.get(*pos..*pos + len).ok_or(EdfError::Truncated)?;
            *pos += len;
            String::from_utf8(s.to_vec()).map_err(|_| EdfError::Malformed("non-utf8 name".into()))
        };
        let nattrs = read_u32(&mut pos)?;
        let mut attrs = BTreeMap::new();
        for _ in 0..nattrs {
            let klen = read_u16(&mut pos)? as usize;
            let k = read_str(&mut pos, klen)?;
            let vlen = read_u16(&mut pos)? as usize;
            let v = read_str(&mut pos, vlen)?;
            attrs.insert(k, v);
        }
        let ndatasets = read_u32(&mut pos)?;
        // A count the rest of the file cannot hold reserves no more
        // than the file could describe.
        let room = (bytes.len() - pos) / MIN_ENTRY;
        let mut datasets = Vec::with_capacity((ndatasets as usize).min(room));
        for _ in 0..ndatasets {
            let nlen = read_u16(&mut pos)? as usize;
            let name = read_str(&mut pos, nlen)?;
            let ndim = *bytes.get(pos).ok_or(EdfError::Truncated)? as usize;
            pos += 1;
            if ndim == 0 || ndim > 8 {
                return Err(EdfError::Malformed(format!("{name}: {ndim} dimensions")));
            }
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                dims.push(read_u64(&mut pos)?);
            }
            let meta = DatasetMeta {
                name,
                dims,
                data_offset: pos,
            };
            let end = usize::try_from(meta.byte_len()?)
                .ok()
                .and_then(|skip| pos.checked_add(skip))
                .ok_or_else(|| overflow(&meta.name, &meta.dims))?;
            if end > bytes.len() {
                return Err(EdfError::Truncated);
            }
            pos = end;
            datasets.push(meta);
        }
        Ok(EdfReader { attrs, datasets })
    }

    /// Metadata of a dataset by name.
    pub fn meta(&self, name: &str) -> Result<&DatasetMeta, EdfError> {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| EdfError::NoSuchDataset(name.to_string()))
    }

    /// Read a whole dataset's values from the file bytes.
    pub fn read_dataset(&self, bytes: &[u8], name: &str) -> Result<Vec<f64>, EdfError> {
        let meta = self.meta(name)?;
        self.read_elements(bytes, name, 0, meta.element_count()?)
    }

    /// Read `count` elements starting at element `start` into a vector:
    /// [`EdfReader::values`], collected.
    pub fn read_elements(
        &self,
        bytes: &[u8],
        name: &str,
        start: u64,
        count: u64,
    ) -> Result<Vec<f64>, EdfError> {
        Ok(self.values(bytes, name, start, count)?.collect())
    }

    /// The `count` elements from element `start` on, decoded from
    /// `bytes` as they are read — the one range primitive that slicing,
    /// statistics and previews are built on. Nothing is copied.
    pub fn values<'a>(
        &self,
        bytes: &'a [u8],
        name: &str,
        start: u64,
        count: u64,
    ) -> Result<Values<'a>, EdfError> {
        let meta = self.meta(name)?;
        let total = meta.element_count()?;
        if start.checked_add(count).is_none_or(|end| end > total) {
            return Err(EdfError::Malformed(format!(
                "{name}: range {start}+{count} beyond {total} elements"
            )));
        }
        // In range, so `start` and `count` are at most the element
        // count; the bytes may still be shorter than the header says.
        let bytes_of = |n: u64| usize::try_from(n).ok()?.checked_mul(8);
        let payload = bytes_of(start)
            .and_then(|skip| meta.data_offset.checked_add(skip))
            .zip(bytes_of(count))
            .and_then(|(off, len)| bytes.get(off..off.checked_add(len)?))
            .ok_or(EdfError::Truncated)?;
        Ok(Values(payload.chunks_exact(8)))
    }
}

/// Build the canonical EASIA timestep file from a turbulence field.
pub fn timestep_file(
    field: &crate::field::TurbulenceField,
    simulation_key: &str,
    timestep: u32,
) -> EdfFile {
    let n = field.n as u64;
    EdfFile::new()
        .with_attr("simulation", simulation_key)
        .with_attr("timestep", &timestep.to_string())
        .with_attr("measurement", "u,v,w,p")
        .with_attr("grid", &format!("{n}x{n}x{n}"))
        .with_dataset("u", &[n, n, n], field.u.clone())
        .with_dataset("v", &[n, n, n], field.v.clone())
        .with_dataset("w", &[n, n, n], field.w.clone())
        .with_dataset("p", &[n, n, n], field.p.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldSpec, TurbulenceField};

    fn sample() -> EdfFile {
        EdfFile::new()
            .with_attr("title", "test")
            .with_attr("timestep", "3")
            .with_dataset("u", &[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .with_dataset("scalar", &[4], vec![0.5; 4])
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = sample();
        let bytes = f.encode();
        let back = EdfFile::decode(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn header_reader_reads_directory_only() {
        let bytes = sample().encode();
        let r = EdfReader::open(&bytes).unwrap();
        assert_eq!(r.attrs["title"], "test");
        assert_eq!(r.datasets.len(), 2);
        assert_eq!(r.meta("u").unwrap().dims, vec![2, 3]);
        assert!(r.meta("zzz").is_err());
    }

    #[test]
    fn range_reads() {
        let bytes = sample().encode();
        let r = EdfReader::open(&bytes).unwrap();
        assert_eq!(
            r.read_elements(&bytes, "u", 2, 3).unwrap(),
            vec![3.0, 4.0, 5.0]
        );
        assert!(r.read_elements(&bytes, "u", 5, 3).is_err(), "out of range");
        let odd: Vec<f64> = r.values(&bytes, "u", 0, 6).unwrap().step_by(2).collect();
        assert_eq!(odd, vec![1.0, 3.0, 5.0]);
        assert_eq!(r.values(&bytes, "u", 6, 0).unwrap().len(), 0);
        assert!(matches!(
            r.values(&bytes, "u", u64::MAX, 2).unwrap_err(),
            EdfError::Malformed(_)
        ));
        // The directory is trusted only as far as the bytes reach.
        assert_eq!(
            r.values(&bytes[..bytes.len() - 8], "scalar", 0, 4)
                .unwrap_err(),
            EdfError::Truncated
        );
    }

    /// A header of one dataset named `d` with these dimensions and no
    /// payload.
    fn header(dims: &[u64]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'd');
        b.push(dims.len() as u8);
        for d in dims {
            b.extend_from_slice(&d.to_le_bytes());
        }
        b
    }

    /// Twelve bytes that declare `u32::MAX` datasets once reserved room
    /// for all of them before reading the first, and aborted the process.
    #[test]
    fn a_dataset_count_reserves_only_what_the_bytes_can_hold() {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(EdfReader::open(&b).unwrap_err(), EdfError::Truncated);
    }

    /// Dimensions whose element or byte count overflows a `u64` once
    /// panicked a debug build and, in release, wrapped to an empty
    /// dataset.
    #[test]
    fn overflowing_dims_are_malformed() {
        for dims in [
            &[1u64 << 32, 1 << 32][..],
            &[1 << 61],
            &[u64::MAX, 2],
            &[3, 1 << 63],
        ] {
            let err = EdfReader::open(&header(dims)).unwrap_err();
            assert!(matches!(err, EdfError::Malformed(_)), "{dims:?}: {err}");
        }
        // A product that fits but outruns the bytes is a truncation.
        assert_eq!(
            EdfReader::open(&header(&[1 << 20, 1 << 20])).unwrap_err(),
            EdfError::Truncated
        );
    }

    #[test]
    fn bad_inputs() {
        assert_eq!(EdfFile::decode(b"nope").unwrap_err(), EdfError::BadMagic);
        let bytes = sample().encode();
        assert!(matches!(
            EdfFile::decode(&bytes[..bytes.len() - 4]).unwrap_err(),
            EdfError::Truncated
        ));
    }

    #[test]
    #[should_panic(expected = "elements for dims")]
    fn dataset_shape_checked() {
        let _ = EdfFile::new().with_dataset("x", &[2, 2], vec![1.0]);
    }

    #[test]
    fn timestep_file_layout() {
        let field = TurbulenceField::generate(&FieldSpec::small(1), 0.0);
        let f = timestep_file(&field, "S1", 7);
        assert_eq!(f.attrs["simulation"], "S1");
        assert_eq!(f.attrs["timestep"], "7");
        assert_eq!(f.datasets.len(), 4);
        let bytes = f.encode();
        let r = EdfReader::open(&bytes).unwrap();
        assert_eq!(r.meta("w").unwrap().dims, vec![32, 32, 32]);
        // Round-trips exactly.
        let u = r.read_dataset(&bytes, "u").unwrap();
        assert_eq!(u, field.u);
    }

    #[test]
    fn file_size_scales_as_expected() {
        // A 64^3 four-component timestep is ~8 MB; sanity-check the
        // arithmetic used when synthesising archive workloads.
        let n = 64u64;
        let one = n * n * n * 8;
        assert_eq!(one * 4, 8_388_608);
    }
}
