//! Mutation property of the EDF readers: every reader of a stored file
//! gives a typed error or an answer on damaged bytes — it never panics,
//! and it allocates in proportion to the bytes it was given.
//!
//! The input is a real timestep file (four 8³ components), truncated
//! and with bits flipped, most of them in its headers: the attribute
//! table and each dataset's name, dimension count and dimensions. Every
//! reader of stored bytes takes it: `EdfReader::open`, the range
//! primitive `EdfReader::values` (in range and past the end),
//! `extract_plane` on all three axes, `dataset_stats` and
//! `sdb::describe`. Before the header arithmetic was checked, twelve
//! bytes could ask `open` to reserve `u32::MAX` directory entries
//! (an abort) and dimensions whose product overflows panicked it.
//!
//! One test only: the allocation counter is process-wide.

use easia_sci::edf::{timestep_file, EdfReader};
use easia_sci::sdb::{describe, SdbFormat};
use easia_sci::slice::{extract_plane, Axis};
use easia_sci::stats::dataset_stats;
use easia_sci::{FieldSpec, TurbulenceField};
use proptest::prelude::*;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const GRID: u64 = 8;
const COMPONENTS: [&str; 4] = ["u", "v", "w", "p"];
/// Bytes one reader call may allocate per input byte, plus a constant:
/// a directory entry and its `DatasetMeta`, a rendered description
/// line, formatted error text.
const PER_BYTE: u64 = 64;
const CONSTANT: u64 = 16 * 1024;

/// The timestep file and the offsets of its header bytes.
fn sample() -> (Vec<u8>, Vec<usize>) {
    let spec = FieldSpec {
        n: GRID as usize,
        modes: 8,
        seed: 29,
        length_scale: 0.3,
    };
    let bytes = timestep_file(&TurbulenceField::generate(&spec, 0.0), "S1", 4).encode();
    let reader = EdfReader::open(&bytes).unwrap();
    let mut headers: Vec<usize> = Vec::new();
    let mut from = 0;
    for meta in &reader.datasets {
        // Everything up to the payload: the attributes before the first
        // dataset, and each dataset's own name, ndim and dims.
        headers.extend(from..meta.data_offset);
        from = meta.data_offset + (meta.byte_len().unwrap() as usize);
    }
    (bytes, headers)
}

/// Run one reader call, failing the case when it allocates more than
/// in proportion to `len` input bytes.
fn bounded<T>(what: &str, len: usize, call: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    let (out, counts) = counted(call);
    let spent = counts.bytes;
    let cap = PER_BYTE * len as u64 + CONSTANT;
    prop_assert!(
        spent <= cap,
        "{what} allocated {spent} bytes for {len} input bytes"
    );
    Ok(out)
}

proptest! {
    #[test]
    fn damaged_edf_files_are_typed_errors_in_bounded_memory(
        flips in proptest::collection::vec((any::<usize>(), 0u8..8, 0u8..4), 0..6),
        cut in any::<usize>(),
        truncate in any::<bool>(),
    ) {
        let (mut bytes, headers) = sample();
        let clean = bytes.clone();
        for (at, bit, anywhere) in flips {
            // Three flips in four land in a header.
            let at = if anywhere == 0 { at % bytes.len() } else { headers[at % headers.len()] };
            bytes[at] ^= 1 << bit;
        }
        if truncate {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let len = bytes.len();

        if let Ok(reader) = bounded("open", len, || EdfReader::open(&bytes))? {
            for meta in &reader.datasets {
                if !std::ptr::eq(reader.meta(&meta.name).unwrap(), meta) {
                    continue; // a flip duplicated a name: reads find the first
                }
                let total = meta.element_count();
                prop_assert!(total.is_ok(), "open accepted {:?}", meta.dims);
                let total = total.unwrap();
                let sum = bounded("values", len, || {
                    reader
                        .values(&bytes, &meta.name, 0, total)
                        .map(|v| v.fold(0.0, |s, x| s + x))
                })?;
                prop_assert!(sum.is_ok(), "{}: {:?}", meta.name, sum);
                let past = reader.values(&bytes, &meta.name, total, 1);
                prop_assert!(past.is_err());
                prop_assert!(reader.values(&bytes, &meta.name, u64::MAX, 2).is_err());
            }
        }
        for name in COMPONENTS {
            for axis in [Axis::X, Axis::Y, Axis::Z] {
                for index in [0, GRID as usize - 1] {
                    let plane = bounded("extract_plane", len, || {
                        extract_plane(&bytes, name, axis, index)
                    })?;
                    if let Ok(p) = plane {
                        prop_assert!(p.values.len() == p.rows * p.cols);
                        prop_assert!(p.values.len() * 8 <= len);
                    }
                }
            }
            let _ = bounded("dataset_stats", len, || dataset_stats(&bytes, name))?;
        }
        for format in [SdbFormat::Text, SdbFormat::Html] {
            let _ = bounded("describe", len, || describe(&bytes, format))?;
        }
        if bytes == clean {
            prop_assert!(COMPONENTS.iter().all(|c| dataset_stats(&bytes, c).is_ok()));
            prop_assert!(describe(&bytes, SdbFormat::Text).is_ok());
        }
    }
}
