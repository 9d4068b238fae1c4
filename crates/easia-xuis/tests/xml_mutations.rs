//! Mutation property of the XML reader and the XUIS loader: a damaged
//! XUIS document gives a typed error or a document, never a panic, and
//! `parse_document` and `from_xml` allocate in proportion to the bytes
//! they were given.
//!
//! The input is a real document: the default XUIS `generate_default`
//! builds for a two-table catalogue with a foreign key, a DATALINK
//! column and harvested sample values, written by `to_xml`. It is cut at
//! every length, has every bit flipped on its own, and takes seeded
//! mixes of flips, inserted bytes and a cut. Bytes that are no longer
//! UTF-8 are read lossily, as a text field would be.
//!
//! One test only: the allocation counter is process-wide.

use easia_db::Database;
use easia_xml::parse_document;
use easia_xuis::{from_xml, generate_default, to_xml};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes one reader call may allocate per input byte, plus a constant:
/// the parser's copy of the text as chars (4 per byte), the tree's names,
/// attributes and text, the model's strings, formatted error text.
/// Measured: at most 16 per byte beyond the constant.
const PER_BYTE: u64 = 32;
const CONSTANT: u64 = 16 * 1024;

fn document() -> String {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE author (author_key VARCHAR(20) PRIMARY KEY, name VARCHAR(60))")
        .unwrap();
    db.execute(
        "CREATE TABLE result_file (file_name VARCHAR(40) PRIMARY KEY, \
         author_key VARCHAR(20) REFERENCES author(author_key), \
         download_result DATALINK LINKTYPE URL NO FILE LINK CONTROL, size INTEGER)",
    )
    .unwrap();
    db.execute("INSERT INTO author VALUES ('A1', 'Ann <&> O''Neil')")
        .unwrap();
    db.execute("INSERT INTO result_file VALUES ('t0.edf', 'A1', 'http://fs1/t0.edf', 7)")
        .unwrap();
    to_xml(&generate_default(&mut db, 2))
}

/// Read `bytes` both ways, failing when either call allocates more than
/// in proportion to their length; whether the XML parsed.
fn reads(bytes: &[u8], case: &str) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let cap = PER_BYTE * text.len() as u64 + CONSTANT;
    let (parsed, counts) = counted(|| parse_document(&text));
    assert!(
        counts.bytes <= cap,
        "{case}: parse_document allocated {} bytes for {}",
        counts.bytes,
        text.len()
    );
    let (loaded, counts) = counted(|| from_xml(&text));
    assert!(
        counts.bytes <= cap,
        "{case}: from_xml allocated {} bytes for {}",
        counts.bytes,
        text.len()
    );
    assert!(parsed.is_ok() || loaded.is_err(), "{case}");
    parsed.is_ok()
}

/// xorshift64*: deterministic, so a failure names its case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

#[test]
fn damaged_documents_read_to_typed_errors_in_bounded_memory() {
    let clean = document().into_bytes();
    assert!(reads(&clean, "the clean document"));
    assert!(from_xml(std::str::from_utf8(&clean).unwrap()).is_ok());
    for len in 0..clean.len() {
        reads(&clean[..len], &format!("cut at {len}"));
    }
    for at in 0..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << bit;
            reads(&bytes, &format!("bit {bit} of byte {at} flipped"));
        }
    }
    let mut rng = Rng(0x5eed_0c0f_fee5);
    for case in 0..2_000 {
        let mut bytes = clean.clone();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        for _ in 0..rng.below(3) {
            let at = rng.below(bytes.len() + 1);
            bytes.insert(at, b"<>/=\"'&;a "[rng.below(10)]);
        }
        if rng.below(4) == 0 {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        reads(&bytes, &format!("random case {case}"));
    }
}
