//! Mutation property of `unpack`: a damaged `.tar.ez` bundle gives a
//! typed error or files, never a panic, and `unpack` allocates in
//! proportion to the bytes it was given.
//!
//! Uploaded code reaches `unpack` straight from a form field, so every
//! byte of a bundle is hostile: the LZSS header's declared length, the
//! token stream, and the TAR headers and bodies inside it. The bundle
//! is cut at every length, has every bit flipped on its own, and takes
//! random mixes of flips, inserted bytes and a cut. Before the decoder
//! capped its reservation at what the stream can decode to, one flip
//! in the declared length asked for terabytes (an abort, or a
//! "capacity overflow" panic).
//!
//! One test only: the allocation counter is process-wide.

use easia_pack::format::pack_tar_ez;
use easia_pack::unpack;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `unpack` may allocate per input byte, plus a constant. LZSS
/// decodes at most nine bytes per stream byte, the TAR reader copies
/// each body and name once, and an error formats its text.
const PER_BYTE: u64 = 64;
const CONSTANT: u64 = 16 * 1024;

fn bundle() -> Vec<u8> {
    let code = "loop:\n    PUSH 0\n    LOAD64\n    INPUTSIZE\n    LT\n    JZ done\n".repeat(8);
    let data: Vec<u8> = (0..700u32).map(|i| (i * 31 % 251) as u8).collect();
    pack_tar_ez(&[
        ("main.epc".to_string(), code.into_bytes()),
        ("lib/data.bin".to_string(), data),
        ("README".to_string(), b"run main.epc".to_vec()),
    ])
    .unwrap()
}

/// Unpack `bytes`, failing when it allocates more than in proportion
/// to their length; whether it succeeded.
fn unpacks(bytes: &[u8], case: &str) -> bool {
    let (result, counts) = counted(|| unpack(bytes, "main.epc"));
    let cap = PER_BYTE * bytes.len() as u64 + CONSTANT;
    assert!(
        counts.bytes <= cap,
        "{case}: {} bytes allocated for {} input bytes",
        counts.bytes,
        bytes.len()
    );
    result.is_ok()
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
fn damaged_bundles_unpack_to_typed_errors_in_bounded_memory() {
    let clean = bundle();
    assert!(unpacks(&clean, "the clean bundle"));
    // Shorter than the magic, a cut bundle is a raw file; past it, the
    // stream never delivers the declared length.
    for len in 0..clean.len() {
        let case = format!("cut at {len}");
        let raw = len < easia_pack::lzss::MAGIC.len();
        assert_eq!(unpacks(&clean[..len], &case), raw, "{case}");
    }
    for at in 0..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << bit;
            unpacks(&bytes, &format!("bit {bit} of byte {at} flipped"));
        }
    }
    let mut rng = Rng(0x5eed_0fb0_bd1e);
    for case in 0..4_000 {
        let mut bytes = clean.clone();
        for _ in 0..1 + rng.below(4) {
            // One flip in three lands in the 12-byte LZSS header.
            let at = if rng.below(3) == 0 {
                rng.below(12)
            } else {
                rng.below(bytes.len())
            };
            bytes[at] ^= 1 << rng.below(8);
        }
        for _ in 0..rng.below(3) {
            let at = rng.below(bytes.len() + 1);
            bytes.insert(at, rng.below(256) as u8);
        }
        if rng.below(4) == 0 {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        unpacks(&bytes, &format!("random case {case}"));
    }
}
