//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! The durability layer checksums every WAL batch frame, every record
//! frame inside a batch, and each frame of the checkpoint file
//! (DESIGN.md §12).
//! The build environment is offline, so this is a small local
//! implementation — the standard table-driven slicing-by-16 variant,
//! sixteen bytes a step — rather than an external crate. It matches the
//! ubiquitous zlib/PNG CRC32, which makes the on-disk format checkable
//! with standard tools.

/// Bytes folded per step.
const STEP: usize = 16;

/// `TABLES[0]` is the classic 256-entry table of the reflected IEEE
/// polynomial; `TABLES[k][b]` is the checksum state after byte `b`
/// followed by `k` zero bytes, which lets one step fold sixteen input
/// bytes with sixteen independent lookups.
const fn build_tables() -> [[u32; 256]; STEP] {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; STEP] = build_tables();

/// CRC32 of `data` (initial value 0, i.e. the plain one-shot checksum).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continue a CRC32 over `data`, starting from a previous checksum
/// (`crc32_update(crc32(a), b) == crc32(a ++ b)`).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = crc ^ 0xFFFF_FFFF;
    let mut words = data.chunks_exact(STEP);
    for w in &mut words {
        // Byte `j` of the step is followed by `STEP - 1 - j` more; the
        // running state folds into the first four.
        let lo = (c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        let byte = |j: usize| if j < 4 { lo[j] } else { w[j] };
        c = (0..STEP).fold(0, |x, j| x ^ TABLES[STEP - 1 - j][usize::from(byte(j))]);
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC32, sharing nothing with the tables.
    fn reference(crc: u32, data: &[u8]) -> u32 {
        let mut c = crc ^ 0xFFFF_FFFF;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_matches_the_bytewise_reference_at_every_length_and_split() {
        // Not a multiple of anything: every alignment of the 16-byte step
        // against the head, the body and the tail is visited.
        let data: Vec<u8> = (0..70u32).map(|i| (i * 37 + 11) as u8 ^ 0xA5).collect();
        for len in 0..=data.len() {
            let d = &data[..len];
            let want = reference(0, d);
            assert_eq!(crc32(d), want, "len {len}");
            for split in 0..=len {
                let (a, b) = d.split_at(split);
                assert_eq!(crc32_update(crc32(a), b), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"easia durability frame";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(data));
        }
    }

    #[test]
    fn single_bit_flips_change_checksum() {
        let base = b"group commit batch payload".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
