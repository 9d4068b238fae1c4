//! LZSS compression — the "ez" format.
//!
//! A classic byte-oriented LZSS: a sliding window of 4 KiB, match lengths
//! 3..=18, greedy parsing with a hash-chain match finder. Output is framed
//! as flag bytes (1 bit per token: literal or match) followed by the token
//! bytes. The container adds a magic and the uncompressed length so the
//! decoder can pre-allocate and validate.
//!
//! Format layout:
//! ```text
//! "EZ01" | u64-le uncompressed_len | stream...
//! stream: [flags: u8] [8 tokens], flag bit i set => literal byte,
//!         clear => match: u16-le with 12-bit distance-1 and 4-bit len-3
//! ```

/// Magic prefix of the "ez" container.
pub const MAGIC: &[u8; 4] = b"EZ01";

const WINDOW: usize = 1 << 12; // 4096
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 15; // 4-bit length field

/// Error from [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzssError {
    /// Input does not start with the `EZ01` magic.
    BadMagic,
    /// Stream ended mid-token or header truncated.
    Truncated,
    /// A match referenced data before the start of the output.
    BadDistance,
    /// Decoded length does not equal the header's uncompressed length.
    LengthMismatch {
        /// Length promised by the header.
        expected: u64,
        /// Length actually decoded.
        actual: u64,
    },
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::BadMagic => write!(f, "not an ez stream (bad magic)"),
            LzssError::Truncated => write!(f, "truncated ez stream"),
            LzssError::BadDistance => write!(f, "ez match distance out of range"),
            LzssError::LengthMismatch { expected, actual } => {
                write!(f, "ez length mismatch: header {expected}, decoded {actual}")
            }
        }
    }
}

impl std::error::Error for LzssError {}

/// Compress `data` into a self-describing "ez" container.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());

    // Hash chains over 3-byte prefixes for match finding.
    const HASH_BITS: usize = 13;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let hash = |a: u8, b: u8, c: u8| -> usize {
        let h = (u32::from(a) << 16) | (u32::from(b) << 8) | u32::from(c);
        (h.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    };

    let mut i = 0usize;
    let mut flags_pos = 0usize;
    let mut flags = 0u8;
    let mut nbits = 0u8;

    while i < data.len() {
        if nbits == 0 {
            flags_pos = out.len();
            out.push(0);
        }
        // Find the longest match within the window via the hash chain.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(data[i], data[i + 1], data[i + 2]);
            let mut cand = head[h];
            let lo = i.saturating_sub(WINDOW);
            let mut steps = 0;
            while cand != usize::MAX && cand >= lo && steps < 64 {
                let max_here = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max_here && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand];
                steps += 1;
            }
        }

        if best_len >= MIN_MATCH {
            // Match token: 12-bit distance-1, 4-bit length-MIN_MATCH.
            let token = ((best_dist - 1) as u16) | (((best_len - MIN_MATCH) as u16) << 12);
            out.extend_from_slice(&token.to_le_bytes());
            // Insert all covered positions into the chains.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(data[i], data[i + 1], data[i + 2]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            flags |= 1 << nbits;
            out.push(data[i]);
            if i + MIN_MATCH <= data.len() {
                let h = hash(data[i], data[i + 1], data[i + 2]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        nbits += 1;
        if nbits == 8 {
            out[flags_pos] = flags;
            flags = 0;
            nbits = 0;
        }
    }
    if nbits > 0 {
        out[flags_pos] = flags;
    }
    out
}

/// Decompress an "ez" container produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, LzssError> {
    if input.len() < 12 {
        return Err(if input.starts_with(MAGIC) {
            LzssError::Truncated
        } else {
            LzssError::BadMagic
        });
    }
    if &input[..4] != MAGIC {
        return Err(LzssError::BadMagic);
    }
    let expected = u64::from_le_bytes(input[4..12].try_into().expect("12-byte header"));
    // The header's length is a claim: reserve no more than the stream
    // can decode to, a match of MAX_MATCH bytes per two token bytes.
    let most = (input.len() - 12) / 2 * MAX_MATCH;
    let reserve = usize::try_from(expected).map_or(most, |e| e.min(most));
    let mut out: Vec<u8> = Vec::with_capacity(reserve);
    let mut i = 12usize;
    'outer: while i < input.len() {
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if out.len() as u64 == expected {
                break 'outer;
            }
            if i >= input.len() {
                break 'outer;
            }
            if flags & (1 << bit) != 0 {
                out.push(input[i]);
                i += 1;
            } else {
                if i + 1 >= input.len() {
                    return Err(LzssError::Truncated);
                }
                let token = u16::from_le_bytes([input[i], input[i + 1]]);
                i += 2;
                let dist = (token & 0x0fff) as usize + 1;
                let len = (token >> 12) as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(LzssError::BadDistance);
                }
                let start = out.len() - dist;
                // Overlapping copies are the point of LZSS; copy bytewise.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() as u64 != expected {
        return Err(LzssError::LengthMismatch {
            expected,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "round trip of {} bytes", data.len());
    }

    #[test]
    fn empty() {
        round_trip(b"");
    }

    #[test]
    fn tiny() {
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".repeat(100);
        let c = compress(&data);
        assert!(c.len() < data.len() / 3, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_runs() {
        round_trip(&vec![0u8; 100_000]);
        round_trip(&b"x".repeat(4097));
    }

    #[test]
    fn overlapping_match() {
        // "aaaa..." forces dist=1 matches that overlap the output tail.
        round_trip(&vec![b'a'; 1000]);
    }

    #[test]
    fn window_boundary() {
        // Repetition at exactly the window size.
        let mut data = vec![0u8; WINDOW];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut doubled = data.clone();
        doubled.extend_from_slice(&data);
        round_trip(&doubled);
    }

    #[test]
    fn incompressible_data_round_trips() {
        // Pseudo-random bytes: mostly literals, slight expansion allowed.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 32);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn text_round_trip() {
        let text = include_str!("lzss.rs").as_bytes();
        let c = compress(text);
        assert!(c.len() < text.len());
        assert_eq!(decompress(&c).unwrap(), text);
    }

    #[test]
    fn bad_magic() {
        assert_eq!(
            decompress(b"NOPE00000000").unwrap_err(),
            LzssError::BadMagic
        );
        assert_eq!(decompress(b"").unwrap_err(), LzssError::BadMagic);
    }

    #[test]
    fn truncated_stream() {
        let c = compress(b"hello world hello world hello world");
        let cut = &c[..c.len() - 3];
        assert!(matches!(
            decompress(cut).unwrap_err(),
            LzssError::Truncated | LzssError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn a_declared_length_reserves_no_more_than_the_stream_holds() {
        // 13 bytes declaring 64 GiB: reserving the claim aborted the
        // process; the stream delivers nothing.
        let mut c = MAGIC.to_vec();
        c.extend_from_slice(&(1u64 << 36).to_le_bytes());
        c.push(0xff);
        assert_eq!(
            decompress(&c).unwrap_err(),
            LzssError::LengthMismatch {
                expected: 1 << 36,
                actual: 0
            }
        );
        let mut c = compress(b"abcabcabcabcabcabc");
        c[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decompress(&c).unwrap_err(),
            LzssError::LengthMismatch {
                expected: u64::MAX,
                actual: 18
            }
        );
    }

    #[test]
    fn corrupt_length_header() {
        let mut c = compress(b"abcdef");
        c[4] = 0xff; // inflate the declared length
        assert!(matches!(
            decompress(&c).unwrap_err(),
            LzssError::LengthMismatch { .. } | LzssError::Truncated
        ));
    }
}
