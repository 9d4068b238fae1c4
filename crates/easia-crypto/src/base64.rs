//! URL-safe base64 (RFC 4648 section 5), without padding.
//!
//! Access tokens travel inside hyperlink URLs of the form
//! `http://host/filesystem/directory/access_token;filename`, so the
//! alphabet must be URL-safe and free of `=` padding.

#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable
    )
)]

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encode `data` as unpadded URL-safe base64.
pub fn encode_url(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    let (triples, rest) = data.as_chunks::<3>();
    for &[a, b, c] in triples {
        let n = (u32::from(a) << 16) | (u32::from(b) << 8) | u32::from(c);
        for shift in [18, 12, 6, 0] {
            out.push(symbol(n >> shift));
        }
    }
    match *rest {
        [a] => {
            let n = u32::from(a) << 16;
            out.push(symbol(n >> 18));
            out.push(symbol(n >> 12));
        }
        [a, b] => {
            let n = (u32::from(a) << 16) | (u32::from(b) << 8);
            out.push(symbol(n >> 18));
            out.push(symbol(n >> 12));
            out.push(symbol(n >> 6));
        }
        // `as_chunks` leaves at most two bytes.
        _ => {}
    }
    out
}

/// The symbol of the low six bits of `n`.
#[allow(
    clippy::indexing_slicing,
    reason = "six bits index the 64 symbols of `ALPHABET`"
)]
fn symbol(n: u32) -> char {
    char::from(ALPHABET[(n & 63) as usize])
}

fn decode_char(c: u8) -> Option<u8> {
    match c {
        b'A'..=b'Z' => Some(c - b'A'),
        b'a'..=b'z' => Some(c - b'a' + 26),
        b'0'..=b'9' => Some(c - b'0' + 52),
        b'-' => Some(62),
        b'_' => Some(63),
        _ => None,
    }
}

/// Decode unpadded URL-safe base64. Returns `None` on any invalid
/// character, stray `=`, or an impossible length (`len % 4 == 1`).
pub fn decode_url(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    if bytes.len() % 4 == 1 {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() * 3 / 4);
    for group in bytes.chunks(4) {
        // The group's six-bit values, high first, as 24 bits; its `n`
        // symbols (2 to 4: a length of 1 mod 4 was refused) carry `n - 1`
        // bytes.
        let mut n = 0u32;
        for (i, &c) in group.iter().enumerate() {
            n |= u32::from(decode_char(c)?) << (18 - 6 * i);
        }
        let carried = group.len() - 1;
        for shift in [16, 8, 0].into_iter().take(carried) {
            out.push((n >> shift) as u8);
        }
        // Reject non-canonical encodings with dangling bits set.
        if n & (0xFF_FFFF >> (8 * carried)) != 0 {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode_url(b""), "");
        assert_eq!(encode_url(b"f"), "Zg");
        assert_eq!(encode_url(b"fo"), "Zm8");
        assert_eq!(encode_url(b"foo"), "Zm9v");
        assert_eq!(encode_url(b"foob"), "Zm9vYg");
        assert_eq!(encode_url(b"fooba"), "Zm9vYmE");
        assert_eq!(encode_url(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn url_safe_alphabet() {
        // 0xfb 0xff 0xbf encodes to characters from the -_ range.
        let s = encode_url(&[0xfb, 0xff, 0xbf]);
        assert_eq!(s, "-_-_");
        assert_eq!(decode_url(&s).unwrap(), vec![0xfb, 0xff, 0xbf]);
    }

    #[test]
    fn round_trip_all_lengths() {
        for len in 0..70usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = encode_url(&data);
            assert!(enc.bytes().all(|c| decode_char(c).is_some()));
            assert_eq!(decode_url(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn rejects_invalid() {
        assert!(decode_url("a").is_none(), "length 1 mod 4");
        assert!(decode_url("ab=c").is_none(), "padding char");
        assert!(decode_url("a b").is_none(), "space");
        assert!(decode_url("Zh").is_none(), "non-canonical dangling bits");
    }
}
