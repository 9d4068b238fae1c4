//! Mutation property of the portal's URL and form decoding: any text
//! through `url_decode`, `parse_urlencoded` and `Request::get` decodes
//! without a panic, never into more bytes than it was decoded from, and
//! `url_decode(url_encode(s)) == s`.
//!
//! The text is drawn twice over: from a class biased toward what the
//! decoders read — `%` before two hex digits, one, a sign or nothing,
//! `+`, the separators `&`, `=` and `?`, multi-byte characters — and as
//! arbitrary Unicode scalar values.

use easia_web::http::{parse_urlencoded, url_decode, url_encode};
use easia_web::Request;
use proptest::prelude::*;

/// The bytes of a decoded query or form: every key and value.
fn decoded_len<'a>(pairs: impl IntoIterator<Item = (&'a String, &'a String)>) -> usize {
    pairs.into_iter().map(|(k, v)| k.len() + v.len()).sum()
}

/// Each property of the module doc, of one text.
fn check(s: &str) -> Result<(), TestCaseError> {
    prop_assert!(url_decode(s).len() <= s.len(), "url_decode grew {s:?}");
    prop_assert!(url_decode(&url_encode(s)) == s, "round trip of {s:?}");
    let form = parse_urlencoded(s);
    prop_assert!(decoded_len(&form) <= s.len(), "form grew {s:?}");
    let request = Request::get(s);
    let decoded = request.path.len() + decoded_len(&request.query);
    prop_assert!(decoded <= s.len(), "request grew {s:?}");
    Ok(())
}

proptest! {
    #[test]
    fn decoding_never_panics_nor_grows_and_inverts_encoding(
        text in "[%+&=?/a-fA-F0-9xz é€\u{10FFFF}-]{0,40}",
        raw in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        check(&text)?;
        let raw: String = raw
            .iter()
            .map(|&u| char::from_u32(u % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect();
        check(&raw)?;
        check(&format!("{text}{raw}"))?;
    }
}
