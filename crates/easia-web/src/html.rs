//! Minimal HTML generation with correct escaping.

use std::fmt::Write as _;

/// Escape text for element content or a quoted attribute.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped as [`escape`] does.
#[inline]
pub fn escape_into(out: &mut String, s: &str) {
    if !needs_escape(s.as_bytes()) {
        out.push_str(s);
        return;
    }
    // Every escaped character is one ASCII byte, so the runs between
    // them are copied whole.
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&#39;",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Does `text` hold a byte [`escape`] replaces? Eight bytes at a time:
/// a byte of a word equal to `b` is a zero byte of the word XOR `b`
/// repeated, which the borrow of subtracting one from each byte finds.
#[inline]
fn needs_escape(text: &[u8]) -> bool {
    const ONES: u64 = u64::MAX / 255;
    let has = |word: u64, b: u8| {
        let v = word ^ (ONES * u64::from(b));
        v.wrapping_sub(ONES) & !v & (ONES << 7)
    };
    let (words, rest) = text.as_chunks::<8>();
    let special = |b: &u8| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'');
    words.iter().any(|w| {
        let w = u64::from_le_bytes(*w);
        has(w, b'&') | has(w, b'<') | has(w, b'>') | has(w, b'"') | has(w, b'\'') != 0
    }) || rest.iter().any(special)
}

const PAGE_END: &str = "<hr><p><a href=\"/tables\">Archive tables</a> | \
                        <a href=\"/logout\">Log out</a></p></body></html>";

/// A standard page shell in the spirit of the paper's screenshots.
pub fn page(title: &str, body: &str) -> String {
    let mut out = page_begin(title);
    out.reserve(body.len() + PAGE_END.len());
    out.push_str(body);
    page_end(&mut out);
    out
}

/// The page shell down to where the body starts: the caller appends the
/// body and closes with [`page_end`], so a large body is written once,
/// in place.
pub fn page_begin(title: &str) -> String {
    let mut out = String::from("<!DOCTYPE html><html><head><title>");
    escape_into(&mut out, title);
    out.push_str(
        " - EASIA</title>\
         <style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}\
         td,th{border:1px solid #999;padding:4px 8px}th{background:#dde}</style>\
         </head><body><h1>",
    );
    escape_into(&mut out, title);
    out.push_str("</h1>");
    out
}

/// Close a page opened with [`page_begin`].
pub fn page_end(out: &mut String) {
    out.push_str(PAGE_END);
}

/// `<a href=..>label</a>` with both parts escaped.
pub fn link(href: &str, label: &str) -> String {
    format!("<a href=\"{}\">{}</a>", escape(href), escape(label))
}

/// Append a human-readable size to `out`, as the interface shows for
/// BLOB/CLOB/DATALINK links ("hypertext link displays size of object"):
/// whole bytes under 1000, else one decimal of the largest unit up to GB
/// that keeps the rounded value under 1000 — 999,950 B is "1.0 MB", not
/// "1000.0 KB".
pub fn format_size_into(out: &mut String, bytes: u64) {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let (mut v, mut unit) = (bytes as f64, 0);
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        // Below 1000: three digits at most, written as they are.
        let digits = [bytes / 100, bytes / 10 % 10, bytes % 10];
        let lead = digits.iter().position(|&d| d != 0).unwrap_or(2);
        out.extend(digits[lead..].iter().map(|&d| char::from(b'0' + d as u8)));
        out.push_str(" B");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v:.1}");
    // 999.95 and up rounds to 1000.0, which is the next unit's 1.0.
    if &out[start..] == "1000.0" && unit < UNITS.len() - 1 {
        out.truncate(start);
        let _ = write!(out, "{:.1}", v / 1000.0);
        unit += 1;
    }
    out.push(' ');
    out.push_str(UNITS[unit]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(
            escape("<a b=\"c\">&'"),
            "&lt;a b=&quot;c&quot;&gt;&amp;&#39;"
        );
    }

    /// Each special byte is found at every place in and past the first
    /// word, beside bytes one above and below it; text without one is
    /// left as it is.
    #[test]
    fn every_special_byte_is_found_wherever_it_sits() {
        for special in ['&', '<', '>', '"', '\''] {
            for len in 1..20 {
                for at in 0..len {
                    let mut text: Vec<char> = "abcdefghijklmnopqrst".chars().take(len).collect();
                    text[at] = special;
                    let text: String = text.into_iter().collect();
                    let slow = text.replace('&', "&amp;").replace('<', "&lt;");
                    let slow = slow.replace('>', "&gt;").replace('"', "&quot;");
                    assert_eq!(escape(&text), slow.replace('\'', "&#39;"), "{text}");
                }
            }
            let near = [special as u8 - 1, special as u8 + 1].map(char::from);
            let plain = near.iter().filter(|c| escape(&c.to_string()).len() == 1);
            let text: String = plain.cycle().take(19).collect();
            assert!(!needs_escape(text.as_bytes()), "{text}");
        }
        assert_eq!(
            escape("Forced turbulence run 12 – é"),
            "Forced turbulence run 12 – é"
        );
    }

    #[test]
    fn page_contains_title_and_body() {
        let p = page("Search & browse", "<p>x</p>");
        assert!(p.contains("<h1>Search &amp; browse</h1>"));
        assert!(p.contains("<p>x</p>"));
    }

    #[test]
    fn links_escape() {
        assert_eq!(
            link("/q?a=1&b=2", "<next>"),
            "<a href=\"/q?a=1&amp;b=2\">&lt;next&gt;</a>"
        );
    }

    fn size(bytes: u64) -> String {
        let mut out = String::from("<td>");
        format_size_into(&mut out, bytes);
        out.split_off(4)
    }

    #[test]
    fn sizes() {
        for (bytes, shown) in [
            (0, "0 B"),
            (7, "7 B"),
            (31, "31 B"),
            (100, "100 B"),
            (105, "105 B"),
        ] {
            assert_eq!(size(bytes), shown);
        }
        assert_eq!(size(512), "512 B");
        assert_eq!(size(85_000_000), "85.0 MB");
        assert_eq!(size(544_000_000), "544.0 MB");
        assert_eq!(size(1_500_000_000), "1.5 GB");
    }

    #[test]
    fn a_size_that_rounds_to_1000_takes_the_next_unit() {
        assert_eq!(size(999), "999 B");
        assert_eq!(size(1_000), "1.0 KB");
        assert_eq!(size(999_949), "999.9 KB");
        assert_eq!(size(999_950), "1.0 MB");
        assert_eq!(size(999_999), "1.0 MB");
        assert_eq!(size(999_950_000), "1.0 GB");
        // GB is the largest unit: it goes on past 1000.
        assert_eq!(size(999_950_000_000), "1000.0 GB");
        assert_eq!(size(2_500_000_000_000), "2500.0 GB");
    }
}
