//! Minimal HTML generation with correct escaping.

/// Escape text for element content or a quoted attribute.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped as [`escape`] does.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Human-readable size, as the interface shows for BLOB/CLOB/DATALINK
/// links ("hypertext link displays size of object").
pub fn format_size(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
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

    #[test]
    fn sizes() {
        assert_eq!(format_size(512), "512 B");
        assert_eq!(format_size(85_000_000), "85.0 MB");
        assert_eq!(format_size(544_000_000), "544.0 MB");
        assert_eq!(format_size(1_500_000_000), "1.5 GB");
    }
}
