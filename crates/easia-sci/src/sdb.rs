//! The Scientific Data Browser stand-in.
//!
//! The paper demonstrates loose coupling by mounting NCSA's SDB — "a Web
//! based scientific data access service ... for post-processing HDF
//! datasets" — as a URL operation, integrated purely through XUIS markup.
//! This module is our equivalent service: given an EDF file it produces
//! a structural description (attributes, datasets, shapes, previews) as
//! either plain text or a small HTML page.

use crate::edf::{EdfError, EdfReader};

/// Output format for the browser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdbFormat {
    /// Plain text, one line per item.
    Text,
    /// Minimal HTML page.
    Html,
}

/// Describe the structure of an encoded EDF file.
pub fn describe(bytes: &[u8], format: SdbFormat) -> Result<String, EdfError> {
    let reader = EdfReader::open(bytes)?;
    let mut items: Vec<(String, String)> = Vec::new();
    for (k, v) in &reader.attrs {
        items.push((format!("attribute {k}"), v.clone()));
    }
    for meta in &reader.datasets {
        let dims: Vec<String> = meta.dims.iter().map(u64::to_string).collect();
        let preview = preview_values(bytes, &reader, &meta.name)?;
        items.push((
            format!("dataset {}", meta.name),
            format!(
                "shape {} ({} elements, {} bytes){preview}",
                dims.join("x"),
                meta.element_count()?,
                meta.byte_len()?
            ),
        ));
    }
    Ok(match format {
        SdbFormat::Text => {
            let mut out = String::from("EDF structure\n");
            for (k, v) in items {
                out.push_str(&format!("  {k}: {v}\n"));
            }
            out
        }
        SdbFormat::Html => {
            let mut out = String::from(
                "<html><head><title>Scientific Data Browser</title></head><body>\
                 <h1>EDF structure</h1><table border=\"1\">",
            );
            for (k, v) in items {
                out.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td></tr>",
                    html_escape(&k),
                    html_escape(&v)
                ));
            }
            out.push_str("</table></body></html>");
            out
        }
    })
}

fn preview_values(bytes: &[u8], reader: &EdfReader, name: &str) -> Result<String, EdfError> {
    let meta = reader.meta(name)?;
    let n = meta.element_count()?.min(3);
    if n == 0 {
        return Ok(String::new());
    }
    let rendered: Vec<String> = reader
        .values(bytes, name, 0, n)?
        .map(|v| format!("{v:.4}"))
        .collect();
    Ok(format!(", first values [{}...]", rendered.join(", ")))
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::EdfFile;

    fn sample() -> Vec<u8> {
        EdfFile::new()
            .with_attr("simulation", "S1")
            .with_dataset("u", &[2, 2, 2], vec![1.0; 8])
            .encode()
    }

    #[test]
    fn text_description() {
        let d = describe(&sample(), SdbFormat::Text).unwrap();
        assert!(d.contains("attribute simulation: S1"), "{d}");
        assert!(
            d.contains("dataset u: shape 2x2x2 (8 elements, 64 bytes)"),
            "{d}"
        );
        assert!(
            d.contains("first values [1.0000, 1.0000, 1.0000...]"),
            "{d}"
        );
    }

    #[test]
    fn html_description() {
        let d = describe(&sample(), SdbFormat::Html).unwrap();
        assert!(d.starts_with("<html>"));
        assert!(d.contains("<td>dataset u</td>"));
    }

    #[test]
    fn rejects_non_edf() {
        assert!(describe(b"not edf", SdbFormat::Text).is_err());
    }

    #[test]
    fn escaping() {
        assert_eq!(html_escape("a<b>&c"), "a&lt;b&gt;&amp;c");
    }
}
