//! Request/response model with URL and form decoding.

use std::collections::BTreeMap;

/// HTTP methods the interface uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
}

impl Method {
    /// Parse a method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s.to_ascii_uppercase().as_str() {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

/// An incoming request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path without the query string, e.g. `/query/SIMULATION`.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Decoded form body (`application/x-www-form-urlencoded`).
    pub form: BTreeMap<String, String>,
    /// Session cookie value, if presented.
    pub session: Option<String>,
}

impl Request {
    /// Build a GET request from a URL path (with optional `?query`).
    pub fn get(url: &str) -> Request {
        let (path, query) = split_url(url);
        Request {
            method: Method::Get,
            path,
            query,
            form: BTreeMap::new(),
            session: None,
        }
    }

    /// Build a POST request with form fields.
    pub fn post(url: &str, form: &[(&str, &str)]) -> Request {
        let (path, query) = split_url(url);
        Request {
            method: Method::Post,
            path,
            query,
            form: form
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            session: None,
        }
    }

    /// Attach a session token (builder style).
    pub fn with_session(mut self, session: &str) -> Request {
        self.session = Some(session.to_string());
        self
    }

    /// A query-or-form parameter (form wins on conflict, as with
    /// servlet `getParameter`).
    pub fn param(&self, name: &str) -> Option<&str> {
        self.form
            .get(name)
            .or_else(|| self.query.get(name))
            .map(String::as_str)
    }

    /// Path segments, e.g. `/query/SIMULATION` → `["query", "SIMULATION"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

fn split_url(url: &str) -> (String, BTreeMap<String, String>) {
    match url.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_urlencoded(q)),
        None => (url.to_string(), BTreeMap::new()),
    }
}

/// Decode `application/x-www-form-urlencoded` text.
pub fn parse_urlencoded(s: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for pair in s.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.insert(url_decode(k), url_decode(v));
    }
    out
}

/// Percent-decode (plus `+` as space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode for URLs (conservative set).
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    url_encode_into(&mut out, s);
    out
}

/// Append `s` to `out`, percent-encoded as [`url_encode`] does. The
/// output needs no HTML escaping.
pub fn url_encode_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => {
                out.push('%');
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 15)] as char);
            }
        }
    }
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Session cookie to set, if any.
    pub set_session: Option<String>,
    /// Location header for redirects.
    pub location: Option<String>,
    /// Retry-After header in seconds (503 responses).
    pub retry_after: Option<u64>,
}

impl Response {
    /// 200 HTML response.
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into().into_bytes(),
            set_session: None,
            location: None,
            retry_after: None,
        }
    }

    /// 200 plain-text response.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
            set_session: None,
            location: None,
            retry_after: None,
        }
    }

    /// 200 binary response with explicit MIME type — "rematerialise the
    /// underlying objects and return them to the user's browser with the
    /// appropriate MIME type set".
    pub fn bytes(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            content_type: content_type.into(),
            body,
            set_session: None,
            location: None,
            retry_after: None,
        }
    }

    /// 302 redirect.
    pub fn redirect(location: &str) -> Response {
        Response {
            status: 302,
            content_type: "text/html".into(),
            body: Vec::new(),
            set_session: None,
            location: Some(location.to_string()),
            retry_after: None,
        }
    }

    /// Error response with status.
    pub fn error(status: u16, msg: &str) -> Response {
        Response {
            status,
            content_type: "text/html; charset=utf-8".into(),
            body: format!(
                "<html><body><h1>Error {status}</h1><p>{}</p></body></html>",
                crate::html::escape(msg)
            )
            .into_bytes(),
            set_session: None,
            location: None,
            retry_after: None,
        }
    }

    /// 503 Service Unavailable with a Retry-After hint — the graceful
    /// degradation path when a file server is down.
    pub fn unavailable(msg: &str, retry_after_secs: u64) -> Response {
        let mut r = Response::error(503, msg);
        r.retry_after = Some(retry_after_secs);
        r
    }

    /// Attach a session cookie (builder style).
    pub fn with_session(mut self, session: &str) -> Response {
        self.set_session = Some(session.to_string());
        self
    }

    /// Body as UTF-8 (tests).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a+b%20c%2Fd"), "a b c/d");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%zz"), "bad%zz");
        assert_eq!(url_decode("%41"), "A");
    }

    #[test]
    fn url_encoding_round_trip() {
        for s in ["hello world", "a/b?c=d&e", "t000.edf;TOK", "ümlaut"] {
            assert_eq!(url_decode(&url_encode(s)), s);
        }
    }

    #[test]
    fn request_parsing() {
        let r = Request::get("/query/SIMULATION?TITLE_op=LIKE&TITLE_val=%25flow%25");
        assert_eq!(r.path, "/query/SIMULATION");
        assert_eq!(r.segments(), vec!["query", "SIMULATION"]);
        assert_eq!(r.param("TITLE_op"), Some("LIKE"));
        assert_eq!(r.param("TITLE_val"), Some("%flow%"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn form_overrides_query() {
        let mut r = Request::post("/x?k=fromquery", &[("k", "fromform")]);
        assert_eq!(r.param("k"), Some("fromform"));
        r.form.clear();
        assert_eq!(r.param("k"), Some("fromquery"));
    }

    #[test]
    fn responses() {
        let r = Response::html("<p>hi</p>");
        assert_eq!(r.status, 200);
        let r = Response::redirect("/login");
        assert_eq!(r.status, 302);
        assert_eq!(r.location.as_deref(), Some("/login"));
        let r = Response::error(403, "no <script>");
        assert!(r.body_text().contains("&lt;script&gt;"));
        let r = Response::bytes("image/x-portable-pixmap", vec![1, 2]);
        assert_eq!(r.content_type, "image/x-portable-pixmap");
        let r = Response::unavailable("fs1 is down", 42);
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(42));
        assert!(r.body_text().contains("fs1 is down"));
    }
}
