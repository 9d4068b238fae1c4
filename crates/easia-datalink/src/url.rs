//! The DATALINK value grammar.
//!
//! Stored (linked) form:   `http://host/filesystem/directory/filename`
//! SELECT (token) form:    `http://host/filesystem/directory/token;filename`

use std::fmt;

/// A parsed DATALINK URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalinkUrl {
    /// URL scheme (the paper uses `http`; `file` also accepted).
    pub scheme: String,
    /// File server host (may include a port).
    pub host: String,
    /// Absolute path on that server, e.g. `/data/S1/t000.edf`.
    pub path: String,
}

/// Parse error with the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlError(pub String);

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed DATALINK URL: {}", self.0)
    }
}

impl std::error::Error for UrlError {}

impl DatalinkUrl {
    /// Parse a stored-form DATALINK URL.
    pub fn parse(url: &str) -> Result<DatalinkUrl, UrlError> {
        let (scheme, host, path) = DatalinkUrl::split(url)?;
        Ok(DatalinkUrl {
            scheme: scheme.to_string(),
            host: host.to_string(),
            path: path.to_string(),
        })
    }

    /// The scheme, host and path of a stored-form DATALINK URL, borrowed
    /// from it: [`DatalinkUrl::parse`] without a copy.
    pub fn split(url: &str) -> Result<(&str, &str, &str), UrlError> {
        let rest = url
            .split_once("://")
            .ok_or_else(|| UrlError(url.to_string()))?;
        let (scheme, tail) = rest;
        if scheme.is_empty()
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+')
        {
            return Err(UrlError(url.to_string()));
        }
        let (host, path) = match tail.find('/') {
            Some(i) => (&tail[..i], &tail[i..]),
            None => return Err(UrlError(url.to_string())),
        };
        if host.is_empty() || path.len() < 2 {
            return Err(UrlError(url.to_string()));
        }
        Ok((scheme, host, path))
    }

    /// The stored (linked) form.
    pub fn to_linked(&self) -> String {
        format!("{}://{}{}", self.scheme, self.host, self.path)
    }

    /// The SELECT form with an access token spliced before the filename:
    /// `http://host/dir/token;filename`.
    pub fn to_tokenized(&self, token: &str) -> String {
        let (dir, file) = self.split_path();
        format!("{}://{}{}{};{}", self.scheme, self.host, dir, token, file)
    }

    /// `(directory-with-trailing-slash, filename)`.
    pub fn split_path(&self) -> (&str, &str) {
        match self.path.rfind('/') {
            Some(i) => (&self.path[..i + 1], &self.path[i + 1..]),
            None => ("/", &self.path[..]),
        }
    }

    /// Filename component.
    pub fn filename(&self) -> &str {
        self.split_path().1
    }

    /// Parse a SELECT-form URL back into `(DatalinkUrl, Option<token>)`.
    pub fn parse_tokenized(url: &str) -> Result<(DatalinkUrl, Option<String>), UrlError> {
        let raw = DatalinkUrl::parse(url)?;
        let (dir, file) = raw.split_path();
        // In the token form the *last segment* is `token;filename`.
        match file.split_once(';') {
            Some((token, real_file)) => {
                let path = format!("{dir}{real_file}");
                Ok((
                    DatalinkUrl {
                        scheme: raw.scheme.clone(),
                        host: raw.host.clone(),
                        path,
                    },
                    Some(token.to_string()),
                ))
            }
            None => Ok((raw, None)),
        }
    }

    /// The file-server request string for the SELECT form:
    /// `/dir/token;filename`, or the bare path when no token is given.
    pub fn server_request(&self, token: Option<&str>) -> String {
        match token {
            Some(t) => {
                let (dir, file) = self.split_path();
                format!("{dir}{t};{file}")
            }
            None => self.path.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let u = DatalinkUrl::parse("http://fs1.soton.example/data/S1/t000.edf").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "fs1.soton.example");
        assert_eq!(u.path, "/data/S1/t000.edf");
        assert_eq!(u.filename(), "t000.edf");
        assert_eq!(u.to_linked(), "http://fs1.soton.example/data/S1/t000.edf");
    }

    #[test]
    fn parse_with_port() {
        let u =
            DatalinkUrl::parse("http://quagga.ecs.soton.ac.uk:8080/servlet/SDBservlet").unwrap();
        assert_eq!(u.host, "quagga.ecs.soton.ac.uk:8080");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "http://",
            "nohost",
            "http://host",
            "://host/p",
            "ht tp://h/p",
        ] {
            assert!(DatalinkUrl::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn tokenized_form() {
        let u = DatalinkUrl::parse("http://fs1/data/t0.edf").unwrap();
        let t = u.to_tokenized("TOK123");
        assert_eq!(t, "http://fs1/data/TOK123;t0.edf");
        let (back, tok) = DatalinkUrl::parse_tokenized(&t).unwrap();
        assert_eq!(back, u);
        assert_eq!(tok.as_deref(), Some("TOK123"));
    }

    #[test]
    fn parse_tokenized_without_token() {
        let (u, tok) = DatalinkUrl::parse_tokenized("http://fs1/data/t0.edf").unwrap();
        assert_eq!(u.path, "/data/t0.edf");
        assert_eq!(tok, None);
    }

    #[test]
    fn server_request_forms() {
        let u = DatalinkUrl::parse("http://fs1/data/S1/t0.edf").unwrap();
        assert_eq!(u.server_request(None), "/data/S1/t0.edf");
        assert_eq!(u.server_request(Some("T")), "/data/S1/T;t0.edf");
    }

    #[test]
    fn root_level_file() {
        let u = DatalinkUrl::parse("http://fs1/t0.edf").unwrap();
        let (dir, file) = u.split_path();
        assert_eq!(dir, "/");
        assert_eq!(file, "t0.edf");
        assert_eq!(u.to_tokenized("T"), "http://fs1/T;t0.edf");
    }
}
