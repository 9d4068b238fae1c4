//! Expiring, HMAC-authenticated file access tokens.
//!
//! The SQL/MED `READ PERMISSION DB` option means a DATALINKed file "can only
//! be accessed using an encrypted file access token, obtained from the
//! database by users with the correct database privileges". An SQL `SELECT`
//! retrieves `http://host/filesystem/directory/access_token;filename`, and
//! the file server honours `access_token;filename` only while the token is
//! valid: "the access tokens have a finite life determined by a database
//! configuration parameter".
//!
//! A token binds together:
//! * the *scope* (read or write — SQL/MED also defines `WRITE PERMISSION`),
//! * the *host* of the file server,
//! * the *path* of the file on that server,
//! * an *expiry instant* in seconds of archive time.
//!
//! The wire format is `base64url(payload || HMAC-SHA256(key, payload))`
//! with a 16-byte truncated MAC; everything is covered by the MAC, so a
//! token for one file cannot be replayed against another, and expiry cannot
//! be extended by the client.

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

use crate::base64::{decode_url, encode_url};
use crate::hmac::{ct_eq, hmac_sha256};

/// Length to which the HMAC is truncated in the wire format (128 bits).
const MAC_LEN: usize = 16;
/// Wire format version byte, bumped on incompatible layout changes.
const VERSION: u8 = 1;

/// What an access token authorises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenScope {
    /// Retrieve the file (READ PERMISSION DB).
    Read,
    /// Replace the file contents (WRITE PERMISSION ADMIN-style access).
    Write,
}

impl TokenScope {
    fn as_byte(self) -> u8 {
        match self {
            TokenScope::Read => b'R',
            TokenScope::Write => b'W',
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            b'R' => Some(TokenScope::Read),
            b'W' => Some(TokenScope::Write),
            _ => None,
        }
    }
}

/// A decoded (but not necessarily valid) access token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessToken {
    /// Scope of the grant.
    pub scope: TokenScope,
    /// File server host the grant applies to, e.g. `fs1.soton.example`.
    pub host: String,
    /// Path of the file on the file server, e.g. `/data/run42/t010.edf`.
    pub path: String,
    /// Archive time (seconds) after which the token is no longer honoured.
    pub expires_at: u64,
}

/// Why token verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// Not decodable base64 / truncated / bad version byte.
    Malformed,
    /// MAC mismatch: forged, or signed with a different key.
    BadSignature,
    /// Structurally valid but past its expiry instant.
    Expired {
        /// The expiry carried by the token.
        expires_at: u64,
        /// The verification-time clock value.
        now: u64,
    },
    /// Valid token, but presented for a different host/path/scope.
    ScopeMismatch,
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::Malformed => write!(f, "malformed access token"),
            TokenError::BadSignature => write!(f, "access token signature invalid"),
            TokenError::Expired { expires_at, now } => {
                write!(f, "access token expired at t={expires_at}s (now t={now}s)")
            }
            TokenError::ScopeMismatch => {
                write!(f, "access token does not cover the requested file or scope")
            }
        }
    }
}

impl std::error::Error for TokenError {}

/// Issues and verifies tokens with a shared secret key.
///
/// In the paper's deployment the database server issues tokens and each
/// file server verifies them; both sides are configured with the key when
/// the file server is registered with the archive.
#[derive(Clone)]
pub struct TokenIssuer {
    key: Vec<u8>,
    /// Token lifetime in seconds — the paper's "database configuration
    /// parameter" controlling token expiry.
    ttl_secs: u64,
}

impl TokenIssuer {
    /// Create an issuer with the given shared secret and token lifetime.
    pub fn new(key: &[u8], ttl_secs: u64) -> Self {
        TokenIssuer {
            key: key.to_vec(),
            ttl_secs,
        }
    }

    /// The configured token lifetime in seconds.
    pub fn ttl_secs(&self) -> u64 {
        self.ttl_secs
    }

    /// Issue a token for `path` on `host`, valid from `now` for the
    /// configured lifetime. Returns the URL-safe token string.
    pub fn issue(&self, scope: TokenScope, host: &str, path: &str, now: u64) -> String {
        let expires_at = now.saturating_add(self.ttl_secs);
        self.issue_until(scope, host, path, expires_at)
    }

    /// Issue a token with an explicit expiry instant.
    pub fn issue_until(
        &self,
        scope: TokenScope,
        host: &str,
        path: &str,
        expires_at: u64,
    ) -> String {
        let payload = encode_payload(scope, host, path, expires_at);
        let mac = hmac_sha256(&self.key, &payload);
        let mut wire = payload;
        wire.extend_from_slice(&mac[..MAC_LEN]);
        encode_url(&wire)
    }

    /// Decode and authenticate a token string, without checking expiry or
    /// binding. Most callers want [`TokenIssuer::verify`].
    pub fn decode(&self, token: &str) -> Result<AccessToken, TokenError> {
        let wire = decode_url(token).ok_or(TokenError::Malformed)?;
        if wire.len() < MAC_LEN + 1 {
            return Err(TokenError::Malformed);
        }
        let (payload, mac) = wire.split_at(wire.len() - MAC_LEN);
        let expect = hmac_sha256(&self.key, payload);
        if !ct_eq(mac, &expect[..MAC_LEN]) {
            return Err(TokenError::BadSignature);
        }
        decode_payload(payload).ok_or(TokenError::Malformed)
    }

    /// Full verification: authenticate, check the token covers
    /// `(scope, host, path)`, and check it has not expired at `now`.
    pub fn verify(
        &self,
        token: &str,
        scope: TokenScope,
        host: &str,
        path: &str,
        now: u64,
    ) -> Result<AccessToken, TokenError> {
        let t = self.decode(token)?;
        if t.scope != scope || t.host != host || t.path != path {
            return Err(TokenError::ScopeMismatch);
        }
        if now > t.expires_at {
            return Err(TokenError::Expired {
                expires_at: t.expires_at,
                now,
            });
        }
        Ok(t)
    }
}

fn encode_payload(scope: TokenScope, host: &str, path: &str, expires_at: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + host.len() + path.len());
    p.push(VERSION);
    p.push(scope.as_byte());
    p.extend_from_slice(&expires_at.to_be_bytes());
    p.extend_from_slice(&(host.len() as u16).to_be_bytes());
    p.extend_from_slice(host.as_bytes());
    p.extend_from_slice(path.as_bytes());
    p
}

fn decode_payload(p: &[u8]) -> Option<AccessToken> {
    let (&version, rest) = p.split_first()?;
    let (&scope, rest) = rest.split_first()?;
    let (expires_at, rest) = rest.split_first_chunk::<8>()?;
    let (host_len, rest) = rest.split_first_chunk::<2>()?;
    if version != VERSION {
        return None;
    }
    let (host, path) = rest.split_at_checked(usize::from(u16::from_be_bytes(*host_len)))?;
    Some(AccessToken {
        scope: TokenScope::from_byte(scope)?,
        host: std::str::from_utf8(host).ok()?.to_string(),
        path: std::str::from_utf8(path).ok()?.to_string(),
        expires_at: u64::from_be_bytes(*expires_at),
    })
}

/// Split the paper's `access_token;filename` form into its two halves.
///
/// Returns `None` when no `;` separator is present (i.e. the request names
/// a bare file, which `READ PERMISSION DB` servers must refuse).
pub fn split_token_filename(s: &str) -> Option<(&str, &str)> {
    s.split_once(';')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issuer() -> TokenIssuer {
        TokenIssuer::new(b"archive-shared-secret", 3600)
    }

    #[test]
    fn round_trip() {
        let iss = issuer();
        let tok = iss.issue(TokenScope::Read, "fs1", "/data/t010.edf", 1000);
        let t = iss
            .verify(&tok, TokenScope::Read, "fs1", "/data/t010.edf", 2000)
            .unwrap();
        assert_eq!(t.expires_at, 4600);
        assert_eq!(t.host, "fs1");
        assert_eq!(t.path, "/data/t010.edf");
    }

    #[test]
    fn expires_after_ttl() {
        let iss = issuer();
        let tok = iss.issue(TokenScope::Read, "fs1", "/f", 1000);
        // Valid exactly at the expiry instant, invalid one second later.
        assert!(iss
            .verify(&tok, TokenScope::Read, "fs1", "/f", 4600)
            .is_ok());
        let err = iss
            .verify(&tok, TokenScope::Read, "fs1", "/f", 4601)
            .unwrap_err();
        assert_eq!(
            err,
            TokenError::Expired {
                expires_at: 4600,
                now: 4601
            }
        );
    }

    #[test]
    fn rejects_wrong_file() {
        let iss = issuer();
        let tok = iss.issue(TokenScope::Read, "fs1", "/data/a.edf", 0);
        let err = iss
            .verify(&tok, TokenScope::Read, "fs1", "/data/b.edf", 1)
            .unwrap_err();
        assert_eq!(err, TokenError::ScopeMismatch);
    }

    #[test]
    fn rejects_wrong_host() {
        let iss = issuer();
        let tok = iss.issue(TokenScope::Read, "fs1", "/f", 0);
        assert_eq!(
            iss.verify(&tok, TokenScope::Read, "fs2", "/f", 1)
                .unwrap_err(),
            TokenError::ScopeMismatch
        );
    }

    #[test]
    fn read_token_does_not_grant_write() {
        let iss = issuer();
        let tok = iss.issue(TokenScope::Read, "fs1", "/f", 0);
        assert_eq!(
            iss.verify(&tok, TokenScope::Write, "fs1", "/f", 1)
                .unwrap_err(),
            TokenError::ScopeMismatch
        );
    }

    #[test]
    fn rejects_other_key() {
        let iss = issuer();
        let other = TokenIssuer::new(b"different-secret", 3600);
        let tok = iss.issue(TokenScope::Read, "fs1", "/f", 0);
        assert_eq!(
            other
                .verify(&tok, TokenScope::Read, "fs1", "/f", 1)
                .unwrap_err(),
            TokenError::BadSignature
        );
    }

    #[test]
    fn rejects_tampered_expiry() {
        let iss = issuer();
        let tok = iss.issue(TokenScope::Read, "fs1", "/f", 0);
        let mut wire = crate::base64::decode_url(&tok).unwrap();
        // Flip a bit in the expiry field; the MAC must catch it.
        wire[5] ^= 0x40;
        let forged = crate::base64::encode_url(&wire);
        assert_eq!(
            iss.verify(&forged, TokenScope::Read, "fs1", "/f", 1)
                .unwrap_err(),
            TokenError::BadSignature
        );
    }

    #[test]
    fn rejects_garbage() {
        let iss = issuer();
        assert_eq!(
            iss.verify("not-base64!!", TokenScope::Read, "h", "/f", 0)
                .unwrap_err(),
            TokenError::Malformed
        );
        assert_eq!(
            iss.verify("Zm9v", TokenScope::Read, "h", "/f", 0)
                .unwrap_err(),
            TokenError::Malformed
        );
    }

    #[test]
    fn token_filename_split() {
        assert_eq!(
            split_token_filename("TOK123;t010.edf"),
            Some(("TOK123", "t010.edf"))
        );
        assert_eq!(split_token_filename("plain.edf"), None);
    }

    #[test]
    fn tokens_are_url_safe() {
        let iss = issuer();
        for i in 0..50 {
            let tok = iss.issue(TokenScope::Read, "host", &format!("/file-{i}"), i);
            assert!(tok
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        }
    }
}
