//! Cryptographic primitives for the EASIA reproduction.
//!
//! The paper's SQL/MED `READ PERMISSION DB` DATALINK option requires that
//! files on remote file servers "can only be accessed using an encrypted
//! file access token, obtained from the database by users with the correct
//! database privileges", and that "access tokens have a finite life
//! determined by a database configuration parameter".
//!
//! This crate provides everything that token scheme needs, implemented from
//! scratch so the workspace has no external crypto dependency:
//!
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 (validated against the standard test
//!   vectors),
//! * [`hmac`] — RFC 2104 HMAC-SHA-256 (validated against RFC 4231 vectors),
//! * [`base64`] — URL-safe base64 without padding, used to embed tokens in
//!   hyperlinks,
//! * [`token`] — the expiring, HMAC-authenticated file access token issued
//!   by the database on `SELECT` of a DATALINK value and verified by the
//!   file server before releasing the file.
//!
//! These implementations are for reproducing the paper's observable
//! behaviour. They follow the standards and pass the published vectors, but
//! no side-channel hardening has been attempted; do not reuse them as a
//! general-purpose security library.

pub mod base64;
pub mod hmac;
pub mod sha256;
pub mod token;

pub use base64::{decode_url as base64_decode, encode_url as base64_encode};
pub use hmac::hmac_sha256;
pub use sha256::{sha256, Sha256};
pub use token::{AccessToken, TokenError, TokenIssuer, TokenScope};
