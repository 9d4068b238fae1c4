//! Archive packaging for EASIA operations.
//!
//! The paper: post-processing applications "can be packaged in a number of
//! different formats including various compressed archive formats (such as
//! tar.Z, gz, zip, tar etc.)", and the operation start-up mechanism unpacks
//! the archive into the session's temporary directory before invoking the
//! entry point.
//!
//! This crate provides the two container layers used throughout the
//! reproduction, both implemented from scratch:
//!
//! * [`tar`] — a POSIX ustar subset: regular files and directories, octal
//!   header fields, checksums, 512-byte block framing,
//! * [`lzss`] — a byte-oriented LZSS compressor/decompressor ("ez" format)
//!   playing the role of `.Z`/`.gz`,
//! * [`format`](mod@format) — container sniffing (`detect`) and one-call
//!   [`format::unpack`] that peels compression and archive layers exactly
//!   like the paper's dynamically generated batch file does.

pub mod format;
pub mod lzss;
pub mod tar;

pub use format::{detect, unpack, ContainerFormat, PackError};
pub use tar::{TarEntry, TarEntryKind};
