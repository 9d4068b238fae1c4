//! Scientific-data substrate for the EASIA reproduction.
//!
//! The paper's motivating datasets are outputs of UK Turbulence
//! Consortium direct numerical simulations: per-timestep 3-D grids of
//! velocity components and pressure (`u,v,w,p`), tens to hundreds of
//! megabytes per timestep. We cannot use the consortium's data, so this
//! crate synthesises statistically plausible stand-ins and provides the
//! container format and post-processing kernels the operations framework
//! runs against:
//!
//! * [`field`] — deterministic synthetic turbulence: a sum of random
//!   Fourier modes with a prescribed energy spectrum over a 3-D grid,
//! * [`edf`] — the EASIA Data Format, a simple self-describing
//!   scientific container (named datasets, shapes, doubles) standing in
//!   for the HDF files the paper mentions,
//! * [`slice`](mod@slice) — plane extraction (the paper's "array slicing" data
//!   reduction: "select the slice you wish to visualise"),
//! * [`render`] — colormapped PPM rendering of 2-D slices (the GetImage
//!   operation's output),
//! * [`stats`] — field statistics (means, RMS, energy) used by the
//!   statistics operation,
//! * [`sdb`] — a structure-describing browser over EDF files, the
//!   stand-in for NCSA's Scientific Data Browser URL operation.

pub mod edf;
pub mod field;
pub mod render;
pub mod sdb;
pub mod slice;
pub mod stats;

pub use edf::{EdfError, EdfFile, EdfReader};
pub use field::{FieldSpec, TurbulenceField};
pub use render::{render_ppm, Colormap};
pub use slice::{extract_plane, Axis};
