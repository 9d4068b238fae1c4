//! Server-side post-processing operations.
//!
//! EASIA's defining feature is the *active* archive: "post-processing
//! applications that have been archived using DATALINK values \[can\] be
//! dynamically executed server-side to reduce the data volume returned
//! to the user". Applications are loosely coupled to datasets through
//! XUIS `<operation>` markup; the only contract is that "the initial
//! executable file accepts a filename as a command line parameter" and
//! writes output to relative filenames.
//!
//! * [`vm`] — the EPC (EASIA Portable Code) sandbox: a stack-based
//!   bytecode interpreter with an instruction budget, a memory cap, and
//!   a filesystem confined to the job's temporary workspace. This is the
//!   reproduction of the paper's uploaded-Java-code sandbox (security
//!   manager + reflection + batch file),
//! * [`asm`] — a small assembler so uploaded code travels as text,
//! * [`workspace`] — per-session temporary directories ("a unique name
//!   based on the user's servlet session identifier"),
//! * [`job`] — the job runner reproducing the batch-file mechanism:
//!   make temp dir → unpack archive → invoke interpreter/native code →
//!   collect outputs,
//! * [`catalog`] — operations resolved from XUIS markup, with `<if>`
//!   condition filtering and guest-access policy,
//! * extensions from the paper's "Future" slide: [`statistics`] (stored
//!   execution statistics), [`monitor`] (runtime progress), [`chain`]
//!   (operation chaining and multi-dataset operations). Operation
//!   results are cached by the archive (`easia-core`) in the one
//!   versioned store every cache uses (`easia_med::cache`).

pub mod asm;
pub mod catalog;
pub mod chain;
pub mod job;
pub mod monitor;
pub mod statistics;
pub mod vm;
pub mod workspace;

pub use asm::assemble;
pub use catalog::OperationCatalog;
pub use job::{JobError, JobResult, JobRunner, JobSpec, NativeOp};
pub use vm::{Limits, Program, Vm, VmError};
pub use workspace::Workspace;
