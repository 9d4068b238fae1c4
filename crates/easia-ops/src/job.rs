//! The job runner — the reproduction of the paper's batch-file
//! mechanism.
//!
//! "The batch file is dynamically created by the startup servlet and
//! contains commands to unpack \[the\] operation into \[a\] temporary
//! directory and appropriate commands to invoke \[a\] second Java
//! interpreter or non-Java post-processing code."
//!
//! Here the "batch script" is an explicit list of [`BatchStep`]s the
//! runner executes: create workspace → unpack package → stage the
//! dataset → invoke the entry point (EPC in the sandbox VM, or a
//! registered native operation) → harvest outputs. The recorded script
//! is part of the [`JobResult`], so tests and admin tooling can assert
//! on exactly what the runner did — the analog of reading the generated
//! batch file.

use crate::asm::assemble;
use crate::vm::{Limits, Vm, VmError};
use crate::workspace::Workspace;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A native (built-in) operation: gets the dataset bytes and parameters,
/// writes outputs into the workspace, returns printable stdout.
pub type NativeOp =
    Rc<dyn Fn(&[u8], &BTreeMap<String, String>, &mut Workspace) -> Result<String, String>>;

/// Specification of one job. The dataset is whatever holds its bytes:
/// an owned `Vec<u8>` by default, or the file server's stored bytes
/// lent to the job, so that a job reads the dataset where it lies.
#[derive(Clone)]
pub struct JobSpec<D = Vec<u8>> {
    /// Session identifier (names the workspace).
    pub session_id: String,
    /// Operation name (for statistics and caching).
    pub operation: String,
    /// Executable kind: `"EPC"` or `"NATIVE"`.
    pub op_type: String,
    /// The operation package (any `easia-pack` container or raw bytes).
    /// Unused for native operations.
    pub package: Vec<u8>,
    /// Entry file inside the package ("the initial executable file").
    pub entry: String,
    /// Dataset file name (passed to the code as its first parameter —
    /// "accepts a filename as a command line parameter").
    pub dataset_name: String,
    /// Dataset contents.
    pub dataset: D,
    /// User-supplied parameters from the generated form.
    pub params: BTreeMap<String, String>,
    /// Sandbox limits.
    pub limits: Limits,
}

/// One step of the generated batch script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchStep {
    /// `mkdir <workspace>` + `cd <workspace>`.
    EnterWorkspace(String),
    /// Unpack the operation package (format, file count).
    Unpack {
        /// Detected container format.
        format: String,
        /// Number of files extracted.
        files: usize,
    },
    /// Stage the dataset under its filename.
    StageDataset(String),
    /// Invoke the interpreter on the entry file.
    Invoke {
        /// Entry file name.
        entry: String,
        /// Interpreter kind.
        interpreter: String,
    },
}

/// Job failure.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Package could not be unpacked.
    Unpack(String),
    /// Entry file missing from the package.
    NoEntry(String),
    /// EPC assembly failed.
    Assemble(String),
    /// Sandbox violation or runtime error.
    Vm(VmError),
    /// Native operation failed.
    Native(String),
    /// Unknown operation type.
    BadType(String),
    /// Native operation not registered.
    UnknownNative(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Unpack(m) => write!(f, "unpack failed: {m}"),
            JobError::NoEntry(e) => write!(f, "entry file {e} not found in package"),
            JobError::Assemble(m) => write!(f, "assembly failed: {m}"),
            JobError::Vm(e) => write!(f, "sandbox: {e}"),
            JobError::Native(m) => write!(f, "operation failed: {m}"),
            JobError::BadType(t) => write!(f, "unknown operation type {t:?}"),
            JobError::UnknownNative(n) => write!(f, "native operation {n:?} not registered"),
        }
    }
}

impl std::error::Error for JobError {}

/// Result of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The batch script the runner executed.
    pub script: Vec<BatchStep>,
    /// Output files `(relative name, bytes)`.
    pub outputs: Vec<(String, Vec<u8>)>,
    /// Captured stdout.
    pub stdout: String,
    /// Instructions executed (0 for native ops).
    pub instructions: u64,
    /// Workspace name used.
    pub workspace: String,
}

impl JobResult {
    /// Total output bytes (the quantity shipped back to the user).
    pub fn output_bytes(&self) -> usize {
        self.outputs.iter().map(|(_, d)| d.len()).sum::<usize>() + self.stdout.len()
    }
}

/// The runner: owns the native-operation registry and a job counter.
pub struct JobRunner {
    natives: BTreeMap<String, NativeOp>,
    job_seq: u64,
}

impl Default for JobRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl JobRunner {
    /// Empty runner.
    pub fn new() -> Self {
        JobRunner {
            natives: BTreeMap::new(),
            job_seq: 0,
        }
    }

    /// Register a native operation under `name`.
    pub fn register_native(&mut self, name: &str, op: NativeOp) {
        self.natives.insert(name.to_string(), op);
    }

    /// Execute a job.
    pub fn run<D: AsRef<[u8]>>(&mut self, spec: &JobSpec<D>) -> Result<JobResult, JobError> {
        let dataset = spec.dataset.as_ref();
        self.job_seq += 1;
        let mut ws = Workspace::for_session(&spec.session_id, self.job_seq);
        let mut script = vec![BatchStep::EnterWorkspace(ws.name.clone())];

        match spec.op_type.as_str() {
            "EPC" => {
                // Unpack the operation package into the workspace.
                let format = format!("{:?}", easia_pack::detect(&spec.package));
                let files = easia_pack::unpack(&spec.package, &spec.entry)
                    .map_err(|e| JobError::Unpack(e.to_string()))?;
                script.push(BatchStep::Unpack {
                    format,
                    files: files.len(),
                });
                for (name, data) in &files {
                    ws.write(name, data.clone());
                }
                script.push(BatchStep::StageDataset(spec.dataset_name.clone()));
                let source = files
                    .iter()
                    .find(|(n, _)| n == &spec.entry)
                    .map(|(_, d)| d.clone())
                    .ok_or_else(|| JobError::NoEntry(spec.entry.clone()))?;
                let text = String::from_utf8_lossy(&source);
                let program = assemble(&text).map_err(|e| JobError::Assemble(e.to_string()))?;
                script.push(BatchStep::Invoke {
                    entry: spec.entry.clone(),
                    interpreter: "EPC-VM".into(),
                });
                // Parameter convention: argv[0] is the dataset filename
                // (the paper's command-line contract), then the form
                // parameters as "name=value" in sorted order.
                let mut params: Vec<String> = vec![spec.dataset_name.clone()];
                for (k, v) in &spec.params {
                    params.push(format!("{k}={v}"));
                }
                let mut vm = Vm::new(spec.limits);
                let run = vm.run(&program, dataset, &params).map_err(JobError::Vm)?;
                for (name, data) in &run.files {
                    ws.write(name, data.clone());
                }
                let outputs: Vec<(String, Vec<u8>)> = run.files.into_iter().collect();
                Ok(JobResult {
                    script,
                    outputs,
                    stdout: run.stdout,
                    instructions: run.instructions,
                    workspace: ws.name,
                })
            }
            "NATIVE" => {
                let op = self
                    .natives
                    .get(&spec.entry)
                    .cloned()
                    .ok_or_else(|| JobError::UnknownNative(spec.entry.clone()))?;
                script.push(BatchStep::StageDataset(spec.dataset_name.clone()));
                script.push(BatchStep::Invoke {
                    entry: spec.entry.clone(),
                    interpreter: "native".into(),
                });
                let stdout = op(dataset, &spec.params, &mut ws).map_err(JobError::Native)?;
                let workspace = ws.name.clone();
                Ok(JobResult {
                    script,
                    outputs: ws.into_files(),
                    stdout,
                    instructions: 0,
                    workspace,
                })
            }
            other => Err(JobError::BadType(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{EXAMPLE_CHECKSUM, EXAMPLE_COUNT, EXAMPLE_HEAD};

    fn epc_spec(source: &str, dataset: &[u8]) -> JobSpec {
        JobSpec {
            session_id: "sessA".into(),
            operation: "TestOp".into(),
            op_type: "EPC".into(),
            package: source.as_bytes().to_vec(),
            entry: "main.epc".into(),
            dataset_name: "t000.edf".into(),
            dataset: dataset.to_vec(),
            params: BTreeMap::new(),
            limits: Limits::default(),
        }
    }

    #[test]
    fn raw_epc_job() {
        let mut r = JobRunner::new();
        let res = r.run(&epc_spec(EXAMPLE_COUNT, &[0u8; 77])).unwrap();
        assert_eq!(res.stdout, "77\n");
        assert!(res.instructions > 0);
        assert_eq!(
            res.script[0],
            BatchStep::EnterWorkspace("tmp-sessA-000001".into())
        );
        assert!(matches!(res.script[1], BatchStep::Unpack { .. }));
        assert!(matches!(
            res.script[3],
            BatchStep::Invoke { ref interpreter, .. } if interpreter == "EPC-VM"
        ));
    }

    #[test]
    fn packaged_epc_job_tar_ez() {
        // Package the checksum program as a compressed tar, the paper's
        // "operations can be packaged in ... compressed archive formats".
        let bundle = easia_pack::format::pack_tar_ez(&[
            ("main.epc".to_string(), EXAMPLE_CHECKSUM.as_bytes().to_vec()),
            ("README".to_string(), b"docs".to_vec()),
        ])
        .unwrap();
        let mut spec = epc_spec("", &[1, 2, 3, 250]);
        spec.package = bundle;
        let mut r = JobRunner::new();
        let res = r.run(&spec).unwrap();
        assert_eq!(res.stdout, "256\n");
        assert!(matches!(res.script[1], BatchStep::Unpack { files: 2, .. }));
    }

    #[test]
    fn job_outputs_harvested() {
        let input: Vec<u8> = (0..200u8).collect();
        let mut r = JobRunner::new();
        let res = r.run(&epc_spec(EXAMPLE_HEAD, &input)).unwrap();
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[0].0, "head.bin");
        assert_eq!(res.outputs[0].1, input[..64].to_vec());
        assert_eq!(res.output_bytes(), 64);
    }

    #[test]
    fn missing_entry() {
        let bundle = easia_pack::format::pack_tar_ez(&[(
            "other.epc".to_string(),
            EXAMPLE_COUNT.as_bytes().to_vec(),
        )])
        .unwrap();
        let mut spec = epc_spec("", b"");
        spec.package = bundle;
        let mut r = JobRunner::new();
        assert!(matches!(r.run(&spec).unwrap_err(), JobError::NoEntry(_)));
    }

    #[test]
    fn sandbox_violation_surfaces() {
        let mut spec = epc_spec("loop: JMP loop", b"");
        spec.limits = Limits {
            max_instructions: 1000,
            ..Limits::default()
        };
        let mut r = JobRunner::new();
        assert_eq!(
            r.run(&spec).unwrap_err(),
            JobError::Vm(VmError::BudgetExhausted)
        );
    }

    #[test]
    fn native_operation() {
        let mut r = JobRunner::new();
        r.register_native(
            "bytecount",
            Rc::new(|data, params, ws| {
                ws.write("summary.txt", format!("{} bytes", data.len()));
                Ok(format!(
                    "counted with flavour={}",
                    params.get("flavour").map(String::as_str).unwrap_or("plain")
                ))
            }),
        );
        let mut params = BTreeMap::new();
        params.insert("flavour".to_string(), "detailed".to_string());
        let spec = JobSpec {
            session_id: "s".into(),
            operation: "ByteCount".into(),
            op_type: "NATIVE".into(),
            package: vec![],
            entry: "bytecount".into(),
            dataset_name: "d.edf".into(),
            dataset: vec![0u8; 10],
            params,
            limits: Limits::default(),
        };
        let res = r.run(&spec).unwrap();
        assert_eq!(res.stdout, "counted with flavour=detailed");
        assert_eq!(
            res.outputs[0],
            ("summary.txt".to_string(), b"10 bytes".to_vec())
        );
    }

    #[test]
    fn unknown_native_and_bad_type() {
        let mut r = JobRunner::new();
        let mut spec = epc_spec(EXAMPLE_COUNT, b"");
        spec.op_type = "NATIVE".into();
        spec.entry = "ghost".into();
        assert!(matches!(
            r.run(&spec).unwrap_err(),
            JobError::UnknownNative(_)
        ));
        spec.op_type = "COBOL".into();
        assert!(matches!(r.run(&spec).unwrap_err(), JobError::BadType(_)));
    }

    #[test]
    fn params_reach_epc_code() {
        // argv[0] is the dataset filename; argv[1] the sorted params.
        let src = "
            PUSH 0
            PUSH 0
            ARGREAD
            PUSH 0
            PUSH 8
            PRINTMEM
            HALT";
        let mut spec = epc_spec(src, b"");
        spec.params.insert("slice".into(), "x0".into());
        let mut r = JobRunner::new();
        let res = r.run(&spec).unwrap();
        assert_eq!(res.stdout, "t000.edf");
    }

    #[test]
    fn workspaces_are_unique_across_jobs() {
        let mut r = JobRunner::new();
        let a = r.run(&epc_spec(EXAMPLE_COUNT, b"")).unwrap();
        let b = r.run(&epc_spec(EXAMPLE_COUNT, b"")).unwrap();
        assert_ne!(a.workspace, b.workspace);
    }
}
