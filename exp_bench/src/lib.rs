//! `exp_bench`: the wall-clock portal benchmark.
//!
//! One binary runs a named workload against the real EASIA crates
//! through their public functions only, prints every metric by name and
//! unit, checks the answers, and ends with a one-line JSON summary. See
//! `README.md` for the workloads, the metric → layer → end-to-end map
//! and the bounds.

pub mod alloc;
pub mod calib;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod portal;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use harness::{Config, Outcome};

/// Run one named workload, or `None` if there is no such workload.
pub fn run_workload(name: &str, cfg: &Config) -> Option<Outcome> {
    let build = workloads::build(name)?;
    Some(harness::run(name, cfg, &build))
}

/// `--smoke`: all four workloads at 1/50 size, one short window each,
/// untraced then traced. Returns `(workload, traced, outcome)`.
pub fn smoke(seed: u64, out_dir: std::path::PathBuf) -> Vec<(&'static str, bool, Outcome)> {
    let mut out = Vec::new();
    for (name, _) in metrics::WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed,
                seconds: 0.1,
                trace,
                shrink: 50,
                out_dir: out_dir.clone(),
            };
            let o = run_workload(name, &cfg).expect("catalogue workload exists");
            out.push((*name, trace, o));
        }
    }
    out
}
