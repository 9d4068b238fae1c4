//! E16 — checksummed durability under exhaustive crash points, bit rot,
//! and a scrub pass.
//!
//! The hub database runs a fixed DLFM link-ingest workload (one DDL
//! batch plus four group-committed DATALINK inserts), then its WAL is
//! attacked three ways:
//!
//! 1. the log is truncated at *every* byte offset — each prefix must
//!    classify as a clean torn tail, replay exactly the wholly-durable
//!    batches (the committed-batch-prefix invariant), and reconcile the
//!    file server back to full agreement;
//! 2. every single-bit flip of the complete image must be detected by
//!    the frame checksums, and a seeded sample of flips runs the full
//!    pipeline: strict open refuses with a typed `WalCorrupt`, salvage
//!    quarantines the log and replays only the clean committed prefix,
//!    and reconcile releases every link past the corruption horizon;
//! 3. the scrub pass verifies a healthy store without findings, then
//!    pinpoints an injected flip behind the commit horizon.
//!
//! Same seed, bit-for-bit same transcript digest, run twice to prove it.

use easia_bench::crashpoint::{run_crashpoint, CrashpointConfig};
use easia_bench::rig::{seed_arg, twice};
use easia_bench::Report;

fn main() {
    let seed = seed_arg(16);

    let cfg = CrashpointConfig::standard(seed);
    let (r, _) = twice(
        "torture",
        || run_crashpoint(&cfg),
        |r| (&r.digest, &r.transcript),
    );

    println!(
        "workload: {} WAL bytes ({} batches: ddl + {} links)",
        r.wal_bytes,
        cfg.link_batches + 1,
        cfg.link_batches
    );

    let mut report = Report::new(
        &format!("E16 / Checksummed durability torture (seed {seed})"),
        &["Attack", "cases", "detected/clean", "mismatches"],
    );
    report.row(&[
        "crash at every byte offset".to_string(),
        r.crash_points.to_string(),
        format!("{} torn tails", r.torn_classified),
        (r.replay_mismatches + r.reconcile_failures).to_string(),
    ]);
    report.row(&[
        "single-bit flip (in memory)".to_string(),
        r.flips_checked.to_string(),
        format!("{} detected", r.flips_detected),
        (r.flips_checked - r.flips_detected).to_string(),
    ]);
    report.row(&[
        "seeded rot (full pipeline)".to_string(),
        r.rot_runs.to_string(),
        format!("{} salvaged", r.rot_salvaged),
        (r.rot_runs - r.rot_salvaged).to_string(),
    ]);
    report.row(&[
        "scrub pass".to_string(),
        format!("{} frames", r.scrub_frames),
        format!("{} clean findings", r.scrub_errors_clean),
        format!("{} after rot (want 1)", r.scrub_errors_after_rot),
    ]);
    report.print();

    assert_eq!(
        r.torn_classified, r.crash_points,
        "every truncation is a clean torn tail, never corruption"
    );
    assert_eq!(r.replay_mismatches, 0, "committed-batch-prefix invariant");
    assert_eq!(r.reconcile_failures, 0, "reconcile reaches agreement");
    assert_eq!(
        r.flips_detected, r.flips_checked,
        "the frame checksums catch 100% of single-bit rot"
    );
    assert_eq!(
        r.rot_salvaged, r.rot_runs,
        "every rotted log is refused, quarantined, and salvaged"
    );
    assert_eq!(r.scrub_errors_clean, 0, "healthy store scrubs clean");
    assert_eq!(r.scrub_errors_after_rot, 1, "scrub pinpoints injected rot");

    println!("\ndigest={}", r.digest);
    println!(
        "\nShape check: a crash can only shorten the log, so every prefix\n\
         replays exactly the wholly-durable group-commit batches and the\n\
         DLFM reconciles the survivors; rot cannot shorten the log, so a\n\
         present-but-damaged frame always fails its CRC, strict open\n\
         refuses with the damaged byte offset and CSN horizon, and salvage\n\
         never replays past the damage. Same seed, same digest, twice."
    );
}
