//! E15 — MVCC snapshot reads + group-commit WAL vs. the
//! single-transaction ablation.
//!
//! The E14 portal (hub + file server + 2 remote sites on the paper's
//! JANET link profiles) serves its open-loop request mix while a
//! metadata-ingest writer periodically holds a batch of transactions
//! open over the hub catalog. First a scripted interleaving of snapshot
//! readers and committing writers is checked row-for-row against a
//! serial oracle. Then the measured phase runs twice: with MVCC,
//! browse/scan requests read snapshots and never wait for the writer,
//! and each ingest window group-commits with a single WAL sync; the
//! ablation models the pre-MVCC engine — readers queue behind the
//! writer's lock (bunching into bursts that overflow the bounded
//! admission queues) and every transaction pays its own sync. Both
//! modes digest bit-for-bit identically at the same seed.

use easia_bench::mvcc::{run_mvcc, MvccConfig};
use easia_bench::rig::{print_metrics, seed_arg, twice};
use easia_bench::Report;

fn main() {
    let seed = seed_arg(15);

    let cfg = MvccConfig::standard(seed);
    let (on, _) = twice(
        "MVCC",
        || run_mvcc(&cfg),
        |r| (&r.digest, &r.metrics_snapshot),
    );
    let off = run_mvcc(&MvccConfig {
        mvcc: false,
        ..cfg.clone()
    });

    println!(
        "serial oracle: {} snapshot reads checked, {} mismatches",
        on.oracle_reads, on.oracle_mismatches
    );
    println!(
        "calibration: mean scan service {:.2}s -> scan capacity {:.3} req/s",
        on.mean_scan_service, on.scan_capacity
    );

    let mut report = Report::new(
        &format!(
            "E15 / Snapshot reads under concurrent ingest (seed {seed}, {} arrivals)",
            cfg.phase_requests
        ),
        &[
            "Engine",
            "admitted scans",
            "shed",
            "scans/s",
            "p99 queue delay",
            "p99 latency",
            "ingest commits",
            "WAL syncs",
        ],
    );
    for (label, r) in [("MVCC + group commit", &on), ("single-txn ablation", &off)] {
        report.row(&[
            label.to_string(),
            r.admitted_scans.to_string(),
            r.shed_scans.to_string(),
            format!("{:.4}", r.admitted_scans_per_s),
            format!("{:.2}s", r.p99_queue_delay),
            format!("{:.2}s", r.p99_latency),
            r.ingest_commits.to_string(),
            r.ingest_syncs.to_string(),
        ]);
    }
    report.print();

    print_metrics("MVCC section, MVCC run", &on.metrics_snapshot, |l| {
        l.starts_with("easia_db_mvcc_") || l.starts_with("easia_db_wal_fsyncs")
    });

    assert_eq!(on.oracle_mismatches, 0, "snapshot reads match the oracle");
    assert_eq!(
        on.ingest_syncs, on.ingest_windows as u64,
        "group commit: one sync per window for {} committers",
        on.ingest_commits
    );
    assert_eq!(
        off.ingest_syncs, off.ingest_commits as u64,
        "ablation: one sync per committer"
    );
    assert!(
        on.admitted_scans > off.admitted_scans,
        "MVCC admits more scans: {} vs {}",
        on.admitted_scans,
        off.admitted_scans
    );
    assert!(
        on.p99_latency < off.p99_latency,
        "MVCC bounds scan p99 latency: {:.2}s vs {:.2}s",
        on.p99_latency,
        off.p99_latency
    );

    println!("\ndigest={}", on.digest);
    println!(
        "\nShape check: every snapshot read matched the serial oracle; with\n\
         MVCC the ingest writer's open transactions never delay a reader and\n\
         N committers per window cost one WAL sync, so admitted scans/s is\n\
         higher and p99 latency lower than the single-transaction ablation,\n\
         where readers bunch behind the writer's lock and every commit pays\n\
         its own sync. Same seed, same digest, twice."
    );
}
