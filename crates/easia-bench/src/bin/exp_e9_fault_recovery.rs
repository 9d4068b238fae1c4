//! E9 — fault injection, retrying transfers, and DLFM crash recovery.
//!
//! A seeded chaos run: a storm of link outages, degraded-throughput
//! windows, and host crashes is injected into the archive fabric while
//! a transfer workload runs with the retrying client; a file-server
//! daemon is killed mid-transaction and a RECOVERY YES file damaged;
//! afterwards `reconcile()` replays the database catalog against every
//! DLFM. The run is executed twice with the same seed to demonstrate
//! bit-for-bit reproducibility.

use easia_bench::chaos::{run_chaos, ChaosConfig};
use easia_bench::rig::{print_metrics, seed_arg, twice};
use easia_bench::{fmt_bytes, hms, Report};

fn main() {
    let seed = seed_arg(7);

    let cfg = ChaosConfig::standard(seed);
    let (first, second) = twice(
        "chaos",
        || run_chaos(&cfg),
        |r| (&r.digest, &r.metrics_snapshot),
    );

    let mut report = Report::new(
        &format!("E9 / Fault storm and recovery (seed {seed})"),
        &["Metric", "Value"],
    );
    let rows: Vec<(&str, String)> = vec![
        (
            "faults injected (outage/degraded/crash)",
            format!("{}/{}/{}", first.outages, first.degraded, first.crashes),
        ),
        (
            "transfers completed",
            format!("{}/{}", first.completed, first.total_transfers),
        ),
        ("attempts (incl. retries)", first.total_attempts.to_string()),
        ("payload delivered", fmt_bytes(first.payload_bytes)),
        (
            "partial progress kept by resume (telemetry)",
            fmt_bytes(first.telemetry_bytes_resumed),
        ),
        ("time waiting (backoff/downtime)", hms(first.waiting_secs)),
        ("storm wall clock (simulated)", hms(first.elapsed_secs)),
        (
            "goodput",
            format!("{}/s", fmt_bytes(first.goodput_bytes_per_s)),
        ),
    ];
    for (metric, value) in rows {
        report.row(&[metric.to_string(), value]);
    }
    report.print();

    let mut report = Report::new("E9b / DLFM crash recovery", &["Check", "Result"]);
    report.row(&[
        "catalog entries checked".into(),
        first.recovery.checked.to_string(),
    ]);
    report.row(&[
        "links re-established after daemon crash".into(),
        format!("{:?}", first.recovery.relinked),
    ]);
    report.row(&[
        "files restored from RECOVERY YES backup".into(),
        format!("{:?}", first.recovery.restored),
    ]);
    report.row(&[
        "damaged file byte-identical after restore".into(),
        first.damaged_file_restored.to_string(),
    ]);
    report.row(&[
        "second reconcile pass: full agreement".into(),
        first.post_recovery_agreement.to_string(),
    ]);
    report.row(&[
        "same-seed reproducibility (SHA-256)".into(),
        format!("{} == {}", &first.digest[..16], &second.digest[..16]),
    ]);
    report.print();

    print_metrics("transfer section", &first.metrics_snapshot, |l| {
        l.contains("easia_transfer_")
    });

    assert_eq!(
        first.completed, first.total_transfers,
        "storm must not lose transfers"
    );
    assert!(first.post_recovery_agreement && first.damaged_file_restored);
    println!("\ndigest={}", first.digest);
    println!(
        "\nShape check: all transfers complete despite the storm (the retrying client\n\
         waits out downtime and resumes from the delivered offset), and one\n\
         reconcile pass returns the catalog and every DLFM to agreement."
    );
}
