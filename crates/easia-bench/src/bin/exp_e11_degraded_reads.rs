//! E11 — degraded reads: the federation's degradation ladder under
//! outages.
//!
//! A federated archive with the stale-replica cache enabled repeats one
//! browse query through four phases: a warm cache-filling scan, a fresh
//! replica hit (zero WAN bytes), a stale serve while a site's service
//! is down (zero WAN bytes, identical rows, annotated DEGRADED), and a
//! post-TTL refill whose scatter is interrupted by a host crash and
//! completed by retry + batch-level resume. The run is executed twice
//! at the same seed to demonstrate bit-for-bit reproducibility of the
//! whole chaos schedule.

use easia_bench::degraded::{run_degraded, DegradedConfig, LADDER_SQL};
use easia_bench::rig::{print_metrics, seed_arg, twice};
use easia_bench::{fmt_bytes, Report};

fn main() {
    let seed = seed_arg(11);

    let cfg = DegradedConfig::standard(seed);
    let (first, _) = twice(
        "degraded",
        || run_degraded(&cfg),
        |r| (&r.digest, &r.metrics_snapshot),
    );

    let mut report = Report::new(
        &format!(
            "E11 / Degraded reads ladder, {} foreign sites x {} simulations (seed {seed})",
            cfg.sites, cfg.rows_per_site
        ),
        &["Phase", "rows", "WAN bytes", "retries", "stale", "skipped"],
    );
    let or_dash = |sites: &[String]| match sites {
        [] => "-".into(),
        _ => sites.join(","),
    };
    for p in &first.phases {
        report.row(&[
            p.name.into(),
            p.rows.to_string(),
            fmt_bytes(p.bytes_wire as f64),
            p.retries.to_string(),
            or_dash(&p.stale_sites),
            or_dash(&p.skipped),
        ]);
    }
    report.print();

    println!("\nLadder query: {LADDER_SQL}");

    let families = [
        "easia_med_breaker_state",
        "easia_med_scan_retries_total",
        "easia_med_cache_hits_total",
        "easia_med_cache_stale_served_total",
    ];
    print_metrics("resilience section", &first.metrics_snapshot, |l| {
        families.iter().any(|f| l.contains(f))
    });

    let [warm, hot, stale, refill] = &first.phases[..] else {
        panic!("expected 4 phases, got {}", first.phases.len());
    };
    assert!(warm.bytes_wire > 0, "the warm scan goes over the WAN");
    assert_eq!(hot.bytes_wire, 0, "fresh replica hits move no bytes");
    assert_eq!(hot.rows_sha, warm.rows_sha, "fresh hits answer identically");
    assert_eq!(
        stale.bytes_wire, 0,
        "stale serves answer a dead site with zero WAN bytes"
    );
    assert_eq!(
        stale.rows_sha, warm.rows_sha,
        "stale rows match the warm scan"
    );
    assert!(
        !stale.stale_sites.is_empty(),
        "the outage phase is annotated DEGRADED"
    );
    assert!(refill.retries >= 1, "the mid-query crash forces a retry");
    assert_eq!(
        refill.rows_sha, warm.rows_sha,
        "retry + resume completes the interrupted scan"
    );

    println!("\ndigest={}", first.digest);
    println!(
        "\nShape check: the ladder degrades in order — live WAN scan, fresh\n\
         replica (zero bytes), stale replica while the site is down (zero\n\
         bytes, same rows, visibly DEGRADED), and retry + batch-level resume\n\
         through a mid-query host crash — and the whole chaos run, backoff\n\
         timing included, digests identically at the same seed."
    );
}
