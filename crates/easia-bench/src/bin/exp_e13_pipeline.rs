//! E13 — pipelined event-driven federation gather.
//!
//! A multi-site screen over deliberately slow, asymmetric WAN links is
//! measured per-site and as one scatter: the combined latency tracks
//! the slowest single site, not the serial sum, because the pump
//! overlaps every site's request/stream chain in one clock-ordered
//! event loop (merge starts when the *first* EMB1 batch lands). Two
//! sibling statements from one portal session overlap their round
//! trips through `query_many`; a hypertext FK-browse walk is served
//! from speculative prefetch until a committed remote write
//! invalidates the parked screens. Same seed, same digest, twice.

use easia_bench::pipeline::{run_pipeline, PipelineConfig};
use easia_bench::rig::{seed_arg, twice};
use easia_bench::{fmt_bytes, Report};

fn main() {
    let seed = seed_arg(13);

    let cfg = PipelineConfig::standard(seed);
    let (r, _) = twice(
        "pipeline",
        || run_pipeline(&cfg),
        |r| (&r.digest, &r.transcript),
    );

    let mut screens = Report::new(
        &format!(
            "E13 / Multi-site screen latency (seed {seed}, {} rows/site, {}-row frames)",
            cfg.rows_per_site, cfg.batch_rows
        ),
        &["Screen", "elapsed", "bytes on wire"],
    );
    for t in &r.per_site {
        screens.row(&[
            format!("site {} alone", t.label),
            format!("{:.3}s", t.elapsed),
            fmt_bytes(t.bytes_wire as f64),
        ]);
    }
    screens.row(&[
        "serial per-site sum".into(),
        format!("{:.3}s", r.serial_sum()),
        "-".into(),
    ]);
    screens.row(&[
        "combined, pipelined".into(),
        format!("{:.3}s", r.combined_pipelined.elapsed),
        fmt_bytes(r.combined_pipelined.bytes_wire as f64),
    ]);
    screens.print();

    let mut siblings = Report::new(
        "E13 / Sibling statements from one session (query in turn vs query_many)",
        &["Mode", "elapsed", "bytes on wire"],
    );
    for t in [&r.siblings_serial, &r.siblings_pipelined] {
        siblings.row(&[
            t.label.clone(),
            format!("{:.3}s", t.elapsed),
            fmt_bytes(t.bytes_wire as f64),
        ]);
    }
    siblings.print();

    let mut walk = Report::new(
        "E13 / Speculative FK-browse walk (one mid-walk remote write)",
        &[
            "clicks",
            "prefetch hits",
            "stale",
            "scans issued",
            "hit rate",
        ],
    );
    walk.row(&[
        r.prefetch.clicks.to_string(),
        r.prefetch.hits.to_string(),
        r.prefetch.stale.to_string(),
        r.prefetch.issued.to_string(),
        format!("{:.0}%", 100.0 * r.prefetch.hit_rate()),
    ]);
    walk.print();

    assert!(
        r.combined_pipelined.elapsed < 0.8 * r.serial_sum(),
        "combined screen {:.3}s must beat the serial sum {:.3}s",
        r.combined_pipelined.elapsed,
        r.serial_sum()
    );
    assert!(
        r.combined_pipelined.elapsed >= 0.9 * r.slowest_site(),
        "combined screen {:.3}s cannot beat the slowest site {:.3}s",
        r.combined_pipelined.elapsed,
        r.slowest_site()
    );
    assert!(
        r.siblings_pipelined.elapsed < 0.85 * r.siblings_serial.elapsed,
        "siblings must overlap: one call {:.3}s vs in turn {:.3}s",
        r.siblings_pipelined.elapsed,
        r.siblings_serial.elapsed
    );
    assert_eq!(
        r.siblings_pipelined.bytes_wire,
        r.siblings_serial.bytes_wire
    );
    assert!(r.prefetch.hits >= 2, "the walk is served from prefetch");
    assert_eq!(
        r.prefetch.stale, 1,
        "the write invalidates exactly one click"
    );

    println!("\ndigest={}", r.digest);
    println!(
        "\nShape check: the combined screen costs the slowest site's time\n\
         ({:.3}s vs {:.3}s slowest / {:.3}s serial sum); sibling round trips\n\
         overlap ({:.3}s in one call vs {:.3}s in turn, same rows, same\n\
         bytes); and the browse walk is served from speculative prefetch\n\
         ({}/{} clicks, one stale after the write). Same seed, same digest,\n\
         twice.",
        r.combined_pipelined.elapsed,
        r.slowest_site(),
        r.serial_sum(),
        r.siblings_pipelined.elapsed,
        r.siblings_serial.elapsed,
        r.prefetch.hits,
        r.prefetch.clicks
    );
}
