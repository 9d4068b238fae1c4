//! The ablation runner behind E10, E12 and E17: a multi-hub archive
//! (Southampton plus foreign sites on the paper's measured SuperJANET
//! day/evening profiles) holding a seeded catalogue partitioned on
//! SITE, a browse workload run through the SQL/MED scatter-gather
//! engine — once as shipped, once with one switch off so every leg
//! ships wholesale — and the whole run captured as a transcript and
//! hashed, E9-style. An experiment is an [`AblationSpec`]: what differs
//! between the three is data there, not code here.

use crate::rig::{print_metrics, seed_arg, twice, Transcript, SITE_NAMES};
use crate::{fmt_bytes, hms, Report};
use easia_core::{paper_link_spec, Archive};
use easia_db::Database;
use std::fmt::Write as _;

/// Parameters of one run. A spec reads the scale fields it seeds from
/// and leaves the others alone; the three switches default on.
#[derive(Debug, Clone)]
pub struct FedBenchConfig {
    /// Seed for all generated catalog data.
    pub seed: u64,
    /// Number of foreign sites (1..=3 named cam/edin/mcc).
    pub sites: usize,
    /// E10, E17: simulations per site (the hub's partition included).
    pub rows_per_site: usize,
    /// E12: simulations per site (the hub's partition included).
    pub sims_per_site: usize,
    /// E12: result files per simulation, each referencing a simulation
    /// at the *next* site round-robin so every join crosses a partition.
    pub files_per_sim: usize,
    /// Predicate/projection/top-k pushdown and pruning (E10's switch).
    pub pushdown: bool,
    /// Ship join keys to the remote side (E12's switch; false forces
    /// the full-partition fallback by capping the key list at zero).
    pub semijoin: bool,
    /// Push partial aggregates to the sites (E17's switch; false ships
    /// raw rows).
    pub partial_agg: bool,
}

impl FedBenchConfig {
    /// Two foreign sites, every switch on, no rows: what each spec's
    /// `scale` starts from.
    pub(crate) const BASE: FedBenchConfig = FedBenchConfig {
        seed: 0,
        sites: 2,
        rows_per_site: 0,
        sims_per_site: 0,
        files_per_sim: 0,
        pushdown: true,
        semijoin: true,
        partial_agg: true,
    };
}

/// Everything a run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct FedBenchResult {
    /// Human-readable log: per query the SQL, the EXPLAIN FEDERATED
    /// report, and a hash of the merged rows.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Per-query SHA-256 of the merged rows — mode-independent, so a
    /// run can be checked row-for-row against its ablation.
    pub row_hashes: Vec<String>,
    /// Bytes placed on the WAN across the workload.
    pub bytes_wire: u64,
    /// Rows shipped from remote sites across the workload.
    pub rows_shipped: u64,
    /// Simulated seconds the workload took.
    pub elapsed_secs: f64,
    /// Queries executed.
    pub queries: usize,
    /// Metrics registry snapshot at the end of the run.
    pub metrics_snapshot: String,
}

/// One experiment of the family, as constant data.
pub struct AblationSpec {
    /// First word of the transcript header and of assertion messages.
    pub name: &'static str,
    /// The default scenario (its seed is replaced by the caller's).
    pub scale: FedBenchConfig,
    /// The foreign tables, all partitioned on SITE.
    pub tables: &'static [&'static str],
    /// Create and fill one partition: `(db, site, site_no, cfg)`.
    pub seed: fn(&mut Database, &str, u64, &FedBenchConfig),
    /// The statements, in order.
    pub workload: &'static [&'static str],
    /// `cfg` with this experiment's one switch turned off.
    pub ablate: fn(&FedBenchConfig) -> FedBenchConfig,
    /// The transcript's first line.
    pub header: fn(&FedBenchConfig) -> String,
    /// The report's title.
    pub title: fn(&FedBenchConfig) -> String,
    /// Column label of the switched-on run.
    pub on_label: &'static str,
    /// How the excerpt heading names the switched-on run.
    pub on_run: &'static str,
    /// EXPLAIN lines worth excerpting, by trimmed prefix (`query:`
    /// always is).
    pub excerpt: &'static [&'static str],
    /// Substring selecting this experiment's metric families.
    pub metrics_filter: &'static str,
    /// Metric sections to print: heading, and whether from the ablation.
    pub metrics_sections: &'static [(&'static str, bool)],
    /// Least acceptable wire-byte reduction, ablation over switched-on.
    pub min_reduction: f64,
    /// Closing paragraph; `{reduction}` is replaced by the measured one.
    pub shape_check: &'static str,
}

impl AblationSpec {
    /// The default scenario at `seed`.
    pub fn standard(&self, seed: u64) -> FedBenchConfig {
        FedBenchConfig {
            seed,
            ..self.scale.clone()
        }
    }
}

/// Build the multi-hub archive for `cfg`: the hub holds the `soton`
/// partition, each foreign site its own.
pub fn build_archive(spec: &AblationSpec, cfg: &FedBenchConfig) -> Archive {
    assert!((1..=SITE_NAMES.len()).contains(&cfg.sites), "1..=3 sites");
    let sites = &SITE_NAMES[..cfg.sites];
    let mut b = Archive::builder();
    for site in sites {
        b = b.federated_site(site, paper_link_spec());
    }
    let mut a = b.build();
    a.federation
        .partition_tables(
            &mut a.db,
            "soton",
            sites,
            spec.tables,
            Some("SITE"),
            |db, site, site_no| (spec.seed)(db, site, site_no, cfg),
        )
        .expect("partitioned catalogue");
    a.federation.pushdown = cfg.pushdown;
    a.federation.partial_agg = cfg.partial_agg;
    if !cfg.semijoin {
        // A zero-key cap makes every keyed leg overflow, degrading to
        // the annotated full-partition ship — the ablation baseline.
        a.federation.semijoin_max_keys = 0;
    }
    a
}

/// Run `spec`'s workload for `cfg` and capture the transcript.
pub fn run_ablation(spec: &AblationSpec, cfg: &FedBenchConfig) -> FedBenchResult {
    let mut a = build_archive(spec, cfg);
    let mut log = Transcript::default();
    let _ = writeln!(log, "{}", (spec.header)(cfg));
    let start = a.net.now();
    let (mut bytes_wire, mut rows_shipped) = (0u64, 0u64);
    let mut row_hashes = Vec::new();
    for sql in spec.workload {
        let out = a.federated_query(sql, &[]).expect("federated query");
        bytes_wire += out.explain.bytes_wire();
        rows_shipped += out.explain.rows_shipped();
        row_hashes.push(log.statement(sql, &out));
    }
    let elapsed_secs = a.net.now() - start;
    let _ = writeln!(log, "elapsed={elapsed_secs:.6}");
    let (digest, metrics_snapshot, transcript) = log.seal(Some(a.obs.metrics.render()));
    FedBenchResult {
        transcript,
        digest,
        row_hashes,
        bytes_wire,
        rows_shipped,
        elapsed_secs,
        queries: spec.workload.len(),
        metrics_snapshot,
    }
}

/// The whole `main` of a family binary: the switched-on run twice (same
/// seed, same digest), its ablation once, the comparison table, the
/// EXPLAIN and metrics excerpts, and the claims asserted.
pub fn report(spec: &AblationSpec) {
    let cfg = spec.standard(seed_arg(7));
    let (first, second) = twice(
        spec.name,
        || run_ablation(spec, &cfg),
        |r| (&r.digest, &r.metrics_snapshot),
    );
    let ablation = run_ablation(spec, &(spec.ablate)(&cfg));
    assert_eq!(
        first.row_hashes, ablation.row_hashes,
        "{} and ship-everything runs must merge to identical answers",
        spec.on_label
    );
    let reduction = ablation.bytes_wire as f64 / (first.bytes_wire as f64).max(1.0);

    let mut report = Report::new(
        &(spec.title)(&cfg),
        &["Metric", spec.on_label, "ship-everything"],
    );
    let rows = [
        (
            "queries",
            first.queries.to_string(),
            ablation.queries.to_string(),
        ),
        (
            "rows shipped over WAN",
            first.rows_shipped.to_string(),
            ablation.rows_shipped.to_string(),
        ),
        (
            "bytes on wire",
            fmt_bytes(first.bytes_wire as f64),
            fmt_bytes(ablation.bytes_wire as f64),
        ),
        (
            "simulated workload time",
            hms(first.elapsed_secs),
            hms(ablation.elapsed_secs),
        ),
        ("byte reduction", format!("{reduction:.1}x"), "1.0x".into()),
        (
            "same-seed reproducibility (SHA-256)",
            format!("{} == {}", &first.digest[..16], &second.digest[..16]),
            "-".into(),
        ),
    ];
    for (metric, on, off) in rows {
        report.row(&[metric.into(), on, off]);
    }
    report.print();

    println!("\nWorkload:");
    for (i, sql) in spec.workload.iter().enumerate() {
        println!("  Q{}: {sql}", i + 1);
    }

    println!("\nEXPLAIN FEDERATED excerpts ({}):", spec.on_run);
    let excerpted = |l: &&str| {
        l.starts_with("query:") || spec.excerpt.iter().any(|p| l.trim_start().starts_with(p))
    };
    for line in first.transcript.lines().filter(excerpted).take(40) {
        println!("  {line}");
    }

    for (heading, from_ablation) in spec.metrics_sections {
        let run = if *from_ablation { &ablation } else { &first };
        print_metrics(heading, &run.metrics_snapshot, |l| {
            l.contains(spec.metrics_filter)
        });
    }

    assert!(
        first.bytes_wire < ablation.bytes_wire && reduction >= spec.min_reduction,
        "{} must cut wire bytes at least {}x ({} vs {}, {reduction:.1}x)",
        spec.on_label,
        spec.min_reduction,
        first.bytes_wire,
        ablation.bytes_wire
    );
    assert!(
        first.elapsed_secs <= ablation.elapsed_secs,
        "{} must not be slower over the paper's WAN",
        spec.on_label
    );
    println!("\ndigest={}", first.digest);
    println!(
        "\n{}",
        spec.shape_check
            .replace("{reduction}", &format!("{reduction:.1}"))
    );
}
