//! The metric catalogue: every name, unit and direction the benchmark
//! prints. `BENCHMARK.json` lists exactly these (a test checks it), and
//! later issues refer to the names.

/// Length of the measured window the driver asks for (`run_seconds` in
/// `BENCHMARK.json`). 92 driver runs and two builds share 3420 s.
pub const RUN_SECONDS: u64 = 12;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.20),
    e2e("p50_ms", "ms", Better::Lower, 0.20),
    e2e("p99_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// The issue's five workload-specific end-to-end metrics. The driver
/// wants every end-to-end metric from every workload and never 0, which
/// a WAL ratio on a read-only portal cannot give, so they are reported
/// with the per-layer set (and still printed by the untraced run).
pub const WORKLOAD_SPECIFIC: &[MetricDef] = &[
    lo("sim_s_per_op", "sim_s"),
    lo("wan_bytes_per_op", "B"),
    lo("wal_bytes_per_user_byte", "ratio"),
    lo("fsyncs_per_commit", "ratio"),
    lo("recovery_s", "s"),
];

/// Per-layer metrics (layer = crate), from the traced run.
pub const LAYERS: &[MetricDef] = &[
    // easia-web
    lo("easia-web.form_decode_us", "us"),
    lo("easia-web.qbe_build_us", "us"),
    lo("easia-web.render_us", "us"),
    lo("easia-web.html_bytes_per_op", "B"),
    // easia-core
    lo("easia-core.handle_self_us", "us"),
    hi("easia-core.prefetch_hit_ratio", "ratio"),
    lo("easia-core.prefetch_issued_per_op", "count"),
    lo("easia-core.shed", "count"),
    lo("easia-core.transfer_us", "us"),
    lo("easia-core.transfer_retries", "count"),
    // easia-db, read path
    lo("easia-db.lex_us", "us"),
    lo("easia-db.parse_us", "us"),
    lo("easia-db.plan_us", "us"),
    lo("easia-db.exec_us", "us"),
    lo("easia-db.rows_scanned_per_row_returned", "ratio"),
    hi("easia-db.index_scan_share", "ratio"),
    lo("easia-db.statements_per_op", "count"),
    // easia-db, write path
    lo("easia-db.insert_us", "us"),
    lo("easia-db.commit_us", "us"),
    hi("easia-db.group_batch_size", "count"),
    lo("easia-db.wal_bytes_per_commit", "B"),
    lo("easia-db.checkpoint_ms", "ms"),
    lo("easia-db.checkpoint_bytes", "B"),
    lo("easia-db.open_ms", "ms"),
    hi("easia-db.replay_records_per_s", "1/s"),
    lo("easia-db.versions_created_per_op", "count"),
    lo("easia-db.vacuum_ms", "ms"),
    hi("easia-db.versions_vacuumed", "count"),
    // easia-med
    lo("easia-med.plan_us", "us"),
    lo("easia-med.req_codec_us", "us"),
    lo("easia-med.remote_scan_us", "us"),
    lo("easia-med.batch_codec_us", "us"),
    lo("easia-med.gather_merge_us", "us"),
    lo("easia-med.stage_rows_per_op", "count"),
    lo("easia-med.hub_writes_per_read", "count"),
    lo("easia-med.rows_shipped_per_op", "count"),
    hi("easia-med.rows_pruned_per_op", "count"),
    hi("easia-med.partial_agg_share", "ratio"),
    lo("easia-med.partial_agg_fallbacks", "count"),
    lo("easia-med.semijoin_keys_per_op", "count"),
    lo("easia-med.scan_retries", "count"),
    // easia-net (its sim_s_per_op is `sim_s_per_op` above)
    lo("easia-net.transfers_per_op", "count"),
    lo("easia-net.engine_us", "us"),
    // easia-xuis / easia-xml
    lo("easia-xuis.generate_ms", "ms"),
    lo("easia-xuis.to_xml_us", "us"),
    hi("easia-xml.parse_mb_per_s", "MB/s"),
    lo("easia-xuis.table_lookup_us", "us"),
    // easia-datalink / easia-crypto / easia-fs
    lo("easia-datalink.tokens_per_op", "count"),
    lo("easia-datalink.link_us", "us"),
    lo("easia-crypto.token_issue_us", "us"),
    lo("easia-crypto.token_verify_us", "us"),
    hi("easia-crypto.sha256_mb_per_s", "MB/s"),
    lo("easia-fs.put_us", "us"),
    lo("easia-fs.read_us", "us"),
    lo("easia-fs.linked_files", "count"),
    // easia-ops / easia-sci / easia-pack
    lo("easia-ops.job_us", "us"),
    hi("easia-ops.cache_hit_ratio", "ratio"),
    hi("easia-ops.vm_minstr_per_s", "Minstr/s"),
    lo("easia-ops.assemble_us", "us"),
    lo("easia-sci.edf_decode_us", "us"),
    lo("easia-sci.slice_us", "us"),
    lo("easia-sci.render_us", "us"),
    lo("easia-sci.stats_us", "us"),
    hi("easia-pack.compress_mb_per_s", "MB/s"),
    hi("easia-pack.decompress_mb_per_s", "MB/s"),
    // easia-obs
    lo("easia-obs.render_us", "us"),
    lo("easia-obs.families", "count"),
    lo("easia-obs.exposition_bytes", "B"),
    // process
    lo("alloc.count_per_op", "count"),
    lo("alloc.bytes_per_op", "B"),
    lo("trace.overhead_pct", "%"),
];

/// Request classes, each reported as `class.<name>.p50_ms`. The prefix
/// names the workload that issues it (`login` opens every portal round).
pub const CLASSES: &[&str] = &[
    "login",
    "hub.tables",
    "hub.qbe_form",
    "hub.qbe_indexed",
    "hub.pk_browse",
    "hub.fk_browse",
    "hub.join_qbe",
    "hub.lob",
    "hub.composite_pk",
    "hub.like_scan",
    "fed.like_qbe",
    "fed.fk_browse",
    "fed.semijoin",
    "fed.author_pk",
    "fed.walk1",
    "fed.walk2",
    "fed.walk3",
    "fed.group_by",
    "fed.count",
    "fed.topk",
    "ing.open",
    "ing.commit",
    "ing.window4",
    "ing.read",
    "ing.checkpoint",
    "ing.vacuum",
    "ing.recover",
    "ops.getimage_hot",
    "ops.getimage_sweep",
    "ops.fieldstats",
    "ops.upload",
    "ops.download",
    "ops.result",
    "ops.metrics",
];

/// Index of a class name in [`CLASSES`].
pub fn class_id(name: &str) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("unknown request class {name}"))
}

/// Metric name of a class's median latency.
pub fn class_metric(class: usize) -> String {
    format!("class.{}.p50_ms", CLASSES[class])
}

/// `(name, unit, better)` of every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut v: Vec<(String, &'static str, Better)> = WORKLOAD_SPECIFIC
        .iter()
        .chain(LAYERS)
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .collect();
    v.extend((0..CLASSES.len()).map(|c| (class_metric(c), "ms", Better::Lower)));
    v
}

/// The four workloads and why each exists (one line each, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "hub_browse",
        "Hub-only portal over 50k metadata rows: easia-web, the easia-db read path, XUIS and DATALINK tokens do the work; federation, WAN and WAL do none.",
    ),
    (
        "fed_browse",
        "Federated screens over 3 foreign sites: easia-med planner, codec, pump and staging merge, easia-net and hub insert_row do the work; ROADMAP item 2's target.",
    ),
    (
        "ingest",
        "Writes beside reads on a file-backed hub: WAL append and fsync, MVCC versions, checkpoints, DLFM link control and recovery; a read-path gain that costs writes shows here.",
    ),
    (
        "active_ops",
        "Server-side operations on 1 MB EDF files: easia-sci, easia-ops, easia-fs, tokens and transfers work on bytes, not rows; SQL and federation are nearly idle.",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        for (n, unit, _) in &layers {
            assert!(name_ok(n), "{n}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name.to_string()));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w.to_string()));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{w}: {}",
                why.len()
            );
        }
    }

    /// `BENCHMARK.json` is hand-written to the driver's contract; this
    /// keeps it equal to the catalogue the binary prints from.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.arr())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().arr().unwrap())
        {
            assert_eq!(
                j.get("bound").and_then(|b| b.num()),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let want_layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.word().to_string()))
            .collect();
        assert_eq!(names("per_layer"), want_layers);
        let wl: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(|v| v.arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(|v| v.str()).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(wl, want);
        assert_eq!(
            doc.get("paths").and_then(|p| p.arr()).map(|p| p.len()),
            Some(1)
        );
    }
}
