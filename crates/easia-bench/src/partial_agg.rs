//! E17's spec over the [`crate::ablation`] runner: sites each holding
//! tens of thousands of catalog rows, run through a grouped-aggregate
//! browse workload once with partial-aggregate pushdown (each site
//! ships one state row per group) and once with the switch off so
//! every aggregate ships its raw rows.
//!
//! The generated DOUBLE column is a dyadic rational (k/256) so SUM and
//! AVG are exact in f64 regardless of addition order: the partial-merge
//! answer is bit-for-bit the ship-everything answer, and the runner
//! asserts exactly that.

use crate::ablation::{AblationSpec, FedBenchConfig};
use crate::rig::{mix, TOPICS};
use easia_db::{Database, Value};

const SIM_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TOPIC VARCHAR(20),
    GRID_SIZE INTEGER,
    VISCOSITY DOUBLE
)";

// TOPIC is also the GROUP BY key, so every site contributes partial
// states for every group.
fn seed_partition(db: &mut Database, site: &str, site_no: u64, cfg: &FedBenchConfig) {
    db.execute(SIM_DDL).expect("simulation schema");
    for i in 0..cfg.rows_per_site {
        let h = mix(cfg.seed, site_no, i as u64);
        let grid = 64 << (h % 4); // 64..512
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        // Dyadic rational (k/256): exactly representable in f64, so
        // SUM/AVG are order-independent and the partial merge is
        // bit-identical to the single-pass answer.
        let viscosity = ((h >> 16) % 256) as f64 / 256.0;
        db.insert_row(
            "SIMULATION",
            vec![
                Value::Str(format!("{site}-{i:06}")),
                Value::Str(site.to_string()),
                Value::Str(topic.to_string()),
                Value::Int(grid),
                Value::Double(viscosity),
            ],
        )
        .expect("seed simulation");
    }
}

/// E17: site-local aggregate states vs. shipping every raw row to the
/// hub. 2 foreign sites, 10 000 rows each; the workload is the
/// archive's summary screens — a grouped rollup per topic, a global
/// census, and a filtered per-site rollup with a HAVING cut.
pub const E17: AblationSpec = AblationSpec {
    name: "partial_agg",
    scale: FedBenchConfig {
        rows_per_site: 10_000,
        ..FedBenchConfig::BASE
    },
    tables: &["SIMULATION"],
    seed: seed_partition,
    workload: &[
        "SELECT TOPIC, COUNT(*), SUM(GRID_SIZE), AVG(VISCOSITY) FROM SIMULATION \
         GROUP BY TOPIC ORDER BY TOPIC",
        "SELECT COUNT(*), MIN(GRID_SIZE), MAX(GRID_SIZE), SUM(VISCOSITY) FROM SIMULATION",
        "SELECT SITE, COUNT(*), MAX(VISCOSITY) FROM SIMULATION \
         WHERE GRID_SIZE >= 256 GROUP BY SITE HAVING COUNT(*) > 10 ORDER BY SITE",
    ],
    ablate: |c| FedBenchConfig {
        partial_agg: false,
        ..c.clone()
    },
    header: |c| {
        format!(
            "partial_agg seed={} sites={} rows_per_site={} partial_agg={}",
            c.seed, c.sites, c.rows_per_site, c.partial_agg
        )
    },
    title: |c| {
        format!(
            "E17 / Federated aggregate workload, {} foreign sites x {} rows (seed {})",
            c.sites, c.rows_per_site, c.seed
        )
    },
    on_label: "partial aggregates",
    on_run: "partial-aggregate run",
    excerpt: &["aggregate:", "total:"],
    metrics_filter: "easia_med_partial_agg_",
    metrics_sections: &[
        ("partial-agg section, pushdown run", false),
        ("fallback section, ship-everything run", true),
    ],
    min_reduction: 10.0,
    shape_check: "Shape check: every site contributes rows to every topic group, so a\n\
         grouped aggregate must consult all partitions — shipping one partial\n\
         state row per group per site instead of the raw partitions cuts the\n\
         wire {reduction}x on this workload while both plans merge to\n\
         identical summary screens.",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::run_ablation;

    #[test]
    fn same_seed_runs_digest_identically() {
        let cfg = FedBenchConfig {
            rows_per_site: 400,
            ..E17.standard(13)
        };
        let a = run_ablation(&E17, &cfg);
        let b = run_ablation(&E17, &cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert!(a
            .metrics_snapshot
            .contains("easia_med_partial_agg_queries_total"));
        assert!(a
            .metrics_snapshot
            .contains("easia_med_partial_agg_groups_shipped_total"));
    }

    #[test]
    fn partial_states_beat_raw_ship_by_10x_with_identical_rows() {
        let cfg = FedBenchConfig {
            rows_per_site: 600,
            ..E17.standard(7)
        };
        let partial = run_ablation(&E17, &cfg);
        let raw = run_ablation(
            &E17,
            &FedBenchConfig {
                partial_agg: false,
                ..cfg
            },
        );
        assert_eq!(
            partial.row_hashes, raw.row_hashes,
            "aggregate answers must agree"
        );
        assert!(
            partial.bytes_wire * 10 <= raw.bytes_wire,
            "partial {} vs raw {} bytes",
            partial.bytes_wire,
            raw.bytes_wire
        );
        assert!(partial.rows_shipped < raw.rows_shipped);
        assert!(partial.elapsed_secs <= raw.elapsed_secs);
        assert!(raw
            .metrics_snapshot
            .contains("easia_med_partial_agg_fallbacks_total"));
        assert!(partial.transcript.contains("aggregate: partial pushdown"));
        assert!(raw.transcript.contains("aggregate: ship-rows fallback"));
    }
}
