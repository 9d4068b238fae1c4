//! E10's spec over the [`crate::ablation`] runner: a partitioned
//! SIMULATION catalog and a five-query browse workload, run once with
//! pushdown and once shipping everything.

use crate::ablation::{AblationSpec, FedBenchConfig};
use crate::rig::{mix, TOPICS};
use easia_db::Database;

const SIM_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TITLE VARCHAR(80),
    GRID_SIZE INTEGER,
    VISCOSITY DOUBLE,
    CREATED TIMESTAMP
)";

fn seed_partition(db: &mut Database, site: &str, site_no: u64, cfg: &FedBenchConfig) {
    db.execute(SIM_DDL).expect("simulation schema");
    for i in 0..cfg.rows_per_site {
        let h = mix(cfg.seed, site_no, i as u64);
        let grid = 64 << (h % 4); // 64..512
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        let viscosity = ((h >> 16) % 1000) as f64 / 1000.0;
        let created = 900_000_000 + ((h >> 24) % 100_000) as i64;
        db.execute(&format!(
            "INSERT INTO SIMULATION VALUES ('{site}-{i:04}', '{site}', \
             '{topic} turbulence run {i}', {grid}, {viscosity}, {created})"
        ))
        .expect("seed row");
    }
}

/// E10: predicate/projection/top-k pushdown and site-key pruning vs.
/// shipping every partition wholesale. 2 foreign sites × 60 simulations
/// each; the workload is a site-key point lookup (pruning), predicate
/// pushdown, top-k, a grouped aggregate, and a LIKE scan.
pub const E10: AblationSpec = AblationSpec {
    name: "federation",
    scale: FedBenchConfig {
        rows_per_site: 60,
        ..FedBenchConfig::BASE
    },
    tables: &["SIMULATION"],
    seed: seed_partition,
    workload: &[
        "SELECT SIMULATION_KEY, TITLE FROM SIMULATION WHERE SITE = 'cam'",
        "SELECT SIMULATION_KEY, GRID_SIZE FROM SIMULATION \
         WHERE GRID_SIZE >= 256 AND VISCOSITY < 0.5",
        "SELECT SIMULATION_KEY, CREATED FROM SIMULATION \
         ORDER BY CREATED DESC, SIMULATION_KEY LIMIT 5",
        "SELECT SITE, COUNT(*), MAX(GRID_SIZE) FROM SIMULATION GROUP BY SITE ORDER BY SITE",
        "SELECT SIMULATION_KEY FROM SIMULATION WHERE TITLE LIKE 'Decaying%' \
         ORDER BY SIMULATION_KEY",
    ],
    ablate: |c| FedBenchConfig {
        pushdown: false,
        ..c.clone()
    },
    header: |c| {
        format!(
            "federation seed={} sites={} rows_per_site={} pushdown={}",
            c.seed, c.sites, c.rows_per_site, c.pushdown
        )
    },
    title: |c| {
        format!(
            "E10 / Federated browse workload, {} foreign sites x {} simulations (seed {})",
            c.sites, c.rows_per_site, c.seed
        )
    },
    on_label: "pushdown",
    on_run: "pushdown run",
    excerpt: &["pushed:", "hub-eval:", "site ", "total:"],
    metrics_filter: "easia_med_",
    metrics_sections: &[("federation section, pushdown run", false)],
    min_reduction: 1.0,
    shape_check: "Shape check: pushdown ships only the predicate survivors and top-k cuts\n\
         (a {reduction}x byte reduction on this workload), pruning skips partitions whose\n\
         site key cannot match, and both runs merge to identical answers — the\n\
         federated union is transparent to the browse interface.",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::{build_archive, run_ablation};
    use crate::rig::SITE_NAMES;

    #[test]
    fn same_seed_runs_digest_identically() {
        let cfg = FedBenchConfig {
            rows_per_site: 20,
            ..E10.standard(13)
        };
        let a = run_ablation(&E10, &cfg);
        let b = run_ablation(&E10, &cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert!(a.metrics_snapshot.contains("easia_med_rows_shipped_total"));
        assert!(a.metrics_snapshot.contains("easia_med_bytes_wire_total"));
        assert!(a.metrics_snapshot.contains("easia_med_rows_pruned_total"));
    }

    #[test]
    fn pushdown_reduces_bytes_and_time() {
        let cfg = FedBenchConfig {
            rows_per_site: 20,
            ..E10.standard(7)
        };
        let on = run_ablation(&E10, &cfg);
        let off = run_ablation(
            &E10,
            &FedBenchConfig {
                pushdown: false,
                ..cfg
            },
        );
        assert!(
            on.bytes_wire < off.bytes_wire,
            "pushdown {} vs ship-all {}",
            on.bytes_wire,
            off.bytes_wire
        );
        assert!(on.rows_shipped < off.rows_shipped);
        assert!(on.elapsed_secs <= off.elapsed_secs);
    }

    #[test]
    fn federated_results_match_a_single_hub_oracle() {
        let cfg = FedBenchConfig {
            rows_per_site: 15,
            ..E10.standard(21)
        };
        let mut a = build_archive(&E10, &cfg);
        // Oracle: one database holding every partition's rows.
        let mut oracle = Database::new_in_memory();
        seed_partition(&mut oracle, "soton", 0, &cfg);
        for (i, site) in SITE_NAMES[..cfg.sites].iter().enumerate() {
            let mut tmp = Database::new_in_memory();
            seed_partition(&mut tmp, site, i as u64 + 1, &cfg);
            let rows = tmp.execute("SELECT * FROM SIMULATION").unwrap().rows;
            for r in rows {
                oracle.insert_row("SIMULATION", r).unwrap();
            }
        }
        for sql in E10.workload {
            let fed = a.federated_query(sql, &[]).expect("federated").rs;
            let want = oracle.execute(sql).expect("oracle");
            assert_eq!(fed.rows, want.rows, "divergence on {sql}");
        }
    }
}
