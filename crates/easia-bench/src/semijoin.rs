//! E12's spec over the [`crate::ablation`] runner: a RESULT_FILE
//! catalog that deliberately references simulations held at *other*
//! sites, run through the browse-screen join workload once with
//! semi-join key shipping and once with the key cap forced to zero so
//! every keyed leg degrades to a full-partition ship.

use crate::ablation::{AblationSpec, FedBenchConfig};
use crate::rig::{mix, SITE_NAMES, TOPICS};
use easia_db::Database;

// The simulation side is deliberately wide (title plus a notes blob):
// it is the table a naive join ships wholesale, and the one semi-join
// shipping reduces to the handful of referenced rows.
const SIM_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TITLE VARCHAR(80),
    NOTES VARCHAR(200),
    GRID_SIZE INTEGER,
    VISCOSITY DOUBLE
)";

// No REFERENCES clause: the files point at simulations held by other
// sites, which a per-site constraint could never validate (the paper's
// XUIS links carry the relationship instead).
const RF_DDL: &str = "CREATE TABLE RESULT_FILE (
    FILE_NAME VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    SIMULATION_KEY VARCHAR(40),
    FILE_SIZE INTEGER
)";

fn seed_partition(db: &mut Database, site: &str, site_no: u64, cfg: &FedBenchConfig) {
    db.execute(SIM_DDL).expect("simulation schema");
    db.execute(RF_DDL).expect("result file schema");
    let n_sites = cfg.sites + 1; // foreign sites plus the soton hub
    let all_sites: Vec<&str> = std::iter::once("soton")
        .chain(SITE_NAMES[..cfg.sites].iter().copied())
        .collect();
    for i in 0..cfg.sims_per_site {
        let h = mix(cfg.seed, site_no, i as u64);
        let grid = 64 << (h % 4); // 64..512
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        let viscosity = ((h >> 16) % 1000) as f64 / 1000.0;
        let notes = format!(
            "{topic} box turbulence, {grid}^3 collocation points, \
             hyperviscous closure {viscosity:.3}, archived from the \
             {site} compute cluster with full restart dumps retained"
        );
        db.execute(&format!(
            "INSERT INTO SIMULATION VALUES ('{site}-{i:04}', '{site}', \
             '{topic} turbulence run {i}', '{notes}', {grid}, {viscosity})"
        ))
        .expect("seed simulation");
        for f in 0..cfg.files_per_sim {
            let hf = mix(cfg.seed, site_no * 1000 + i as u64, f as u64);
            // Reference a simulation one site over: every file's parent
            // lives in a different partition than the file itself.
            let ref_site = all_sites[(site_no as usize + 1) % n_sites];
            let size = (hf % 1000) as i64;
            db.execute(&format!(
                "INSERT INTO RESULT_FILE VALUES ('{site}-f{i:04}-{f}', \
                 '{site}', '{ref_site}-{i:04}', {size})"
            ))
            .expect("seed result file");
        }
    }
}

/// E12: keyed remote scans vs. shipping the whole join side. 2 foreign
/// sites, 60 simulations each, 2 result files per simulation; the
/// workload is the browse screens' shapes — a selective anchor joined
/// to its cross-site parents, a LEFT JOIN substitute lookup, and a
/// grouped rollup over the joined pair.
pub const E12: AblationSpec = AblationSpec {
    name: "semijoin",
    scale: FedBenchConfig {
        sims_per_site: 60,
        files_per_sim: 2,
        ..FedBenchConfig::BASE
    },
    tables: &["SIMULATION", "RESULT_FILE"],
    seed: seed_partition,
    workload: &[
        "SELECT R.FILE_NAME, S.TITLE FROM RESULT_FILE R \
         JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE R.FILE_SIZE >= 970 ORDER BY R.FILE_NAME",
        "SELECT R.FILE_NAME, R.FILE_SIZE, S.TITLE, S.GRID_SIZE FROM RESULT_FILE R \
         LEFT JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE R.SITE = 'cam' AND R.FILE_SIZE < 40 ORDER BY R.FILE_NAME",
        "SELECT S.SITE, COUNT(*) FROM RESULT_FILE R \
         JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE R.FILE_SIZE >= 980 GROUP BY S.SITE ORDER BY S.SITE",
    ],
    ablate: |c| FedBenchConfig {
        semijoin: false,
        ..c.clone()
    },
    header: |c| {
        format!(
            "semijoin seed={} sites={} sims_per_site={} files_per_sim={} semijoin={}",
            c.seed, c.sites, c.sims_per_site, c.files_per_sim, c.semijoin
        )
    },
    title: |c| {
        format!(
            "E12 / Federated join workload, {} foreign sites x {} simulations x {} files (seed {})",
            c.sites, c.sims_per_site, c.files_per_sim, c.seed
        )
    },
    on_label: "semi-join keys",
    on_run: "semi-join run",
    excerpt: &["join leg", "site ", "total:"],
    metrics_filter: "easia_med_semijoin_",
    metrics_sections: &[
        ("semi-join section, keyed run", false),
        ("fallback section, ship-everything run", true),
    ],
    min_reduction: 3.0,
    shape_check: "Shape check: every RESULT_FILE references a simulation at another\n\
         site, so the join side cannot be answered locally — shipping the bound\n\
         key list instead of whole partitions cuts the wire {reduction}x on this\n\
         workload while both plans merge to identical browse screens.",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::run_ablation;

    #[test]
    fn same_seed_runs_digest_identically() {
        let cfg = FedBenchConfig {
            sims_per_site: 12,
            ..E12.standard(13)
        };
        let a = run_ablation(&E12, &cfg);
        let b = run_ablation(&E12, &cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert!(a
            .metrics_snapshot
            .contains("easia_med_semijoin_keys_shipped_total"));
    }

    #[test]
    fn key_shipping_beats_full_ship_by_3x_with_identical_rows() {
        let cfg = E12.standard(7);
        let keyed = run_ablation(&E12, &cfg);
        let full = run_ablation(
            &E12,
            &FedBenchConfig {
                semijoin: false,
                ..cfg
            },
        );
        assert_eq!(keyed.row_hashes, full.row_hashes, "join answers must agree");
        assert!(
            keyed.bytes_wire * 3 <= full.bytes_wire,
            "semi-join {} vs full-ship {} bytes",
            keyed.bytes_wire,
            full.bytes_wire
        );
        assert!(keyed.rows_shipped < full.rows_shipped);
        assert!(keyed.elapsed_secs <= full.elapsed_secs);
        assert!(full
            .metrics_snapshot
            .contains("easia_med_semijoin_fallbacks_total"));
    }
}
