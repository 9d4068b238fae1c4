//! The chaos harness behind `exp_e9_fault_recovery`: a seeded fault
//! storm over a multi-server archive, a retrying transfer workload run
//! through it, a file-server process crash mid-transaction, and the
//! datalink manager's reconcile pass afterwards.
//!
//! Everything — the storm, the retry jitter, the workload order — is a
//! pure function of the seed, so a whole run (captured as a transcript
//! and hashed) reproduces bit-for-bit across invocations.

use crate::rig::Transcript;
use easia_core::{transfer_with_retry_observed, Archive, RetryPolicy};
use easia_datalink::ReconcileReport;
use easia_fs::FileContent;
use easia_net::{FaultSchedule, LinkSpec, Mbit, StormSpec};
use std::fmt::Write as _;

/// Parameters of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the fault storm and all retry jitter.
    pub seed: u64,
    /// Number of file servers.
    pub servers: usize,
    /// Linked files per server.
    pub files_per_server: usize,
    /// Size of each file in bytes (real, deterministic contents).
    pub file_bytes: usize,
}

impl ChaosConfig {
    /// The default scenario: 2 servers × 3 files of 4 MB on 8 Mbit/s
    /// links, so every transfer takes long enough to collide with the
    /// storm's outage windows.
    pub fn standard(seed: u64) -> Self {
        ChaosConfig {
            seed,
            servers: 2,
            files_per_server: 3,
            file_bytes: 8_000_000,
        }
    }
}

/// Everything a chaos run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Human-readable event log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript — equal digests mean bit-for-bit
    /// identical runs.
    pub digest: String,
    /// Transfers attempted.
    pub total_transfers: usize,
    /// Transfers that delivered every byte.
    pub completed: usize,
    /// Attempts summed over all transfers (retries included).
    pub total_attempts: u32,
    /// Payload bytes delivered.
    pub payload_bytes: f64,
    /// Simulated seconds spent in backoff or waiting out downtime.
    pub waiting_secs: f64,
    /// Simulated seconds from first transfer start to last byte.
    pub elapsed_secs: f64,
    /// Payload delivered per simulated second of the storm.
    pub goodput_bytes_per_s: f64,
    /// Hard link outages injected.
    pub outages: usize,
    /// Degraded-throughput windows injected.
    pub degraded: usize,
    /// Host crash events injected (the file-server process crash rides
    /// on the first of them).
    pub crashes: usize,
    /// The reconcile pass's report.
    pub recovery: ReconcileReport,
    /// True when a second reconcile pass found catalog and DLFMs in
    /// full agreement with zero actions.
    pub post_recovery_agreement: bool,
    /// True when the RECOVERY YES file damaged during the crash came
    /// back byte-identical.
    pub damaged_file_restored: bool,
    /// Prometheus-format snapshot of the archive's metrics registry at
    /// the end of the run. Deterministic: same-seed runs render
    /// byte-identical snapshots (its SHA-256 is folded into the
    /// transcript, so `digest` covers it too).
    pub metrics_snapshot: String,
    /// `easia_transfer_bytes_resumed_total` read back from telemetry.
    pub telemetry_bytes_resumed: f64,
}

/// Deterministic file contents: a byte pattern derived from the seed
/// and file index.
fn pattern(seed: u64, idx: usize, len: usize) -> Vec<u8> {
    let base = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((idx as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    (0..len)
        .map(|i| {
            let mut z = base.wrapping_add((i as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 32) as u8
        })
        .collect()
}

/// Run the full chaos scenario for `cfg`.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosResult {
    let mut log = Transcript::default();
    let _ = writeln!(
        log,
        "chaos seed={} servers={} files={} bytes={}",
        cfg.seed, cfg.servers, cfg.files_per_server, cfg.file_bytes
    );

    // -- Archive: N file servers on 8 Mbit/s (1 MB/s) links. --
    let mut b = Archive::builder().client_link(LinkSpec::symmetric(Mbit(8.0), 0.01));
    for i in 0..cfg.servers {
        b = b.file_server(
            &format!("fs{}.chaos", i + 1),
            LinkSpec::symmetric(Mbit(8.0), 0.01),
        );
    }
    let mut a = b.build();
    a.db.execute(
        "CREATE TABLE chaos_file (
            file_name VARCHAR(120) PRIMARY KEY,
            payload DATALINK LINKTYPE URL FILE LINK CONTROL
                INTEGRITY ALL READ PERMISSION DB WRITE PERMISSION BLOCKED
                RECOVERY YES ON UNLINK RESTORE
        )",
    )
    .expect("chaos schema");

    // -- Link the workload's files (archived where they were generated). --
    let mut datasets: Vec<(String, String, usize)> = Vec::new(); // (host, path, idx)
    let mut idx = 0usize;
    for i in 0..cfg.servers {
        let host = format!("fs{}.chaos", i + 1);
        for j in 0..cfg.files_per_server {
            let path = format!("/chaos/f{i}_{j}.dat");
            let (_, server) = a.server(&host).expect("server registered");
            server.borrow_mut().ingest(
                &path,
                FileContent::Bytes(pattern(cfg.seed, idx, cfg.file_bytes)),
            );
            a.db.execute(&format!(
                "INSERT INTO chaos_file VALUES ('f{i}_{j}', 'http://{host}{path}')"
            ))
            .expect("link insert");
            datasets.push((host.clone(), path, idx));
            idx += 1;
        }
    }

    // -- Seeded fault storm over every link and all file-server hosts. --
    let links = a.net.link_ids();
    let fs_hosts: Vec<_> = a.servers.values().map(|(hid, _)| *hid).collect();
    // The window is sized so the storm overlaps the transfer workload
    // (6 × 8 MB at 1 MB/s ≈ 48 s before retries stretch it).
    let spec = StormSpec::moderate(cfg.seed, (2.0, 60.0));
    let storm = FaultSchedule::storm(&spec, &links, &fs_hosts);
    let (outages, degraded, crashes) = (
        storm.outage_count(),
        storm.degraded_count(),
        storm.crash_count(),
    );
    for f in storm.link_faults() {
        let _ = writeln!(
            log,
            "fault link={:?} [{:.6},{:.6}) factor={:.6}",
            f.link, f.from_s, f.until_s, f.factor
        );
    }
    for f in storm.host_faults() {
        let _ = writeln!(
            log,
            "fault host={:?} down [{:.6},{:.6})",
            f.host, f.down_at, f.up_at
        );
    }
    a.net.set_fault_schedule(storm);

    // -- File-server process crash mid-transaction. --
    // The victim's DLFM loses the pending link; the COMMIT that follows
    // is a no-op on the crashed daemon, so the database catalog and the
    // DLFM diverge — exactly what reconcile() must repair. A RECOVERY
    // YES file is damaged while the daemon is down, too.
    let victim_host = "fs1.chaos".to_string();
    let victim_path = "/chaos/victim.dat".to_string();
    let damaged_path = "/chaos/f0_0.dat".to_string();
    let victim = a.server(&victim_host).expect("victim server").1.clone();
    victim.borrow_mut().ingest(
        &victim_path,
        FileContent::Bytes(pattern(cfg.seed, 9_999, 4096)),
    );
    a.db.execute("BEGIN").unwrap();
    a.db.execute(&format!(
        "INSERT INTO chaos_file VALUES ('victim', 'http://{victim_host}{victim_path}')"
    ))
    .unwrap();
    victim.borrow_mut().crash();
    a.db.execute("COMMIT").unwrap(); // swallowed by the crashed daemon
    assert!(victim.borrow_mut().damage_file(&damaged_path));
    let _ = writeln!(
        log,
        "crash {victim_host}: pending link for {victim_path} lost, {damaged_path} damaged"
    );

    // -- The transfer storm: every dataset shipped to the browser with
    //    the retrying client. Sequential and seed-ordered, so the whole
    //    run is deterministic. --
    let start = a.net.now();
    let mut completed = 0usize;
    let mut total_attempts = 0u32;
    let mut payload = 0.0f64;
    let mut waiting = 0.0f64;
    for (host, path, i) in &datasets {
        let (hid, _) = *a.servers.get(host).expect("host known");
        let policy = RetryPolicy {
            jitter_seed: cfg.seed ^ (*i as u64),
            ..RetryPolicy::default()
        };
        match transfer_with_retry_observed(
            &mut a.net,
            hid,
            a.client_host,
            cfg.file_bytes as f64,
            &policy,
            Some(&a.transfer_metrics),
        ) {
            Ok(out) => {
                completed += 1;
                total_attempts += out.attempts;
                payload += out.bytes;
                waiting += out.waiting_secs;
                let _ = writeln!(
                    log,
                    "xfer {host}{path}: attempts={} dur={:.6} wait={:.6}",
                    out.attempts,
                    out.duration(),
                    out.waiting_secs
                );
            }
            Err(e) => {
                let _ = writeln!(log, "xfer {host}{path}: FAILED {e}");
            }
        }
    }
    let elapsed = a.net.now() - start;
    a.clock.set(a.net.now() as u64);

    // -- Recovery: restart the crashed daemon, replay the catalog. --
    victim.borrow_mut().restart();
    let recovery = a.manager.reconcile(&mut a.db);
    let _ = writeln!(
        log,
        "reconcile checked={} relinked={:?} restored={:?} orphans={:?} unrepairable={:?} skipped={:?}",
        recovery.checked,
        recovery.relinked,
        recovery.restored,
        recovery.orphans_unlinked,
        recovery.unrepairable,
        recovery.skipped_down
    );
    let second = a.manager.reconcile(&mut a.db);
    let post_recovery_agreement = second.in_agreement() && second.actions() == 0;
    let _ = writeln!(
        log,
        "reconcile second pass agreement={post_recovery_agreement}"
    );

    // Byte-identical restore check for the damaged RECOVERY YES file.
    let damaged_file_restored = victim
        .borrow()
        .store()
        .get(&damaged_path)
        .map(|c| c.read_range(0, c.len()) == pattern(cfg.seed, 0, cfg.file_bytes))
        .unwrap_or(false);
    let _ = writeln!(log, "damaged file byte-identical={damaged_file_restored}");

    // -- Telemetry snapshot: the full registry in exposition format.
    //    Folding its hash into the transcript makes the run digest
    //    cover every counter, gauge and histogram bucket. --
    let telemetry_bytes_resumed = a
        .obs
        .metrics
        .value("easia_transfer_bytes_resumed_total", &[])
        .unwrap_or(0.0);
    let (digest, metrics_snapshot, transcript) = log.seal(Some(a.obs.metrics.render()));
    ChaosResult {
        digest,
        total_transfers: datasets.len(),
        completed,
        total_attempts,
        payload_bytes: payload,
        waiting_secs: waiting,
        elapsed_secs: elapsed,
        goodput_bytes_per_s: if elapsed > 0.0 {
            payload / elapsed
        } else {
            0.0
        },
        outages,
        degraded,
        crashes,
        recovery,
        post_recovery_agreement,
        damaged_file_restored,
        metrics_snapshot,
        telemetry_bytes_resumed,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern(1, 2, 64), pattern(1, 2, 64));
        assert_ne!(pattern(1, 2, 64), pattern(1, 3, 64));
        assert_ne!(pattern(1, 2, 64), pattern(2, 2, 64));
    }

    #[test]
    fn small_chaos_run_completes() {
        let cfg = ChaosConfig {
            seed: 3,
            servers: 1,
            files_per_server: 2,
            file_bytes: 1_000_000,
        };
        let r = run_chaos(&cfg);
        assert_eq!(r.completed, r.total_transfers);
        assert!(r.post_recovery_agreement, "{}", r.transcript);
        assert!(r.damaged_file_restored, "{}", r.transcript);
    }

    #[test]
    fn same_seed_runs_render_identical_metric_snapshots() {
        let cfg = ChaosConfig {
            seed: 11,
            servers: 1,
            files_per_server: 2,
            file_bytes: 1_000_000,
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        // The snapshot carries every instrumented layer.
        for needle in [
            "easia_db_statements_total",
            "easia_transfer_attempts_total",
            "easia_dlfm_reconcile_passes_total",
            "easia_fs_links_total",
        ] {
            assert!(
                a.metrics_snapshot.contains(needle),
                "missing {needle} in:\n{}",
                a.metrics_snapshot
            );
        }
    }
}
