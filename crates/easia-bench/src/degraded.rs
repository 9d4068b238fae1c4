//! The degraded-reads harness behind `exp_e11_degraded_reads`: a
//! federated archive with the stale-replica cache enabled runs the same
//! browse query through the degradation ladder — a cache-filling warm
//! scan, a fresh replica hit, a stale serve while a site is down, and a
//! retry/resume refill through a mid-query host crash — with the whole
//! run captured as a transcript and hashed, E10-style.

use crate::ablation::{build_archive, FedBenchConfig};
use crate::federation::E10;
use crate::rig::{row_hash, Transcript};
use easia_core::Archive;
use easia_med::PartialPolicy;
use easia_net::FaultSchedule;
use std::fmt::Write as _;

/// Parameters of one degraded-reads run.
#[derive(Debug, Clone)]
pub struct DegradedConfig {
    /// Seed for all generated catalog data.
    pub seed: u64,
    /// Number of foreign sites (1..=3 named cam/edin/mcc).
    pub sites: usize,
    /// Simulations per site (the hub's local partition included).
    pub rows_per_site: usize,
    /// Replica-cache freshness window.
    pub ttl_secs: f64,
    /// Length of the mid-query host crash in the retry phase.
    pub outage_secs: f64,
}

impl DegradedConfig {
    /// The default scenario: 2 foreign sites × 40 simulations each,
    /// 300 s replica TTL, a 60 s mid-query outage.
    pub fn standard(seed: u64) -> Self {
        DegradedConfig {
            seed,
            sites: 2,
            rows_per_site: 40,
            ttl_secs: 300.0,
            outage_secs: 60.0,
        }
    }
}

/// What one phase of the ladder observed.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase label.
    pub name: &'static str,
    /// Merged result rows.
    pub rows: usize,
    /// Bytes this query put on the WAN.
    pub bytes_wire: u64,
    /// Scan retries across all sites.
    pub retries: u64,
    /// Sites answered from a stale replica.
    pub stale_sites: Vec<String>,
    /// Sites skipped outright.
    pub skipped: Vec<String>,
    /// SHA-256 of the merged rows.
    pub rows_sha: String,
}

/// Everything a degraded-reads run produced, plus the digest.
#[derive(Debug, Clone)]
pub struct DegradedResult {
    /// Per-phase observations, in ladder order.
    pub phases: Vec<PhaseStats>,
    /// Human-readable log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Metrics registry snapshot at the end of the run.
    pub metrics_snapshot: String,
}

/// The browse query every phase repeats: a full federated scan with a
/// deterministic order, so row hashes are comparable across phases.
pub const LADDER_SQL: &str =
    "SELECT SIMULATION_KEY, TITLE, GRID_SIZE FROM SIMULATION ORDER BY SIMULATION_KEY";

fn run_phase(a: &mut Archive, name: &'static str, log: &mut Transcript) -> PhaseStats {
    let out = a.federated_query(LADDER_SQL, &[]).expect("ladder query");
    let stats = PhaseStats {
        name,
        rows: out.rs.rows.len(),
        bytes_wire: out.explain.bytes_wire(),
        retries: out.explain.sites.iter().map(|s| u64::from(s.retries)).sum(),
        stale_sites: out.explain.stale.iter().map(|s| s.site.clone()).collect(),
        skipped: out.explain.skipped.clone(),
        rows_sha: row_hash(&out.rs.rows),
    };
    let _ = writeln!(
        log,
        "phase {}: rows={} bytes_wire={} retries={} stale=[{}] skipped=[{}] sha256={}",
        stats.name,
        stats.rows,
        stats.bytes_wire,
        stats.retries,
        stats.stale_sites.join(","),
        stats.skipped.join(","),
        stats.rows_sha,
    );
    let _ = writeln!(log, "{}", out.explain.render());
    stats
}

/// Run the four-phase ladder for `cfg` and capture the transcript.
pub fn run_degraded(cfg: &DegradedConfig) -> DegradedResult {
    let fed_cfg = FedBenchConfig {
        sites: cfg.sites,
        rows_per_site: cfg.rows_per_site,
        ..E10.standard(cfg.seed)
    };
    let mut a = build_archive(&E10, &fed_cfg);
    a.federation.policy = PartialPolicy::Degraded;
    a.federation.enable_replica_cache(cfg.ttl_secs, 10_000);

    let mut log = Transcript::default();
    let _ = writeln!(
        log,
        "degraded seed={} sites={} rows_per_site={} ttl={} outage={}",
        cfg.seed, cfg.sites, cfg.rows_per_site, cfg.ttl_secs, cfg.outage_secs
    );
    let mut phases = Vec::new();

    // 1. Warm: full-partition WAN scans fill the replica cache.
    phases.push(run_phase(&mut a, "warm-fill", &mut log));

    // 2. Hot: every remote partition answers from its fresh replica —
    //    zero bytes on the WAN.
    phases.push(run_phase(&mut a, "hot-fresh", &mut log));

    // 3. Outage: cam's archive service is down; the stale replica still
    //    answers, annotated DEGRADED, again with zero WAN bytes.
    a.federation.site("cam").expect("cam site").crash();
    phases.push(run_phase(&mut a, "outage-stale", &mut log));
    a.federation.site("cam").expect("cam site").restart();

    // 4. Refill through a crash: past the TTL the hub must go back to
    //    the WAN; cam's *host* dies just after the scatter and recovers
    //    inside the deadline, so retry + batch-level resume completes
    //    the scan anyway.
    a.advance_to(a.net.now() + cfg.ttl_secs + 1.0);
    let cam_host = a.federation.site("cam").expect("cam site").host;
    let crash_at = a.net.now() + 1.0e-3;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, crash_at, crash_at + cfg.outage_secs);
    a.net.set_fault_schedule(faults);
    phases.push(run_phase(&mut a, "refill-retry", &mut log));

    let (digest, metrics_snapshot, transcript) = log.seal(Some(a.obs.metrics.render()));
    DegradedResult {
        phases,
        digest,
        metrics_snapshot,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> DegradedConfig {
        DegradedConfig {
            rows_per_site: 12,
            ..DegradedConfig::standard(seed)
        }
    }

    #[test]
    fn same_seed_runs_digest_identically() {
        let a = run_degraded(&small(11));
        let b = run_degraded(&small(11));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        for family in [
            "easia_med_breaker_state",
            "easia_med_scan_retries_total",
            "easia_med_cache_hits_total",
            "easia_med_cache_stale_served_total",
        ] {
            assert!(
                a.metrics_snapshot.contains(family),
                "missing {family} in snapshot"
            );
        }
    }

    #[test]
    fn ladder_phases_behave() {
        let r = run_degraded(&small(23));
        let [warm, hot, stale, refill] = &r.phases[..] else {
            panic!("expected 4 phases, got {}", r.phases.len());
        };
        assert!(warm.bytes_wire > 0);
        assert_eq!(hot.bytes_wire, 0, "fresh replica hits move no bytes");
        assert_eq!(hot.rows_sha, warm.rows_sha);
        assert_eq!(stale.bytes_wire, 0, "stale serves move no bytes");
        assert_eq!(stale.rows_sha, warm.rows_sha);
        assert_eq!(stale.stale_sites, vec!["cam".to_string()]);
        assert!(stale.skipped.is_empty());
        assert!(refill.retries >= 1, "the crash forces a retry");
        assert_eq!(refill.rows_sha, warm.rows_sha);
        assert!(refill.stale_sites.is_empty() && refill.skipped.is_empty());
    }
}
