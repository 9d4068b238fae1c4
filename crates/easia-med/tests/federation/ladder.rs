//! The degradation ladder: retry with resume, the circuit breaker, the
//! stale replica, and skip-or-fail.

use crate::rig::{q, rig};
use easia_db::Value;
use easia_med::{BreakerState, FedError, PartialPolicy, SiteSource, DEFAULT_RETRY_AFTER_SECS};
use easia_net::SimNet;
use easia_obs::Obs;

#[test]
fn fail_closed_on_dead_site() {
    let mut r = rig();
    r.fed.site("cam").unwrap().crash();
    let err = r
        .fed
        .query(
            &mut r.net,
            r.hub,
            &mut r.hub_db,
            None,
            "SELECT K FROM SIM",
            &[],
        )
        .unwrap_err();
    match err {
        FedError::SiteUnavailable {
            site,
            retry_after_secs,
        } => {
            assert_eq!(site, "cam");
            assert_eq!(retry_after_secs, DEFAULT_RETRY_AFTER_SECS);
        }
        other => panic!("expected SiteUnavailable, got {other}"),
    }
}

#[test]
fn partial_policy_annotates_skipped_sites() {
    let mut r = rig();
    r.fed.policy = PartialPolicy::Partial;
    r.fed.site("cam").unwrap().crash();
    let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
    assert_eq!(out.rs.rows, vec![vec![Value::Int(9)]]); // 4 soton + 5 edin
    assert_eq!(out.explain.skipped, vec!["cam"]);
    assert!(out.explain.render().contains("site cam: SKIPPED"));
}

#[test]
fn mid_stream_outage_resumes_and_completes() {
    // Baseline: no faults.
    let mut r1 = rig();
    r1.fed.batch_rows = 2;
    let baseline = q(&mut r1, "SELECT K, N FROM SIM ORDER BY K", &[]);

    // Same rig, but cam's host crashes just after the scatter ships
    // and recovers well inside the 600 s deadline. Retry + resume
    // must reproduce the baseline answer exactly.
    let mut r2 = rig();
    r2.fed.batch_rows = 2;
    let cam_host = r2.fed.site("cam").unwrap().host;
    let mut faults = easia_net::FaultSchedule::new();
    faults.host_crash(cam_host, 1.0e-4, 120.0);
    r2.net.set_fault_schedule(faults);
    let obs = Obs::new();
    let out = r2
        .fed
        .query(
            &mut r2.net,
            r2.hub,
            &mut r2.hub_db,
            Some(&obs),
            "SELECT K, N FROM SIM ORDER BY K",
            &[],
        )
        .unwrap();

    assert_eq!(out.rs.rows, baseline.rs.rows);
    assert!(out.explain.skipped.is_empty());
    assert!(out.explain.stale.is_empty());
    let cam = out.explain.sites.iter().find(|s| s.site == "cam").unwrap();
    assert!(cam.retries >= 1, "cam was retried: {}", cam.retries);
    assert!(obs
        .metrics
        .value("easia_med_scan_retries_total", &[("site", "cam")])
        .is_some_and(|v| v >= 1.0));
    assert!(obs.tracer.render().contains("easia.med.retry_wait"));
}

#[test]
fn breaker_opens_after_repeated_failures_and_recovers_via_probe() {
    let mut r = rig();
    r.fed.policy = PartialPolicy::Partial;
    let obs = Obs::new();
    r.fed.register_metrics(&obs);
    r.fed.site("cam").unwrap().crash();

    // Repeated failures trip the breaker at the threshold.
    for i in 0..r.fed.breaker_threshold {
        let out = r
            .fed
            .query(
                &mut r.net,
                r.hub,
                &mut r.hub_db,
                Some(&obs),
                "SELECT COUNT(*) FROM SIM",
                &[],
            )
            .unwrap();
        assert_eq!(out.explain.skipped, vec!["cam".to_string()], "query {i}");
    }
    assert_eq!(
        r.fed.site("cam").unwrap().breaker_state(),
        BreakerState::Open
    );
    assert_eq!(
        obs.metrics
            .value("easia_med_breaker_state", &[("site", "cam")]),
        Some(1.0)
    );

    // While open, the site is skipped without touching the WAN —
    // even after it comes back up, until the cooldown expires.
    r.fed.site("cam").unwrap().restart();
    let wire = |net: &SimNet| -> f64 { net.link_ids().iter().map(|l| net.link_bytes(*l)).sum() };
    let wire_before = wire(&r.net);
    let out = r
        .fed
        .query(
            &mut r.net,
            r.hub,
            &mut r.hub_db,
            Some(&obs),
            "SELECT K FROM SIM WHERE SITE = 'cam'",
            &[],
        )
        .unwrap();
    assert_eq!(out.explain.skipped, vec!["cam".to_string()]);
    assert_eq!(
        wire(&r.net),
        wire_before,
        "an open breaker denies without WAN traffic"
    );

    // Past the cooldown the breaker half-opens, the probe query
    // succeeds, and the breaker closes again.
    let probe_at = r.net.now() + easia_med::federation::DEFAULT_BREAKER_COOLDOWN_SECS + 1.0;
    r.net.run_until(probe_at);
    let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
    assert!(out.explain.skipped.is_empty());
    assert_eq!(out.rs.rows, vec![vec![Value::Int(12)]]);
    assert_eq!(
        r.fed.site("cam").unwrap().breaker_state(),
        BreakerState::Closed
    );
}

#[test]
fn degraded_policy_serves_stale_replica_with_zero_wan() {
    let mut r = rig();
    r.fed.policy = PartialPolicy::Degraded;
    r.fed.enable_replica_cache(300.0, 1_000);
    let obs = Obs::new();
    let sql = "SELECT K, N FROM SIM ORDER BY K";

    // First query fills the replica cache (full-partition scans).
    let warm = q(&mut r, sql, &[]);
    assert!(warm
        .explain
        .sites
        .iter()
        .filter(|s| s.site != "local")
        .all(|s| matches!(s.source, SiteSource::CacheFill)));

    // Second query is answered entirely from fresh replicas.
    let hot = q(&mut r, sql, &[]);
    assert_eq!(hot.rs.rows, warm.rs.rows);
    assert_eq!(hot.explain.bytes_wire(), 0, "fresh hits move no bytes");

    // With cam dead, the stale replica still answers — zero WAN
    // bytes to cam, full results, annotated as DEGRADED.
    r.fed.site("cam").unwrap().crash();
    let out = r
        .fed
        .query(&mut r.net, r.hub, &mut r.hub_db, Some(&obs), sql, &[])
        .unwrap();
    assert_eq!(out.rs.rows, warm.rs.rows);
    assert!(out.explain.skipped.is_empty());
    assert_eq!(out.explain.stale.len(), 1);
    assert_eq!(out.explain.stale[0].site, "cam");
    assert_eq!(out.explain.stale[0].rows, 3);
    assert!(obs
        .metrics
        .value("easia_med_cache_stale_served_total", &[("site", "cam")])
        .is_some_and(|v| v >= 1.0));
    assert!(out.explain.render().contains("STALE replica served"));

    // After the site recovers and takes a write, the next WAN
    // contact (here forced by TTL expiry) ships the bumped write
    // counter, invalidates the replica, and refills it with the
    // new row.
    r.fed.site("cam").unwrap().restart();
    r.fed
        .site("cam")
        .unwrap()
        .db
        .borrow_mut()
        .execute("INSERT INTO SIM VALUES ('cam-9', 'cam', 9, 0.5)")
        .unwrap();
    let past_ttl = r.net.now() + 301.0;
    r.net.run_until(past_ttl);
    let refreshed = q(&mut r, sql, &[]);
    let cam = refreshed
        .explain
        .sites
        .iter()
        .find(|s| s.site == "cam")
        .unwrap();
    assert!(matches!(cam.source, SiteSource::CacheFill));
    assert_eq!(refreshed.rs.rows.len(), warm.rs.rows.len() + 1);
}
