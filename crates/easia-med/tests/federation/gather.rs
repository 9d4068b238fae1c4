//! The event pump (E13): what overlaps, what a query may wait on, and
//! where the deadline cuts.

use crate::rig::{asym_rig, join_rig, q, rig, Rig};
use easia_db::Value;
use easia_med::{PartialPolicy, QueryOutcome};
use easia_net::{LinkSpec, TransferStatus};
use easia_obs::Obs;

#[test]
fn settling_leaves_unrelated_transfers_in_flight() {
    // Regression for the settle() scoping hazard: the old
    // run_until_idle() fallback would block a query on (and drain)
    // transfers it does not own, which corrupts timing the moment
    // queries overlap.
    let mut r = rig();
    let a = r.net.add_host("a", 1);
    let b = r.net.add_host("b", 1);
    r.net.connect(a, b, LinkSpec::symmetric(1_000.0, 0.01));
    // 1 MB over a 1 kB/s link: ~1000 s, far beyond the query.
    let bg = r.net.try_transfer(a, b, 1_000_000.0).unwrap();
    let out = q(&mut r, "SELECT COUNT(*) FROM SIM", &[]);
    assert_eq!(out.rs.rows, vec![vec![Value::Int(12)]]);
    assert!(
        matches!(r.net.transfer_status(bg), TransferStatus::InFlight { .. }),
        "a query must neither wait on nor cancel a transfer it does not own"
    );
    r.net.run_until_idle();
    assert!(matches!(r.net.transfer_status(bg), TransferStatus::Done(_)));
}

#[test]
fn zero_deadline_issues_zero_wan_traffic() {
    // Pins the unified exclusive boundary: WAN work launches only
    // while now < deadline, so a zero-second budget never scatters.
    let obs = Obs::new();
    let mut r = rig();
    r.fed.register_metrics(&obs);
    r.fed.policy = PartialPolicy::Partial;
    r.fed.deadline_secs = 0.0;
    let links = r.net.link_ids();
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
    // Only the hub-local partition answers.
    assert_eq!(out.rs.rows, vec![vec![Value::Int(4)]]);
    assert_eq!(out.explain.bytes_wire(), 0);
    assert_eq!(
        out.explain.skipped,
        vec!["cam".to_string(), "edin".to_string()]
    );
    let moved: f64 = links.iter().map(|&l| r.net.link_bytes(l)).sum();
    assert_eq!(moved, 0.0, "no request frame may launch at the deadline");
    let page = obs.metrics.render();
    assert!(
        page.contains("easia_med_deadline_cancelled_total{site=\"cam\"} 1")
            && page.contains("easia_med_deadline_cancelled_total{site=\"edin\"} 1"),
        "both expired scans are counted as client-side cancellations: {page}"
    );
}

#[test]
fn multi_site_latency_tracks_the_slowest_site_not_the_sum() {
    // The E13 headline: with one fast and one slow link, a query
    // over both partitions finishes with the slow site, instead of
    // serialising the two scans.
    fn elapsed(r: &mut Rig, sql: &str) -> f64 {
        let t0 = r.net.now();
        q(r, sql, &[]);
        r.net.now() - t0
    }
    let mut r = asym_rig();
    let e_cam = elapsed(&mut r, "SELECT K FROM SIM WHERE SITE = 'cam'");
    let e_edin = elapsed(&mut r, "SELECT K FROM SIM WHERE SITE = 'edin'");
    let e_both = elapsed(&mut r, "SELECT K FROM SIM");
    assert!(
        e_both < (e_cam + e_edin) * 0.8,
        "both-sites latency must beat the serial sum: {e_both} vs {e_cam}+{e_edin}"
    );
    assert!(
        e_both >= e_edin * 0.9,
        "nothing can finish before the slowest site: {e_both} vs {e_edin}"
    );
}

#[test]
fn sibling_queries_overlap_their_wan_round_trips() {
    let qs = vec![
        ("SELECT K FROM SIM WHERE SITE = 'cam'".to_string(), vec![]),
        ("SELECT K FROM SIM WHERE SITE = 'edin'".to_string(), vec![]),
    ];
    // Serial baseline: the siblings as two `query` calls in turn.
    let mut rs = rig();
    let t0 = rs.net.now();
    let seq: Vec<QueryOutcome> = qs.iter().map(|(sql, p)| q(&mut rs, sql, p)).collect();
    let e_seq = rs.net.now() - t0;
    // One `query_many` call: both statements share one event pump.
    let mut rp = rig();
    let t0 = rp.net.now();
    let many: Vec<QueryOutcome> = rp
        .fed
        .query_many(&mut rp.net, rp.hub, &mut rp.hub_db, None, &qs)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let e_many = rp.net.now() - t0;
    for (a, b) in seq.iter().zip(&many) {
        assert_eq!(a.rs.rows, b.rs.rows, "overlap must not change results");
        assert_eq!(a.explain.bytes_wire(), b.explain.bytes_wire());
    }
    assert!(
        e_many < e_seq * 0.85,
        "sibling round trips must overlap: {e_many} vs {e_seq}"
    );
}

#[test]
fn join_legs_pump_through_the_shared_event_loop() {
    // Without pushdown both legs are independent full ships, so they
    // form one wave: the join must cost less than gathering the two
    // tables one statement after the other, and still match the
    // oracle.
    fn elapsed(r: &mut Rig, sql: &str) -> (f64, QueryOutcome) {
        let t0 = r.net.now();
        let out = q(r, sql, &[]);
        (r.net.now() - t0, out)
    }
    let (mut a, mut oracle) = join_rig();
    a.fed.pushdown = false;
    let sql = "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K ORDER BY S.K";
    let (e_join, out) = elapsed(&mut a, sql);
    assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
    let (mut b, _) = join_rig();
    b.fed.pushdown = false;
    let (e_sim, _) = elapsed(&mut b, "SELECT * FROM SIM");
    let (e_res, _) = elapsed(&mut b, "SELECT * FROM RES");
    assert!(
        e_join < (e_sim + e_res) * 0.85,
        "independent join legs must overlap: {e_join} vs {e_sim}+{e_res}"
    );
}
