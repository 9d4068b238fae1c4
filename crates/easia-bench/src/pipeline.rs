//! The pipelined-gather harness behind `exp_e13_pipeline`: the E13
//! latency experiments for the event-driven federation pump.
//!
//! Three scenarios, one seeded run, one digest:
//!
//! 1. **Max-of-sites latency.** A SIM catalog partitioned over two
//!    deliberately slow, asymmetric WAN links is queried per-site and
//!    then as one scatter. The combined screen's latency tracks the
//!    slowest single site, not the serial sum — the pump overlaps every
//!    site's request/stream chain in one clock-ordered event loop.
//! 2. **Sibling overlap.** Two site-pruned statements from one portal
//!    session run through [`Federation::query_many`] share the pump and
//!    their WAN round trips overlap; issued as two `query` calls in turn
//!    they serialise — the measured ratio is the E13 sibling win.
//! 3. **Speculative FK-browse walk.** A hypertext ping-pong over a
//!    federated AUTHOR/SIMULATION pair: every screen prefetches the
//!    keyed scans behind its own links, so every follow-the-link click
//!    is a prefetch hit until a committed remote write invalidates the
//!    parked screens (one stale, served live, then hits resume).
//!
//! [`Federation::query_many`]: easia_med::Federation::query_many

use crate::rig::{mix, row_hash, Transcript, TOPICS};
use easia_core::{paper_link_spec, Archive, WebApp};
use easia_db::Value;
use easia_net::LinkSpec;
use easia_web::http::Request;
use std::fmt::Write as _;

/// Parameters of one E13 run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Seed for generated rows.
    pub seed: u64,
    /// Remote SIM rows per site in the gather rig.
    pub rows_per_site: usize,
    /// Rows per shipped batch frame in the gather rig (small, so each
    /// site streams several frames and the pump's overlap is visible).
    pub batch_rows: usize,
    /// Follow-the-link clicks in the FK-browse walk.
    pub browse_clicks: usize,
}

impl PipelineConfig {
    /// The default scenario: 40 rows/site in 8-row frames and a 6-click
    /// browse walk.
    pub fn standard(seed: u64) -> Self {
        PipelineConfig {
            seed,
            rows_per_site: 40,
            batch_rows: 8,
            browse_clicks: 6,
        }
    }
}

/// One timed federated statement.
#[derive(Debug, Clone)]
pub struct Timing {
    /// What was measured (site name or scenario label).
    pub label: String,
    /// Simulated seconds the statement(s) took.
    pub elapsed: f64,
    /// SHA-256 over the merged rows.
    pub row_hash: String,
    /// Bytes placed on the WAN.
    pub bytes_wire: u64,
}

impl Timing {
    /// The transcript line of this timing: `<what><label> elapsed=…`.
    fn log(&self, log: &mut Transcript, what: &str) {
        let _ = writeln!(
            log,
            "{what}{} elapsed={:.6} bytes={} rows_sha={}",
            self.label, self.elapsed, self.bytes_wire, self.row_hash
        );
    }
}

/// Prefetch-walk observations.
#[derive(Debug, Clone, Default)]
pub struct PrefetchStats {
    /// Browse clicks issued.
    pub clicks: usize,
    /// Clicks served from a parked speculative outcome.
    pub hits: u64,
    /// Clicks whose parked outcome a write had invalidated.
    pub stale: u64,
    /// Speculative scans issued across the walk.
    pub issued: u64,
}

impl PrefetchStats {
    /// Fraction of clicks answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.clicks.max(1)) as f64
    }
}

/// Everything an E13 run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Per-site single-partition screen latencies (scenario 1).
    pub per_site: Vec<Timing>,
    /// The combined scatter over every site.
    pub combined_pipelined: Timing,
    /// Two sibling statements as two `query` calls in turn.
    pub siblings_serial: Timing,
    /// The same two statements through one `query_many` call.
    pub siblings_pipelined: Timing,
    /// The FK-browse walk (scenario 3).
    pub prefetch: PrefetchStats,
    /// Human-readable log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript.
    pub digest: String,
}

impl PipelineResult {
    /// Serial per-site sum the combined screen is measured against.
    pub fn serial_sum(&self) -> f64 {
        self.per_site.iter().map(|t| t.elapsed).sum()
    }

    /// The slowest single site's screen latency.
    pub fn slowest_site(&self) -> f64 {
        self.per_site.iter().map(|t| t.elapsed).fold(0.0, f64::max)
    }
}

/// The gather rig's WAN: two deliberately slow, asymmetric links, so a
/// batch frame's transfer time dominates its latency and the serial
/// sum clearly separates from the max.
const GATHER_SITES: [(&str, f64, f64); 2] = [("cam", 40_000.0, 0.05), ("edin", 30_000.0, 0.08)];

const SIM_DDL: &str = "CREATE TABLE SIM (
    K VARCHAR(20) PRIMARY KEY,
    SITE VARCHAR(10),
    N INTEGER,
    NOTES VARCHAR(160)
)";

fn insert_sim_rows(db: &mut easia_db::Database, site: &str, site_no: u64, n: usize, seed: u64) {
    db.execute(SIM_DDL).expect("SIM schema");
    for i in 0..n {
        let h = mix(seed, site_no, i as u64);
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        let notes = format!(
            "{topic} cascade batch {i} archived at {site} with spectral \
             coefficients and restart planes retained for replay"
        );
        db.execute(&format!(
            "INSERT INTO SIM VALUES ('{site}-{i:04}', '{site}', {}, '{notes}')",
            h % 1000
        ))
        .expect("SIM row");
    }
}

/// A fresh gather rig: hub partition plus [`GATHER_SITES`], SIM
/// imported with SITE partition pruning and small batch frames. Fresh
/// per measurement so breakers, caches and the network clock never leak
/// between timings.
fn gather_rig(cfg: &PipelineConfig) -> Archive {
    let mut b = Archive::builder();
    for (site, bps, lat) in GATHER_SITES {
        b = b.federated_site(site, LinkSpec::symmetric(bps, lat));
    }
    let mut a = b.build();
    let sites = GATHER_SITES.map(|(site, _, _)| site);
    a.federation
        .partition_tables(
            &mut a.db,
            "soton",
            &sites,
            &["SIM"],
            Some("SITE"),
            |db, site, site_no| {
                let n = if site_no == 0 { 4 } else { cfg.rows_per_site };
                insert_sim_rows(db, site, site_no, n, cfg.seed);
            },
        )
        .expect("partitioned catalogue");
    a.federation.batch_rows = cfg.batch_rows;
    a
}

fn timed_query(a: &mut Archive, label: &str, sql: &str) -> Timing {
    let t0 = a.net.now();
    let out = a.federated_query(sql, &[]).expect("federated query");
    Timing {
        label: label.to_string(),
        elapsed: a.net.now() - t0,
        row_hash: row_hash(&out.rs.rows),
        bytes_wire: out.explain.bytes_wire(),
    }
}

/// Two site-pruned sibling statements, through one `query_many` call
/// or as two `query` calls in turn; the timing covers both answers
/// landing.
fn timed_siblings(a: &mut Archive, label: &str, one_call: bool) -> Timing {
    let queries: Vec<(String, Vec<Value>)> = GATHER_SITES
        .iter()
        .map(|(site, _, _)| {
            (
                format!("SELECT K, N, NOTES FROM SIM WHERE SITE = '{site}' ORDER BY K"),
                Vec::new(),
            )
        })
        .collect();
    let t0 = a.net.now();
    let fed = &a.federation;
    let results = if one_call {
        fed.query_many(&mut a.net, a.db_host, &mut a.db, Some(&a.obs), &queries)
    } else {
        queries
            .iter()
            .map(|(sql, p)| fed.query(&mut a.net, a.db_host, &mut a.db, Some(&a.obs), sql, p))
            .collect()
    };
    let elapsed = a.net.now() - t0;
    let mut rows = Vec::new();
    let mut bytes = 0u64;
    for r in results {
        let out = r.expect("sibling query");
        bytes += out.explain.bytes_wire();
        rows.extend(out.rs.rows);
    }
    Timing {
        label: label.to_string(),
        elapsed,
        row_hash: row_hash(&rows),
        bytes_wire: bytes,
    }
}

const AUTHOR_DDL: &str = "CREATE TABLE AUTHOR (
    AUTHOR_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    NAME VARCHAR(80)
)";
const SIMULATION_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TITLE VARCHAR(80),
    AUTHOR_KEY VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY)
)";

/// The walk's rows: the hub's partition, then cam's.
const WALK_ROWS: [&[&str]; 2] = [
    &[
        "INSERT INTO AUTHOR VALUES ('A1', 'soton', 'Mark')",
        "INSERT INTO SIMULATION VALUES ('soton-0', 'soton', 'Local run', 'A1')",
    ],
    &[
        "INSERT INTO AUTHOR VALUES ('A2', 'cam', 'Remote')",
        "INSERT INTO SIMULATION VALUES ('cam-0', 'cam', 'Remote run 0', 'A2')",
        "INSERT INTO SIMULATION VALUES ('cam-1', 'cam', 'Remote run 1', 'A2')",
        "INSERT INTO SIMULATION VALUES ('cam-2', 'cam', 'Remote run 2', 'A2')",
    ],
];

/// The paper's hypertext browsing pattern over a federated AUTHOR /
/// SIMULATION pair: render a result screen, then keep following the
/// links that screen offers. Each render speculatively runs the keyed
/// scans behind its own FK/PK links, so the next click is served from
/// the prefetch cache; midway a committed write on the remote site
/// invalidates the parked screens and exactly one click runs live.
fn browse_walk(cfg: &PipelineConfig, log: &mut Transcript) -> PrefetchStats {
    let mut a = Archive::builder()
        .federated_site("cam", paper_link_spec())
        .build();
    a.federation
        .partition_tables(
            &mut a.db,
            "soton",
            &["cam"],
            &["AUTHOR", "SIMULATION"],
            Some("SITE"),
            |db, _, site_no| {
                let rows = WALK_ROWS[site_no as usize];
                for sql in [AUTHOR_DDL, SIMULATION_DDL].iter().chain(rows) {
                    db.execute(sql).expect("walk catalogue");
                }
            },
        )
        .expect("partitioned catalogue");
    a.generate_xuis_federated(4);
    let now = a.clock.now();
    let u = a
        .users
        .authenticate("admin", "hpcc-admin")
        .expect("admin")
        .clone();
    let token = a.sessions.open(&u, now);
    let mut app = WebApp::new(a);

    // The anchor screen: its FK links are speculatively executed while
    // it renders.
    let r =
        app.handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&token));
    assert_eq!(r.status, 200, "anchor screen: {}", r.body_text());
    let _ = writeln!(
        log,
        "walk anchor parked={} body_has_fk={}",
        app.archive.prefetch.len(),
        r.body_text().contains("/browse/fk/AUTHOR.AUTHOR_KEY")
    );

    // Ping-pong the remote author's drill-down: AUTHOR screen offers
    // its simulations, the SIMULATION screen offers the author back.
    // Every click follows a link the previous screen prefetched.
    let mut clicks = 0usize;
    for i in 0..cfg.browse_clicks {
        if i == cfg.browse_clicks / 2 {
            // A committed write at the site invalidates every parked
            // screen: the very next click must run live.
            app.archive
                .federation
                .site("cam")
                .expect("cam registered")
                .db
                .borrow_mut()
                .execute("UPDATE AUTHOR SET NAME = 'Renamed' WHERE AUTHOR_KEY = 'A2'")
                .expect("remote write");
            let _ = writeln!(log, "walk write committed before click {i}");
        }
        let url = if i % 2 == 0 {
            "/browse/fk/AUTHOR.AUTHOR_KEY?value=A2"
        } else {
            "/browse/pk/SIMULATION.AUTHOR_KEY?value=A2"
        };
        let r = app.handle(Request::get(url).with_session(&token));
        assert_eq!(r.status, 200, "walk click {i}: {}", r.body_text());
        clicks += 1;
        let prefetched = r.body_text().contains("served from speculative prefetch");
        let _ = writeln!(log, "walk click {i} url={url} prefetched={prefetched}");
    }

    let counter = |name| app.archive.obs.metrics.value(name, &[]).unwrap_or(0.0) as u64;
    let stats = PrefetchStats {
        clicks,
        hits: counter("easia_med_prefetch_hits_total"),
        stale: counter("easia_med_prefetch_stale_total"),
        issued: counter("easia_med_prefetch_issued_total"),
    };
    let _ = writeln!(
        log,
        "walk clicks={} hits={} stale={} issued={} hit_rate={:.3}",
        stats.clicks,
        stats.hits,
        stats.stale,
        stats.issued,
        stats.hit_rate()
    );
    stats
}

/// Run all three E13 scenarios for `cfg` and capture the transcript.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineResult {
    let mut log = Transcript::default();
    let _ = writeln!(
        log,
        "pipeline seed={} rows_per_site={} batch_rows={} browse_clicks={}",
        cfg.seed, cfg.rows_per_site, cfg.batch_rows, cfg.browse_clicks
    );

    // Scenario 1: per-site screens, then the combined scatter. Fresh
    // rig per timing.
    let mut per_site = Vec::new();
    for (site, _, _) in GATHER_SITES {
        let mut a = gather_rig(cfg);
        let t = timed_query(
            &mut a,
            site,
            &format!("SELECT K, N, NOTES FROM SIM WHERE SITE = '{site}' ORDER BY K"),
        );
        t.log(&mut log, "site=");
        per_site.push(t);
    }
    const ALL_SQL: &str = "SELECT K, N, NOTES FROM SIM ORDER BY K";
    let combined_pipelined = timed_query(&mut gather_rig(cfg), "pipelined", ALL_SQL);
    combined_pipelined.log(&mut log, "combined=");

    // Scenario 2: sibling statements, in turn and through one
    // query_many call.
    let siblings_serial = timed_siblings(&mut gather_rig(cfg), "siblings-serial", false);
    let siblings_pipelined = timed_siblings(&mut gather_rig(cfg), "siblings-pipelined", true);
    siblings_serial.log(&mut log, "");
    siblings_pipelined.log(&mut log, "");
    assert_eq!(
        siblings_serial.row_hash, siblings_pipelined.row_hash,
        "sibling answers must not depend on how they were issued"
    );

    // Scenario 3: the speculative FK-browse walk.
    let prefetch = browse_walk(cfg, &mut log);

    let (digest, _, transcript) = log.seal(None);
    PipelineResult {
        per_site,
        combined_pipelined,
        siblings_serial,
        siblings_pipelined,
        prefetch,
        transcript,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> PipelineConfig {
        PipelineConfig {
            rows_per_site: 16,
            batch_rows: 4,
            browse_clicks: 4,
            ..PipelineConfig::standard(seed)
        }
    }

    #[test]
    fn same_seed_runs_digest_identically() {
        let a = run_pipeline(&small(13));
        let b = run_pipeline(&small(13));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn combined_screen_tracks_the_slowest_site_and_siblings_overlap() {
        let r = run_pipeline(&small(17));
        // Scenario 1: latency = max of sites, not the serial sum.
        assert!(
            r.combined_pipelined.elapsed < 0.8 * r.serial_sum(),
            "combined {:.4}s must beat the serial sum {:.4}s",
            r.combined_pipelined.elapsed,
            r.serial_sum()
        );
        assert!(
            r.combined_pipelined.elapsed >= 0.9 * r.slowest_site(),
            "combined {:.4}s cannot beat the slowest site {:.4}s",
            r.combined_pipelined.elapsed,
            r.slowest_site()
        );
        // Scenario 2: sibling round trips overlap under the pump.
        assert!(
            r.siblings_pipelined.elapsed < 0.85 * r.siblings_serial.elapsed,
            "siblings in one call {:.4}s vs in turn {:.4}s",
            r.siblings_pipelined.elapsed,
            r.siblings_serial.elapsed
        );
        assert_eq!(
            r.siblings_pipelined.bytes_wire,
            r.siblings_serial.bytes_wire
        );
        // Scenario 3: the walk hits until the write, exactly one stale.
        assert!(r.prefetch.hits >= 2, "walk hits: {:?}", r.prefetch);
        assert_eq!(
            r.prefetch.stale, 1,
            "one invalidated click: {:?}",
            r.prefetch
        );
        assert!(r.prefetch.issued >= r.prefetch.hits);
    }
}
