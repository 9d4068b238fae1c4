//! `fed_browse`: federated screens over three foreign sites.
//!
//! The hub holds the paper's five tables with a local SIMULATION
//! partition and its RESULT_FILE rows; three foreign sites each hold a
//! SIMULATION partition behind the paper's link profiles, and
//! `SIMULATION` is imported as a foreign table (no site key, so every
//! statement scatters to every site; no faults). `easia-med` (planner,
//! EMQ1/EMB1 codec, pump, staging merge), `easia-net` and the hub's
//! `insert_row` path do most of the work: the hub executor is a *write
//! target* for reads, which `hub_browse` never makes it. This is the
//! target of ROADMAP item 2; a gain here must leave `hub_browse` flat.

use super::{rows_text, seed_authors, shuffle, AUTHORS, TOPICS};
use crate::harness::{Config, Counters, Recorder, Report, Workload};
use crate::metrics::class_id;
use crate::portal::{probes, script_digest, Call, Expect, Op, Portal, RawRequest, SITES};
use crate::trace::Tracer;
use easia_core::{paper_link_spec, turbulence, Archive};
use easia_db::Database;
use easia_med::Partition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// RESULT_FILE rows per local simulation.
const FILES: usize = 10;

/// Ops per round by class; a round also opens with one login. A walk
/// is three ops, generated together by `fed.walk1`.
const MIX: [(&str, usize); 8] = [
    ("fed.like_qbe", 60),
    ("fed.fk_browse", 40),
    ("fed.semijoin", 40),
    ("fed.author_pk", 4),
    ("fed.walk1", 12),
    ("fed.group_by", 7),
    ("fed.count", 7),
    ("fed.topk", 6),
];

/// Remote partitions reuse the paper's SIMULATION shape minus the FK
/// constraint: foreign sites do not hold the hub's AUTHOR table.
const REMOTE_SIM_DDL: &str = "CREATE TABLE simulation (
    simulation_key VARCHAR(30) PRIMARY KEY,
    title VARCHAR(200) NOT NULL,
    author_key VARCHAR(30),
    grid_size INTEGER,
    reynolds DOUBLE,
    timesteps INTEGER,
    description CLOB)";

struct Sizes {
    local_sims: usize,
    site_sims: usize,
}

fn key(site: &str, i: usize) -> String {
    format!("{site}-{i:05}")
}

fn title(i: usize) -> String {
    format!("{} turbulence run {i}", TOPICS[i % TOPICS.len()])
}

fn author(site_no: usize, i: usize) -> &'static str {
    AUTHORS[(i + site_no) % AUTHORS.len()].0
}

fn reynolds(site_no: usize, i: usize) -> f64 {
    300.0 + ((i * 7 + site_no * 131) % 997) as f64
}

fn grid(i: usize) -> usize {
    64 << (i % 3)
}

fn seed_partition(db: &mut Database, site: &str, site_no: usize, n: usize) {
    db.execute("BEGIN").expect("begin");
    let mut sql = String::new();
    for chunk in (0..n).collect::<Vec<_>>().chunks(50) {
        sql.clear();
        sql.push_str("INSERT INTO simulation VALUES ");
        for (k, i) in chunk.iter().enumerate() {
            let _ = write!(
                sql,
                "{}('{}', '{}', '{}', {}, {}, 3, 'Simulation {i} archived at {site}.')",
                if k == 0 { "" } else { ", " },
                key(site, *i),
                title(*i),
                author(site_no, *i),
                grid(*i),
                reynolds(site_no, *i),
            );
        }
        db.execute(&sql).expect("simulation rows");
    }
    db.execute("COMMIT").expect("commit");
    db.vacuum();
}

fn build_archive(sz: &Sizes) -> Archive {
    let mut b = Archive::builder()
        .file_server("fs1.example", paper_link_spec())
        // Download tokens must outlive a window of fast WAN time.
        .token_ttl(100_000_000);
    for site in SITES {
        b = b.federated_site(site, paper_link_spec());
    }
    let mut a = b.build();
    turbulence::install_schema(&mut a).expect("schema");
    seed_authors(&mut a.db);
    seed_partition(&mut a.db, "soton", 0, sz.local_sims);
    a.db.execute("BEGIN").expect("begin");
    let mut sql = String::new();
    for i in 0..sz.local_sims {
        sql.clear();
        sql.push_str("INSERT INTO result_file VALUES ");
        for t in 0..FILES {
            let _ = write!(
                sql,
                "{}('t{t:03}.edf', '{}', {t}, 'u,v,w,p', 'EDF', 85000000, NULL)",
                if t == 0 { "" } else { ", " },
                key("soton", i),
            );
        }
        a.db.execute(&sql).expect("result files");
    }
    a.db.execute("COMMIT").expect("commit");
    a.db.vacuum();
    let mut partitions = vec![Partition::new(None, &[])];
    for (n, site) in SITES.iter().enumerate() {
        let s = a.federation.site(site).expect("registered site");
        let mut db = s.db.borrow_mut();
        db.execute(REMOTE_SIM_DDL).expect("remote schema");
        seed_partition(&mut db, site, n + 1, sz.site_sims);
        drop(db);
        partitions.push(Partition::new(Some(site), &[]));
    }
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIMULATION", None, partitions)
        .expect("foreign table registers");
    a.federation.analyze(&mut a.db).expect("analyze");
    a.generate_xuis_federated(4);
    turbulence::attach_standard_operations(&mut a).expect("operations");
    a
}

/// A single database holding the union of the partitions, as
/// `tests/federation_*.rs` build their oracle.
fn build_oracle(sz: &Sizes) -> Database {
    let mut db = Database::new_in_memory();
    db.execute(REMOTE_SIM_DDL).expect("oracle schema");
    db.execute(
        "CREATE TABLE author (author_key VARCHAR(30) PRIMARY KEY, name VARCHAR(100) NOT NULL, \
         email VARCHAR(100), institution VARCHAR(200))",
    )
    .expect("oracle author");
    seed_authors(&mut db);
    seed_partition(&mut db, "soton", 0, sz.local_sims);
    for (n, site) in SITES.iter().enumerate() {
        seed_partition(&mut db, site, n + 1, sz.site_sims);
    }
    db
}

/// Every simulation of the federation as `(site, site_no, n)`.
fn partitions(sz: &Sizes) -> Vec<(&'static str, usize, usize)> {
    let mut v = vec![("soton", 0, sz.local_sims)];
    v.extend(
        SITES
            .iter()
            .enumerate()
            .map(|(n, s)| (*s, n + 1, sz.site_sims)),
    );
    v
}

fn count_titles(sz: &Sizes, prefix: &str) -> usize {
    partitions(sz)
        .iter()
        .map(|(_, _, n)| (0..*n).filter(|i| title(*i).starts_with(prefix)).count())
        .sum()
}

fn gen_script(seed: u64, sz: &Sizes) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = partitions(sz);
    // Each entry is one op, or the three ops of a walk (kept in order).
    let mut units: Vec<Vec<Op>> = Vec::new();
    let any_sim = |rng: &mut StdRng| {
        let (site, _, n) = parts[rng.gen_range(0..parts.len())];
        key(site, rng.gen_range(0..n))
    };
    let title_prefix = |rng: &mut StdRng| {
        let i = rng.gen_range(0..sz.site_sims);
        format!("{} turbulence run {}", TOPICS[i % TOPICS.len()], i / 10)
    };
    let fed = |class: &str, sql: String, rows: Option<usize>| Op {
        class: class_id(class),
        call: Call::Fed(sql),
        expect: Expect {
            status: 200,
            rows,
            min_body: 0,
        },
    };
    for (class, n) in MIX {
        for k in 0..n {
            let unit = match class {
                // Selective LIKE on the title, scattered to every site;
                // no AUTHOR_KEY returned, so no join leg.
                "fed.like_qbe" => {
                    let prefix = title_prefix(&mut rng);
                    vec![Op::http(
                        class,
                        RawRequest::post(
                            "/query/SIMULATION",
                            &[
                                ("ret_SIMULATION_KEY", "on"),
                                ("ret_TITLE", "on"),
                                ("ret_REYNOLDS", "on"),
                                ("val_TITLE", &format!("{prefix}%")),
                            ],
                        ),
                        Expect::rows(count_titles(sz, &prefix)),
                    )]
                }
                // Keyed browse to one simulation anywhere in the
                // federation (the statement carries the AUTHOR leg).
                "fed.fk_browse" => vec![Op::http(
                    class,
                    RawRequest::get(format!(
                        "/browse/fk/SIMULATION.SIMULATION_KEY?value={}",
                        any_sim(&mut rng)
                    )),
                    Expect::rows(1),
                )],
                // FK-substitute screen: AUTHOR_KEY is returned, so the
                // statement is a JOIN whose hub-local AUTHOR.NAME leg is
                // matched against the gathered SIMULATION rows.
                "fed.semijoin" => {
                    let prefix = title_prefix(&mut rng);
                    vec![Op::http(
                        class,
                        RawRequest::post(
                            "/query/SIMULATION",
                            &[
                                ("ret_TITLE", "on"),
                                ("ret_AUTHOR_KEY", "on"),
                                ("val_TITLE", &format!("{prefix}%")),
                            ],
                        ),
                        Expect::rows(count_titles(sz, &prefix)),
                    )]
                }
                // All simulations of one author: a third of every
                // partition is shipped, staged and rendered.
                "fed.author_pk" => {
                    let a = k % AUTHORS.len();
                    let rows: usize = parts
                        .iter()
                        .map(|(_, no, n)| {
                            (0..*n).filter(|i| author(*no, *i) == AUTHORS[a].0).count()
                        })
                        .sum();
                    vec![Op::http(
                        class,
                        RawRequest::get(format!(
                            "/browse/pk/SIMULATION.AUTHOR_KEY?value={}",
                            AUTHORS[a].0
                        )),
                        Expect::rows(rows),
                    )]
                }
                // Three clicks: a hub-local RESULT_FILE screen whose
                // rendering prefetches its SIMULATION links, then two
                // of those links (served from the prefetch cache unless
                // a write came between).
                "fed.walk1" => {
                    let first = rng.gen_range(0..sz.local_sims.saturating_sub(10).max(1));
                    let stem = key("soton", first);
                    let stem = &stem[..stem.len() - 1];
                    let sims: Vec<usize> = (0..sz.local_sims)
                        .filter(|i| key("soton", *i).starts_with(stem))
                        .collect();
                    let click = |class: &str, i: usize| {
                        Op::http(
                            class,
                            RawRequest::get(format!(
                                "/browse/fk/SIMULATION.SIMULATION_KEY?value={}",
                                key("soton", i)
                            )),
                            Expect::rows(1),
                        )
                    };
                    vec![
                        Op::http(
                            class,
                            RawRequest::post(
                                "/query/RESULT_FILE",
                                &[("val_SIMULATION_KEY", &format!("{stem}%"))],
                            ),
                            Expect::rows(sims.len() * FILES),
                        ),
                        click("fed.walk2", sims[0]),
                        click("fed.walk3", sims[sims.len().min(2) - 1]),
                    ]
                }
                "fed.group_by" => vec![fed(
                    class,
                    [
                        "SELECT GRID_SIZE, COUNT(*), AVG(REYNOLDS), MAX(REYNOLDS) FROM SIMULATION \
                         GROUP BY GRID_SIZE ORDER BY GRID_SIZE",
                        "SELECT AUTHOR_KEY, COUNT(*), MIN(REYNOLDS) FROM SIMULATION \
                         GROUP BY AUTHOR_KEY ORDER BY AUTHOR_KEY",
                    ][k % 2]
                        .to_string(),
                    Some(3),
                )],
                "fed.count" => {
                    // One row; its value is what the set-up oracle checks.
                    let re = 300 + rng.gen_range(0..997);
                    vec![fed(
                        class,
                        format!("SELECT COUNT(*) FROM SIMULATION WHERE REYNOLDS > {re}"),
                        Some(1),
                    )]
                }
                "fed.topk" => vec![fed(
                    class,
                    format!(
                        "SELECT SIMULATION_KEY, REYNOLDS FROM SIMULATION WHERE GRID_SIZE = {} \
                         ORDER BY REYNOLDS DESC, SIMULATION_KEY LIMIT 10",
                        grid(rng.gen_range(0..3))
                    ),
                    Some(10),
                )],
                other => unreachable!("class {other} has no generator"),
            };
            units.push(unit);
        }
    }
    shuffle(&mut units, &mut rng);
    units
}

/// The workload.
pub struct FedBrowse {
    portal: Portal,
    script: Vec<Op>,
    fed_reads: f64,
    agg_reads: f64,
}

impl FedBrowse {
    /// Build, seed, import the foreign table, generate the XUIS and the
    /// script, and compare each federated class once with the oracle.
    pub fn build(cfg: &Config) -> Self {
        let sz = Sizes {
            local_sims: cfg.scaled(500, 20),
            site_sims: cfg.scaled(2000, 100),
        };
        let twin = cfg.trace.then(|| build_archive(&sz));
        let script: Vec<Op> = gen_script(cfg.seed, &sz).into_iter().flatten().collect();
        let is_fed = |op: &Op| match &op.call {
            Call::Fed(_) => true,
            Call::Http(r) => r.url.contains("SIMULATION"),
        };
        let fed_reads = script.iter().filter(|o| is_fed(o)).count() as f64;
        let agg_reads = script
            .iter()
            .filter(|o| matches!(&o.call, Call::Fed(s) if s.contains("COUNT(")))
            .count() as f64;
        let mut w = FedBrowse {
            portal: Portal::new(build_archive(&sz), twin, &SITES),
            script,
            fed_reads,
            agg_reads,
        };
        w.check_against_oracle(&sz);
        w
    }

    /// One statement per federated class, federation vs a single
    /// database holding the union of the partitions. Runs on the
    /// instance itself, before any measurement (the staging merge
    /// leaves no rows behind).
    fn check_against_oracle(&mut self, sz: &Sizes) {
        let mut oracle = build_oracle(sz);
        let a = &mut self.portal.app.archive;
        let statements = [
            "SELECT SIMULATION_KEY, TITLE FROM SIMULATION WHERE TITLE LIKE 'Forced turbulence run 12%' ORDER BY SIMULATION_KEY",
            "SELECT T.SIMULATION_KEY, SUB0.NAME FROM SIMULATION T LEFT JOIN AUTHOR SUB0 ON T.AUTHOR_KEY = SUB0.AUTHOR_KEY WHERE T.SIMULATION_KEY = 'edin-00007'",
            "SELECT T.TITLE, SUB0.NAME FROM SIMULATION T LEFT JOIN AUTHOR SUB0 ON T.AUTHOR_KEY = SUB0.AUTHOR_KEY WHERE T.TITLE LIKE 'Sheared turbulence run 3%' ORDER BY T.SIMULATION_KEY",
            "SELECT COUNT(*) FROM SIMULATION WHERE AUTHOR_KEY = 'A2'",
            "SELECT GRID_SIZE, COUNT(*), AVG(REYNOLDS), MAX(REYNOLDS) FROM SIMULATION GROUP BY GRID_SIZE ORDER BY GRID_SIZE",
            "SELECT AUTHOR_KEY, COUNT(*), MIN(REYNOLDS) FROM SIMULATION GROUP BY AUTHOR_KEY ORDER BY AUTHOR_KEY",
            "SELECT COUNT(*) FROM SIMULATION WHERE REYNOLDS > 800",
            "SELECT SIMULATION_KEY, REYNOLDS FROM SIMULATION WHERE GRID_SIZE = 128 ORDER BY REYNOLDS DESC, SIMULATION_KEY LIMIT 10",
        ];
        for sql in statements {
            let fed = a
                .federation
                .query(&mut a.net, a.db_host, &mut a.db, None, sql, &[])
                .unwrap_or_else(|e| panic!("federated {sql}: {e}"));
            let want = oracle
                .execute(sql)
                .unwrap_or_else(|e| panic!("oracle {sql}: {e}"));
            assert_eq!(
                rows_text(&fed.rs.rows),
                rows_text(&want.rows),
                "federation disagrees with the single-database oracle on {sql}"
            );
        }
    }
}

impl Workload for FedBrowse {
    fn round(&mut self, rec: &mut Recorder, tr: &mut Tracer) {
        self.portal.login(rec, tr);
        for op in &self.script {
            self.portal.run(op, rec, tr);
        }
    }

    fn counters(&self) -> Counters {
        self.portal.counters()
    }

    fn script_digest(&self) -> String {
        script_digest(&self.script)
    }

    fn layer_counts(&self, d: &Counters, ops: f64, rep: &mut Report) {
        let rounds = crate::harness::DET_ROUNDS as f64;
        Portal::layer_counts(
            d,
            ops,
            self.fed_reads * rounds,
            self.agg_reads * rounds,
            rep,
        );
    }

    fn probes(&mut self, rep: &mut Report) {
        let twin = self.portal.twin.as_mut().expect("traced run has a twin");
        probes::run(&mut twin.archive, rep);
        probes::link_us(100, rep);
    }
}
