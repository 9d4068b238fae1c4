//! `hub_browse`: the hub-only portal over a catalogue ~100x the demo.
//!
//! 4,000 SIMULATION × 50 RESULT_FILE = 200,000 metadata rows seeded
//! with NULL DATALINKs (a linked INSERT costs time linear in the files
//! already linked — README, defect 1), plus 60 simulations × 10 really
//! linked files so result screens mint tokens. `easia-web`, the
//! `easia-db` read path, `easia-xuis`, `easia-datalink` and
//! `easia-crypto` do all the work; `easia-med`, `easia-net` and the WAL
//! do none. Cheap navigations set `p50_ms`; the two scans set
//! `ops_per_s` and `p99_ms`.

use super::{seed_authors, shuffle, AUTHORS, TOPICS};
use crate::harness::{Config, Counters, Recorder, Report, Workload};
use crate::portal::{probes, script_digest, Expect, Op, Portal, RawRequest};
use crate::trace::Tracer;
use easia_core::{paper_link_spec, turbulence, Archive};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const HOST: &str = "fs1.example";
/// RESULT_FILE rows per bulk simulation.
const FILES: usize = 50;
/// Really linked files per linked simulation.
const LINKED_FILES: usize = 10;

/// Ops per round by class; a round also opens with one login.
const MIX: [(&str, usize); 9] = [
    ("hub.tables", 10),
    ("hub.qbe_form", 10),
    ("hub.qbe_indexed", 60),
    ("hub.pk_browse", 40),
    ("hub.fk_browse", 30),
    ("hub.join_qbe", 20),
    ("hub.lob", 18),
    ("hub.composite_pk", 6),
    ("hub.like_scan", 6),
];

/// Catalogue sizes (divided by 50 under `--smoke`).
struct Sizes {
    sims: usize,
    linked_sims: usize,
}

fn sim_key(i: usize) -> String {
    format!("S{i:05}")
}

fn linked_key(i: usize) -> String {
    format!("L{i:04}")
}

fn title(i: usize) -> String {
    format!("{} turbulence run {i}", TOPICS[i % TOPICS.len()])
}

/// The workload.
pub struct HubBrowse {
    portal: Portal,
    script: Vec<Op>,
    linked_files: usize,
}

fn build_archive(sz: &Sizes) -> Archive {
    let mut a = Archive::builder()
        .file_server(HOST, paper_link_spec())
        .build();
    turbulence::install_schema(&mut a).expect("schema");
    let db = &mut a.db;
    seed_authors(db);
    db.execute("BEGIN").expect("begin");
    let mut sql = String::new();
    for i in 0..sz.sims {
        let key = sim_key(i);
        db.execute(&format!(
            "INSERT INTO simulation VALUES ('{key}', '{}', '{}', {}, {}, {FILES}, \
             'Direct numerical simulation of turbulent channel flow, run {i} of the benchmark archive.')",
            title(i),
            AUTHORS[i % AUTHORS.len()].0,
            64 << (i % 3),
            360.0 + (i % 500) as f64,
        ))
        .expect("simulation");
        sql.clear();
        sql.push_str("INSERT INTO result_file VALUES ");
        for t in 0..FILES {
            let _ = write!(
                sql,
                "{}('t{t:03}.edf', '{key}', {t}, 'u,v,w,p', 'EDF', {}, NULL)",
                if t == 0 { "" } else { ", " },
                85_000_000 + t,
            );
        }
        db.execute(&sql).expect("result files");
    }
    db.execute("COMMIT").expect("commit");
    // Freeze the seeded versions: a steady-state catalogue has an empty
    // version map, and scans pay for every entry in it.
    db.vacuum();
    for i in 0..sz.linked_sims {
        let key = linked_key(i);
        a.db.execute(&format!(
            "INSERT INTO simulation VALUES ('{key}', 'Linked channel flow run {i}', 'A1', 32, 395.0, {LINKED_FILES}, \
             'Simulation {i} whose result files are really linked.')"
        ))
        .expect("linked simulation");
        for t in 0..LINKED_FILES as u32 {
            turbulence::ingest_synthetic(&mut a, HOST, &key, t, 85_000_000, i as u64)
                .expect("linked file");
        }
    }
    a.generate_xuis(4);
    turbulence::attach_standard_operations(&mut a).expect("operations");
    a
}

fn gen_script(seed: u64, sz: &Sizes) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let sim = |rng: &mut StdRng| rng.gen_range(0..sz.sims);
    for (class, n) in MIX {
        for k in 0..n {
            let op = match class {
                "hub.tables" => {
                    Op::http(class, RawRequest::get("/tables".into()), Expect::body(200))
                }
                "hub.qbe_form" => {
                    let t = ["RESULT_FILE", "SIMULATION"][k % 2];
                    Op::http(
                        class,
                        RawRequest::get(format!("/query/{t}")),
                        Expect::body(500),
                    )
                }
                // A third of the indexed searches hit a linked
                // simulation, whose screen mints ten access tokens.
                "hub.qbe_indexed" => {
                    let (key, rows) = if k % 3 == 0 {
                        (linked_key(rng.gen_range(0..sz.linked_sims)), LINKED_FILES)
                    } else {
                        (sim_key(sim(&mut rng)), FILES)
                    };
                    Op::http(
                        class,
                        RawRequest::post("/query/RESULT_FILE", &[("val_SIMULATION_KEY", &key)]),
                        Expect::rows(rows),
                    )
                }
                "hub.pk_browse" => Op::http(
                    class,
                    RawRequest::get(format!(
                        "/browse/pk/RESULT_FILE.SIMULATION_KEY?value={}",
                        sim_key(sim(&mut rng))
                    )),
                    Expect::rows(FILES),
                ),
                "hub.fk_browse" => Op::http(
                    class,
                    RawRequest::get(format!(
                        "/browse/fk/SIMULATION.SIMULATION_KEY?value={}",
                        sim_key(sim(&mut rng))
                    )),
                    Expect::rows(1),
                ),
                // LIKE on a non-indexed column with the AUTHOR.NAME
                // substitute joined in: a heap scan of SIMULATION.
                "hub.join_qbe" => {
                    let i = sim(&mut rng);
                    let prefix = format!("{} turbulence run {}", TOPICS[i % TOPICS.len()], i / 10);
                    let rows = (0..sz.sims)
                        .filter(|j| title(*j).starts_with(&prefix))
                        .count();
                    Op::http(
                        class,
                        RawRequest::post(
                            "/query/SIMULATION",
                            &[
                                ("ret_SIMULATION_KEY", "on"),
                                ("ret_TITLE", "on"),
                                ("ret_AUTHOR_KEY", "on"),
                                ("val_TITLE", &format!("{prefix}%")),
                            ],
                        ),
                        Expect::rows(rows),
                    )
                }
                "hub.lob" => Op::http(
                    class,
                    RawRequest::get(format!(
                        "/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY={}",
                        sim_key(sim(&mut rng))
                    )),
                    Expect::body(60),
                ),
                // Equality on both primary-key columns: one row, found
                // through the index's leading column only (defect 3).
                "hub.composite_pk" => Op::http(
                    class,
                    RawRequest::post(
                        "/query/RESULT_FILE",
                        &[
                            (
                                "val_FILE_NAME",
                                &format!("t{:03}.edf", rng.gen_range(0..FILES)),
                            ),
                            ("val_SIMULATION_KEY", &sim_key(sim(&mut rng))),
                        ],
                    ),
                    Expect::rows(1),
                ),
                // A key prefix shared by (up to) 100 simulations: a heap
                // scan of RESULT_FILE returning ~5,000 rows.
                "hub.like_scan" => {
                    let key = sim_key(sim(&mut rng));
                    let prefix = &key[..key.len() - 2];
                    let rows = (0..sz.sims)
                        .filter(|j| sim_key(*j).starts_with(prefix))
                        .count()
                        * FILES;
                    Op::http(
                        class,
                        RawRequest::post(
                            "/query/RESULT_FILE",
                            &[
                                ("ret_FILE_NAME", "on"),
                                ("ret_SIMULATION_KEY", "on"),
                                ("ret_TIMESTEP", "on"),
                                ("ret_FILE_SIZE", "on"),
                                ("val_SIMULATION_KEY", &format!("{prefix}%")),
                            ],
                        ),
                        Expect::rows(rows),
                    )
                }
                other => unreachable!("class {other} has no generator"),
            };
            ops.push(op);
        }
    }
    shuffle(&mut ops, &mut rng);
    ops
}

impl HubBrowse {
    /// Build, seed, generate the XUIS and the script.
    pub fn build(cfg: &Config) -> Self {
        let sz = Sizes {
            sims: cfg.scaled(1000, 20),
            linked_sims: cfg.scaled(60, 3),
        };
        let twin = cfg.trace.then(|| build_archive(&sz));
        HubBrowse {
            portal: Portal::new(build_archive(&sz), twin, &[]),
            script: gen_script(cfg.seed, &sz),
            linked_files: sz.linked_sims * LINKED_FILES,
        }
    }
}

impl Workload for HubBrowse {
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
        Portal::layer_counts(d, ops, 0.0, 0.0, rep);
    }

    fn probes(&mut self, rep: &mut Report) {
        let twin = self.portal.twin.as_mut().expect("traced run has a twin");
        probes::run(&mut twin.archive, rep);
        probes::link_us(self.linked_files, rep);
    }
}
