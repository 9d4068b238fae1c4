//! `ingest`: writes beside reads on a file-backed hub database.
//!
//! `Database::open(dir)` with `register_dl_functions`,
//! `add_observer(manager)` and `attach_metrics`, holding the paper's
//! five tables over a seeded base. Each round starts from a fresh copy
//! of the base directory, so per-op cost does not depend on how long
//! the run has been going: timed `open`, then the ingest commits (one
//! SIMULATION + five RESULT_FILE rows, each linking a file just put on
//! the file server; one `commit_txn` + fsync, a quarter of them inside
//! `begin/end_commit_window` groups of four), a snapshot read of
//! just-written rows per four commits, a `checkpoint()` per hundred
//! commits, the durability check with a timed `open_recovering`, and
//! one `vacuum()`. The only workload where WAL append/fsync, MVCC
//! version creation, checkpoint stalls, DLFM link control and recovery
//! do the work. Flush policy: the engine's own `sync_data` per commit
//! or window, unchanged.

use super::rows_text;
use crate::alloc;
use crate::harness::{Answer, Config, Counters, Recorder, Report, Workload};
use crate::metrics::class_id;
use crate::portal::probes;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use easia_core::turbulence;
use easia_crypto::sha256::{hex, sha256};
use easia_crypto::token::TokenIssuer;
use easia_datalink::functions::register_dl_functions;
use easia_datalink::{ArchiveClock, DataLinkManager};
use easia_db::{Database, Value};
use easia_fs::{FileContent, FileServer};
use easia_obs::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

const HOST: &str = "fs1.example";
/// RESULT_FILE rows (and linked files) per ingest commit.
const FILES: usize = 5;
/// Commits per group-commit window.
const WINDOW: usize = 4;
/// One window opens every this many commits (a quarter are grouped).
const WINDOW_EVERY: usize = 16;
/// Commits between checkpoints.
const CHECKPOINT_EVERY: usize = 100;
/// Commits between snapshot reads.
const READ_EVERY: usize = 4;

/// The paper's five tables. `RESULT_FILE.SIMULATION_KEY` is declared
/// without its `REFERENCES` clause: after any checkpoint of the paper's
/// schema `Database::open` fails with `Catalog("foreign key references
/// unknown table SIMULATION")`, because the snapshot loads RESULT_FILE
/// before SIMULATION (README, defect 2). To be removed once `db.rs` is
/// fixed.
const SCHEMA: [&str; 6] = [
    "CREATE TABLE author (
        author_key VARCHAR(30) PRIMARY KEY,
        name VARCHAR(100) NOT NULL,
        email VARCHAR(100),
        institution VARCHAR(200))",
    "CREATE TABLE simulation (
        simulation_key VARCHAR(30) PRIMARY KEY,
        title VARCHAR(200) NOT NULL,
        author_key VARCHAR(30) REFERENCES author(author_key),
        grid_size INTEGER,
        reynolds DOUBLE,
        timesteps INTEGER,
        description CLOB)",
    "CREATE TABLE result_file (
        file_name VARCHAR(100),
        simulation_key VARCHAR(30),
        timestep INTEGER,
        measurement VARCHAR(20),
        file_format VARCHAR(10),
        file_size INTEGER,
        download_result DATALINK LINKTYPE URL FILE LINK CONTROL
            INTEGRITY ALL READ PERMISSION DB WRITE PERMISSION BLOCKED
            RECOVERY YES ON UNLINK RESTORE,
        PRIMARY KEY (file_name, simulation_key))",
    "CREATE TABLE code_file (
        code_name VARCHAR(100) PRIMARY KEY,
        code_type VARCHAR(20),
        description CLOB,
        download_code_file DATALINK LINKTYPE URL FILE LINK CONTROL
            INTEGRITY ALL READ PERMISSION DB WRITE PERMISSION BLOCKED
            RECOVERY YES ON UNLINK RESTORE)",
    "CREATE TABLE visualisation_file (
        vis_name VARCHAR(100) PRIMARY KEY,
        file_name VARCHAR(100),
        simulation_key VARCHAR(30),
        description VARCHAR(200),
        image BLOB,
        FOREIGN KEY (file_name, simulation_key)
            REFERENCES result_file (file_name, simulation_key))",
    "CREATE INDEX idx_rf_sim ON result_file (simulation_key)",
];

/// One scripted ingest commit: the rows it writes.
struct Commit {
    sim: Vec<Value>,
    files: Vec<(String, u64, Vec<Value>)>, // (server path, size, row)
}

/// The file server, link manager and registry a round's database is
/// wired to. Fresh per round, like the database.
struct Site {
    registry: Registry,
    server: Rc<RefCell<FileServer>>,
    manager: Rc<DataLinkManager>,
}

impl Site {
    fn new() -> Self {
        let registry = Registry::new();
        let issuer = TokenIssuer::new(b"easia-archive-shared-secret", 3600);
        let manager = DataLinkManager::new(issuer.clone(), ArchiveClock::new());
        manager.attach_metrics(&registry);
        let server = Rc::new(RefCell::new(FileServer::new(HOST, issuer)));
        server.borrow_mut().attach_metrics(&registry);
        manager.register_server(server.clone());
        Site {
            registry,
            server,
            manager,
        }
    }

    fn wire(&self, db: &mut Database) {
        register_dl_functions(db.functions_mut());
        db.add_observer(self.manager.clone());
        db.attach_metrics(&self.registry);
    }
}

/// The workload.
pub struct Ingest {
    root: PathBuf,
    script: Vec<Commit>,
    base_rows: usize,
    /// Cumulative counters over every round so far (each round has its
    /// own database and registry).
    cum: Counters,
    open_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    vacuum_ms: Vec<f64>,
    recover_s: Vec<f64>,
    replay_rate: Vec<f64>,
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create round directory");
    for e in std::fs::read_dir(from).expect("read base directory") {
        let e = e.expect("directory entry");
        std::fs::copy(e.path(), to.join(e.file_name())).expect("copy database file");
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

fn encoded_len(row: &[Value]) -> u64 {
    let mut buf = Vec::new();
    easia_db::value::encode_row(row, &mut buf);
    buf.len() as u64
}

fn gen_script(seed: u64, commits: usize) -> Vec<Commit> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..commits)
        .map(|i| {
            let key = format!("N{i:05}");
            let sim = vec![
                Value::Str(key.clone()),
                Value::Str(format!("Ingested channel flow run {i}")),
                Value::Str("A1".into()),
                Value::Int(64i64 << rng.gen_range(0..3u32)),
                Value::Double(300.0 + rng.gen_range(0..700) as f64),
                Value::Int(FILES as i64),
                Value::Clob(format!("Run {i}, archived where it was generated.")),
            ];
            let files = (0..FILES)
                .map(|t| {
                    let name = format!("t{t:03}.edf");
                    let path = format!("/data/{key}/{name}");
                    let size = 80_000_000 + rng.gen_range(0..10_000_000u64);
                    let row = vec![
                        Value::Str(name),
                        Value::Str(key.clone()),
                        Value::Int(t as i64),
                        Value::Str("u,v,w,p".into()),
                        Value::Str("EDF".into()),
                        Value::Int(size as i64),
                        Value::Str(format!("http://{HOST}{path}")),
                    ];
                    (path, size, row)
                })
                .collect();
            Commit { sim, files }
        })
        .collect()
}

impl Ingest {
    /// Seed the base directory and generate the script.
    pub fn build(cfg: &Config) -> Self {
        let root = cfg.out_dir.join(format!("ingest-{}", std::process::id()));
        let base = root.join("base");
        let _ = std::fs::remove_dir_all(&root);
        let base_sims = cfg.scaled(5000, 20);
        let per_sim = 9; // + the simulation row = 10 rows per simulation
        let mut db = Database::open(&base).expect("open base directory");
        for ddl in SCHEMA {
            db.execute(ddl).expect("schema");
        }
        db.execute("INSERT INTO author VALUES ('A1', 'Mark Papiani', 'a1@soton.example', 'University of Southampton')")
            .expect("author");
        db.execute("BEGIN").expect("begin");
        let mut sql = String::new();
        for i in 0..base_sims {
            db.execute(&format!(
                "INSERT INTO simulation VALUES ('B{i:05}', 'Base channel flow run {i}', 'A1', 64, 395.0, {per_sim}, \
                 'Base simulation {i}.')"
            ))
            .expect("base simulation");
            sql.clear();
            sql.push_str("INSERT INTO result_file VALUES ");
            for t in 0..per_sim {
                let _ = write!(
                    sql,
                    "{}('t{t:03}.edf', 'B{i:05}', {t}, 'u,v,w,p', 'EDF', 85000000, NULL)",
                    if t == 0 { "" } else { ", " },
                );
            }
            db.execute(&sql).expect("base result files");
        }
        db.execute("COMMIT").expect("commit");
        db.checkpoint().expect("checkpoint base");
        drop(db);
        Ingest {
            root,
            script: gen_script(cfg.seed, cfg.scaled(300, 32)),
            base_rows: base_sims * (per_sim + 1),
            cum: Counters::new(),
            open_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
            vacuum_ms: Vec::new(),
            recover_s: Vec::new(),
            replay_rate: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.cum.entry(name).or_insert(0.0) += v;
    }
}

impl Drop for Ingest {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Record one ingest op. `error` is the failed check, if any.
fn record(rec: &mut Recorder, class: &str, ns: u64, rows: Option<usize>, error: Option<String>) {
    rec.op(Answer {
        class: class_id(class),
        ns,
        status: if error.is_none() { 200 } else { 500 },
        rows,
        body_len: 0,
        error,
    });
}

/// One ingest transaction: put the files, insert the rows, commit.
/// Returns the first error.
fn ingest_txn(
    db: &mut Database,
    site: &Site,
    c: &Commit,
    staged: bool,
    parent: Option<SpanId>,
    tr: &mut Tracer,
) -> Result<(), String> {
    for (path, size, _) in &c.files {
        site.server.borrow_mut().ingest(
            path,
            FileContent::Synthetic {
                size: *size,
                seed: 1,
            },
        );
    }
    let t = db.begin_txn();
    let mut insert = |db: &mut Database, sql: &str, row: &[Value]| {
        tr.time("easia-db.insert_us", parent, || db.txn_execute(t, sql, row))
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    insert(
        db,
        "INSERT INTO simulation VALUES (?, ?, ?, ?, ?, ?, ?)",
        &c.sim,
    )?;
    for (_, _, row) in &c.files {
        insert(
            db,
            "INSERT INTO result_file VALUES (?, ?, ?, ?, ?, ?, ?)",
            row,
        )?;
    }
    // Inside a window the commit is only staged; the window's end is
    // the flush that `easia-db.commit_us` times.
    let span = if staged {
        "easia-db.commit_staged"
    } else {
        "easia-db.commit_us"
    };
    tr.time(span, parent, || db.commit_txn(t))
        .map(|_| ())
        .map_err(|e| e.to_string())
}

impl Workload for Ingest {
    fn round(&mut self, rec: &mut Recorder, tr: &mut Tracer) {
        let dir = self.root.join("round");
        let wal = dir.join("wal.log");
        copy_dir(&self.root.join("base"), &dir);
        let site = Site::new();

        // Timed open of the base image.
        tr.next_op();
        let o = tr.begin("op.ingest", None);
        let opened = Database::open(&dir);
        let ns = tr.end(o);
        let mut db = match opened {
            Ok(db) => {
                record(rec, "ing.open", ns, None, None);
                db
            }
            Err(e) => {
                record(rec, "ing.open", ns, None, Some(e.to_string()));
                return;
            }
        };
        self.open_ms.push(ns as f64 / 1e6);
        site.wire(&mut db);
        let syncs0 = db.wal_syncs();

        // The in-memory oracle: every acknowledged row, and the log
        // length at the last acknowledgement.
        let mut acked: Vec<&Commit> = Vec::new();
        let mut acked_len = file_len(&wal);
        let (mut wal_bytes, mut ckpt_bytes, mut user_bytes) = (0u64, 0u64, 0u64);
        let (mut commits, mut checkpoints) = (0u64, 0u64);
        let n = self.script.len();
        let mut i = 0;
        while i < n {
            let grouped = i % WINDOW_EVERY == 0 && i + WINDOW <= n;
            let batch = if grouped { WINDOW } else { 1 };
            tr.next_op();
            let before = file_len(&wal);
            let a0 = alloc::snapshot();
            let o = tr.begin("op.ingest", None);
            let root = o.id();
            let mut result = Ok(());
            if grouped {
                db.begin_commit_window();
            }
            for c in &self.script[i..i + batch] {
                if result.is_ok() {
                    result = ingest_txn(&mut db, &site, c, grouped, root, tr);
                }
            }
            if grouped {
                let flushed = tr.time("easia-db.commit_us", root, || db.end_commit_window());
                if result.is_ok() {
                    result = match flushed {
                        Ok(k) if k == WINDOW as u64 => Ok(()),
                        Ok(k) => Err(format!("window flushed {k} commit(s)")),
                        Err(e) => Err(e.to_string()),
                    };
                }
            }
            let ns = tr.end(o);
            let a1 = alloc::snapshot();
            rec.allocs(a1.0 - a0.0, a1.1 - a0.1);
            if result.is_ok() {
                acked.extend(&self.script[i..i + batch]);
                acked_len = file_len(&wal);
                wal_bytes += acked_len - before;
                commits += batch as u64;
                for c in &self.script[i..i + batch] {
                    user_bytes += encoded_len(&c.sim);
                    user_bytes += c.files.iter().map(|f| encoded_len(&f.2)).sum::<u64>();
                }
            }
            record(
                rec,
                if grouped { "ing.window4" } else { "ing.commit" },
                ns,
                None,
                result.err(),
            );
            i += batch;

            // A snapshot read of rows just written.
            if i % READ_EVERY == 0 {
                let key = self.script[i - 1].sim[0].clone();
                tr.next_op();
                let o = tr.begin("op.ingest", None);
                let snap = db.begin_snapshot();
                let rs = db.snapshot_query(
                    snap,
                    "SELECT file_name, file_size FROM result_file WHERE simulation_key = ?",
                    &[key],
                );
                db.release_snapshot(snap);
                let ns = tr.end(o);
                let rows = rs.as_ref().ok().map(|r| r.rows.len());
                let error = match rs {
                    Ok(r) if r.rows.len() == FILES => None,
                    Ok(r) => Some(format!("{} row(s), expected {FILES}", r.rows.len())),
                    Err(e) => Some(e.to_string()),
                };
                record(rec, "ing.read", ns, rows, error);
            }

            // The crash copy is taken before the last checkpoint, while
            // the log still holds a hundred commits to replay.
            if i == n {
                let (ns, replayed, error) =
                    durability_check(&self.root, self.base_rows, &dir, acked_len, &acked, tr);
                if let Some(records) = replayed {
                    self.recover_s.push(ns as f64 / 1e9);
                    self.replay_rate.push(records as f64 / (ns as f64 / 1e9));
                }
                record(
                    rec,
                    "ing.recover",
                    ns,
                    Some(acked.len() * (FILES + 1)),
                    error,
                );
            }
            if i % CHECKPOINT_EVERY == 0 || i == n {
                tr.next_op();
                let o = tr.begin("op.ingest", None);
                let r = db.checkpoint();
                let ns = tr.end(o);
                self.checkpoint_ms.push(ns as f64 / 1e6);
                ckpt_bytes += file_len(&dir.join("snapshot.db"));
                checkpoints += 1;
                record(
                    rec,
                    "ing.checkpoint",
                    ns,
                    None,
                    r.err().map(|e| e.to_string()),
                );
            }
        }

        tr.next_op();
        let o = tr.begin("op.ingest", None);
        let v = db.vacuum();
        let ns = tr.end(o);
        self.vacuum_ms.push(ns as f64 / 1e6);
        record(rec, "ing.vacuum", ns, None, None);

        let value = |name: &str| site.registry.value(name, &[]).unwrap_or(0.0);
        let versions_created = value("easia_db_mvcc_versions_created_total");
        let versions_vacuumed = value("easia_db_mvcc_versions_vacuumed_total");
        let tokens = site.manager.tokens_issued() as f64;
        let syncs = (db.wal_syncs() - syncs0) as f64;
        let linked = site.server.borrow().store().len() as f64;
        drop(db);
        self.add("wal_bytes", wal_bytes as f64);
        self.add("checkpoint_bytes", ckpt_bytes as f64);
        self.add("checkpoints", checkpoints as f64);
        self.add("user_bytes", user_bytes as f64);
        self.add("commits", commits as f64);
        self.add("wal_syncs", syncs);
        self.add("versions_created", versions_created);
        self.add(
            "versions_vacuumed",
            versions_vacuumed.max(v.versions_removed as f64),
        );
        self.add("tokens", tokens);
        self.cum.insert("linked_files", linked);
    }

    fn counters(&self) -> Counters {
        self.cum.clone()
    }

    fn script_digest(&self) -> String {
        let rows: Vec<Vec<Value>> = self
            .script
            .iter()
            .flat_map(|c| std::iter::once(c.sim.clone()).chain(c.files.iter().map(|f| f.2.clone())))
            .collect();
        hex(&sha256(rows_text(&rows).as_bytes()))
    }

    fn layer_counts(&self, d: &Counters, ops: f64, rep: &mut Report) {
        let g = |k: &str| d.get(k).copied().unwrap_or(0.0);
        rep.derived(
            "wal_bytes_per_user_byte",
            (g("wal_bytes") + g("checkpoint_bytes")) / g("user_bytes"),
            format!(
                "({} wal B + {} checkpoint B) / {} encoded row B",
                g("wal_bytes"),
                g("checkpoint_bytes"),
                g("user_bytes")
            ),
        );
        rep.ratio("fsyncs_per_commit", g("wal_syncs"), g("commits"));
        rep.ratio("easia-db.group_batch_size", g("commits"), g("wal_syncs"));
        rep.ratio(
            "easia-db.wal_bytes_per_commit",
            g("wal_bytes"),
            g("commits"),
        );
        rep.ratio(
            "easia-db.checkpoint_bytes",
            g("checkpoint_bytes"),
            g("checkpoints"),
        );
        rep.ratio(
            "easia-db.versions_created_per_op",
            g("versions_created"),
            ops,
        );
        rep.set("easia-db.versions_vacuumed", g("versions_vacuumed"));
        rep.ratio("easia-datalink.tokens_per_op", g("tokens"), ops);
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let rounds = self.recover_s.len();
        rep.derived(
            "recovery_s",
            med(&self.recover_s),
            format!("median of {rounds} round(s)"),
        );
        rep.set("easia-db.open_ms", med(&self.open_ms));
        rep.set("easia-db.checkpoint_ms", med(&self.checkpoint_ms));
        rep.set("easia-db.vacuum_ms", med(&self.vacuum_ms));
        rep.set("easia-db.replay_records_per_s", med(&self.replay_rate));
    }

    fn probes(&mut self, rep: &mut Report) {
        let mut a = easia_core::Archive::builder()
            .file_server(HOST, easia_core::lan_link_spec())
            .build();
        turbulence::install_schema(&mut a).expect("schema");
        a.generate_xuis(4);
        probes::run(&mut a, rep);
        let linked = self.cum.get("linked_files").copied().unwrap_or(0.0);
        probes::link_us(linked as usize, rep);
    }
}

/// Durability, proven from outside: copy the directory as a crash would
/// leave it, cut the copy's log at the last acknowledged commit (the
/// operating system may lose anything after it), recover it, and require
/// every acknowledged row. Returns the wall ns of `open_recovering`, the
/// records it replayed, and the failed check if any.
fn durability_check(
    root: &Path,
    base_rows: usize,
    dir: &Path,
    acked_len: u64,
    acked: &[&Commit],
    tr: &mut Tracer,
) -> (u64, Option<usize>, Option<String>) {
    let crash = root.join("crash");
    copy_dir(dir, &crash);
    let cut = std::fs::OpenOptions::new()
        .write(true)
        .open(crash.join("wal.log"))
        .and_then(|f| f.set_len(acked_len));
    tr.next_op();
    let o = tr.begin("op.ingest", None);
    let recovered = Database::open_recovering(&crash);
    let ns = tr.end(o);
    match (cut, recovered) {
        (Err(e), _) => (ns, None, Some(format!("truncate crash log: {e}"))),
        (_, Err(e)) => (ns, None, Some(format!("open_recovering: {e}"))),
        (Ok(()), Ok((mut db, report))) => {
            register_dl_functions(db.functions_mut());
            let error = if report.corruption.is_some() {
                Some("recovery reported WAL corruption".into())
            } else {
                verify_recovered(&mut db, base_rows, acked).err()
            };
            (ns, Some(report.records_replayed), error)
        }
    }
}

/// Total row count, and the ingested rows themselves against the
/// in-memory oracle of acknowledged commits.
fn verify_recovered(db: &mut Database, base_rows: usize, acked: &[&Commit]) -> Result<(), String> {
    let mut query = |sql: &str| db.execute(sql).map(|rs| rs.rows).map_err(|e| e.to_string());
    let mut have_total = 0;
    for table in ["simulation", "result_file"] {
        let rows = query(&format!("SELECT COUNT(*) FROM {table}"))?;
        have_total += match rows.first().and_then(|r| r.first()) {
            Some(Value::Int(n)) => *n as usize,
            _ => 0,
        };
    }
    let want_total = base_rows + acked.len() * (FILES + 1);
    if have_total != want_total {
        return Err(format!(
            "{have_total} row(s) after recovery, expected {want_total}"
        ));
    }
    let sims = query(
        "SELECT simulation_key, title, author_key, grid_size, reynolds FROM simulation \
         WHERE simulation_key LIKE 'N%' ORDER BY simulation_key",
    )?;
    let files = query(
        "SELECT file_name, simulation_key, timestep, measurement, file_format, file_size, \
         DLURLCOMPLETE(download_result) FROM result_file \
         WHERE simulation_key LIKE 'N%' ORDER BY simulation_key, file_name",
    )?;
    let want_sims: Vec<Vec<Value>> = acked.iter().map(|c| c.sim[..5].to_vec()).collect();
    let want_files: Vec<Vec<Value>> = acked
        .iter()
        .flat_map(|c| c.files.iter().map(|f| f.2.clone()))
        .collect();
    if rows_text(&sims) != rows_text(&want_sims) || rows_text(&files) != rows_text(&want_files) {
        return Err(format!(
            "acknowledged rows differ after recovery: {} simulation(s), {} file(s) found",
            sims.len(),
            files.len()
        ));
    }
    Ok(())
}
