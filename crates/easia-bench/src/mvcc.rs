//! The MVCC harness behind `exp_e15_mvcc`: snapshot readers vs. a
//! concurrent metadata-ingest writer on the E14 open-loop portal.
//!
//! Two questions, one seeded run each:
//!
//! 1. **Correctness** — a scripted interleaving of snapshot readers and
//!    logically concurrent committing writers must return rows
//!    identical to a serial oracle that applies each transaction's
//!    accepted writes atomically at its commit point.
//! 2. **Throughput** — the E14 open-loop request mix runs while an
//!    ingest writer periodically holds a write transaction open over
//!    the hub catalog. With MVCC (this PR), browse and federated-scan
//!    requests run on snapshots and never wait for the writer, and the
//!    ingest batch group-commits with one WAL sync. The ablation models
//!    the pre-MVCC engine: readers queue behind the writer's lock until
//!    it commits (arriving work bunches into a burst that overflows the
//!    bounded admission queues), and every ingest transaction pays its
//!    own sync. Admitted scans/s at bounded p99 is the headline.
//!
//! Both modes digest bit-for-bit identically at the same seed.

use crate::load::{
    build_app, calibrate, gen_request, percentile, sorted, LoadConfig, Tally, SCAN_SHARE,
};
use crate::rig::{mix, Transcript};
use easia_db::{Database, TxnId, Value};
use easia_net::retry::unit_from;
use easia_web::http::Request;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parameters of one MVCC run.
#[derive(Debug, Clone)]
pub struct MvccConfig {
    /// Seed for the oracle schedule, arrivals and request mix.
    pub seed: u64,
    /// Steps in the scripted oracle interleaving.
    pub oracle_ops: usize,
    /// Closed-loop federated queries used to measure scan service time.
    pub calibration_requests: usize,
    /// Open-loop arrivals in the measured phase.
    pub phase_requests: usize,
    /// Ingest transactions batched per group-commit window.
    pub ingest_txns: usize,
    /// Rows inserted by each ingest transaction.
    pub rows_per_txn: usize,
    /// MVCC on (false = the single-transaction ablation: readers queue
    /// behind the writer, commits sync solo).
    pub mvcc: bool,
    /// Portal sizing, forwarded to the E14 harness.
    pub sites: usize,
    /// Remote simulations per site.
    pub sims_per_site: usize,
    /// Guest sessions.
    pub guests: usize,
    /// Researcher sessions.
    pub researchers: usize,
}

impl MvccConfig {
    /// The default scenario: the E14 portal, 600 arrivals at 1x scan
    /// capacity, ingest windows of 4 transactions x 8 rows.
    pub fn standard(seed: u64) -> Self {
        MvccConfig {
            seed,
            oracle_ops: 300,
            calibration_requests: 20,
            phase_requests: 600,
            ingest_txns: 4,
            rows_per_txn: 8,
            mvcc: true,
            sites: 2,
            sims_per_site: 8,
            guests: 8,
            researchers: 8,
        }
    }
}

/// Everything an MVCC run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct MvccResult {
    /// Snapshot reads checked against the serial oracle.
    pub oracle_reads: usize,
    /// Reads whose rows differed from the oracle (must be 0).
    pub oracle_mismatches: usize,
    /// Measured mean federated-scan service time (s).
    pub mean_scan_service: f64,
    /// Scan-class capacity (requests per simulated second).
    pub scan_capacity: f64,
    /// Scan-class requests admitted.
    pub admitted_scans: usize,
    /// Scan-class requests shed with 503 + Retry-After.
    pub shed_scans: usize,
    /// Admitted scan throughput over the phase (requests per simulated
    /// second of arrival time).
    pub admitted_scans_per_s: f64,
    /// 99th-percentile scan queue delay of admitted requests (s).
    pub p99_queue_delay: f64,
    /// 99th-percentile scan end-to-end latency including any wait for
    /// the ingest writer's lock (s; the lock wait is 0 under MVCC).
    pub p99_latency: f64,
    /// Ingest transactions committed.
    pub ingest_commits: usize,
    /// Rows ingested.
    pub ingest_rows: usize,
    /// WAL syncs paid by ingest commits (group-commit windows under
    /// MVCC, one per transaction in the ablation).
    pub ingest_syncs: u64,
    /// Ingest group-commit windows run.
    pub ingest_windows: usize,
    /// Human-readable log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Metrics registry snapshot at the end of the run.
    pub metrics_snapshot: String,
}

// ---- part 1: scripted serial-oracle interleaving ----

/// A write accepted by the engine, replayed into the oracle at commit.
enum BufOp {
    Put(i64, i64),
    Del(i64),
}

/// Run the seeded interleaving of snapshot readers and committing
/// writers on a scratch database, checking every snapshot read against
/// the serial oracle. Returns (reads, mismatches) and logs each check.
fn run_oracle(seed: u64, ops: usize, log: &mut Transcript) -> (usize, usize) {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE ORACLE_T (K INTEGER PRIMARY KEY, V INTEGER)")
        .expect("oracle schema");
    let mut writers: Vec<Option<(TxnId, Vec<BufOp>)>> = vec![None, None];
    let mut snaps: Vec<Option<(easia_db::SnapshotId, BTreeMap<i64, i64>)>> = vec![None, None];
    let mut committed: BTreeMap<i64, i64> = BTreeMap::new();
    let (mut reads, mut mismatches) = (0usize, 0usize);

    for n in 0..ops {
        let h = mix(seed, 0x0AC1_E000, n as u64);
        let slot = (h >> 8) as usize % 2;
        let k = ((h >> 16) % 8) as i64;
        let v = ((h >> 24) % 1000) as i64;
        match h % 16 {
            // Writers: begin / write / commit / rollback.
            0 => {
                if let Some(w) = writers.iter_mut().find(|w| w.is_none()) {
                    *w = Some((db.begin_txn(), Vec::new()));
                }
            }
            1..=6 => {
                if let Some((t, buf)) = writers[slot].as_mut() {
                    let t = *t;
                    let (sql, op) = match (h >> 12) % 3 {
                        0 => (
                            format!("INSERT INTO ORACLE_T VALUES ({k}, {v})"),
                            BufOp::Put(k, v),
                        ),
                        1 => (
                            format!("UPDATE ORACLE_T SET V = {v} WHERE K = {k}"),
                            BufOp::Put(k, v),
                        ),
                        _ => (format!("DELETE FROM ORACLE_T WHERE K = {k}"), BufOp::Del(k)),
                    };
                    match db.txn_execute(t, &sql, &[]) {
                        Ok(rs) if (h >> 12).is_multiple_of(3) || rs.affected > 0 => buf.push(op),
                        Ok(_) | Err(_) => {} // no-op match, or conflict: rejected both sides
                    }
                }
            }
            7 | 8 => {
                if let Some((t, buf)) = writers[slot].take() {
                    db.commit_txn(t).expect("oracle commit");
                    for b in buf {
                        match b {
                            BufOp::Put(k, v) => {
                                committed.insert(k, v);
                            }
                            BufOp::Del(k) => {
                                committed.remove(&k);
                            }
                        }
                    }
                }
            }
            9 => {
                if let Some((t, _)) = writers[slot].take() {
                    db.rollback_txn(t).expect("oracle rollback");
                }
            }
            // Snapshots: open / read-and-check / release.
            10 | 11 => {
                if let Some(s) = snaps.iter_mut().find(|s| s.is_none()) {
                    *s = Some((db.begin_snapshot(), committed.clone()));
                }
            }
            12..=14 => {
                if let Some((snap, frozen)) = snaps[slot].as_ref() {
                    let rs = db
                        .snapshot_query(*snap, "SELECT K, V FROM ORACLE_T ORDER BY K", &[])
                        .expect("oracle snapshot read");
                    let want: Vec<Vec<Value>> = frozen
                        .iter()
                        .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                        .collect();
                    reads += 1;
                    let ok = rs.rows == want;
                    if !ok {
                        mismatches += 1;
                    }
                    let _ = writeln!(
                        log,
                        "oracle n={n} snap={} rows={} match={}",
                        slot,
                        rs.rows.len(),
                        ok
                    );
                }
            }
            _ => {
                if h & 0x40 != 0 {
                    if let Some((snap, _)) = snaps[slot].take() {
                        db.release_snapshot(snap);
                    }
                }
                let st = db.vacuum();
                let _ = writeln!(
                    log,
                    "oracle n={n} vacuum removed={} frozen={}",
                    st.versions_removed, st.versions_frozen
                );
            }
        }
    }
    // Drain and check the final image once more.
    for w in writers.iter_mut() {
        if let Some((t, _)) = w.take() {
            db.rollback_txn(t).expect("oracle drain rollback");
        }
    }
    for s in snaps.iter_mut() {
        if let Some((snap, _)) = s.take() {
            db.release_snapshot(snap);
        }
    }
    db.vacuum();
    let rs = db
        .execute("SELECT K, V FROM ORACLE_T ORDER BY K")
        .expect("oracle final read");
    let want: Vec<Vec<Value>> = committed
        .iter()
        .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
        .collect();
    reads += 1;
    if rs.rows != want {
        mismatches += 1;
    }
    let _ = writeln!(
        log,
        "oracle final rows={} match={}",
        rs.rows.len(),
        rs.rows == want
    );
    (reads, mismatches)
}

// ---- part 2: open-loop portal load vs. a concurrent ingest writer ----

/// An ingest window: transactions begun (and their rows written) at the
/// window's start, committed together at `end`.
struct Window {
    end: f64,
    txns: Vec<TxnId>,
}

/// The ingest writer's books.
#[derive(Default)]
struct Ingest {
    commits: usize,
    /// Rows committed so far (every transaction carries `rows_per_txn`).
    rows: usize,
    syncs: u64,
    windows: usize,
    next_key: i64,
}

impl Ingest {
    /// Open a window: begin the batch's transactions and write their
    /// rows; they stay uncommitted until the window closes.
    fn open(
        &mut self,
        db: &mut Database,
        log: &mut Transcript,
        cfg: &MvccConfig,
        start: f64,
        end: f64,
    ) -> Window {
        let window = self.windows;
        let mut txns = Vec::new();
        for _ in 0..cfg.ingest_txns {
            let t = db.begin_txn();
            for _ in 0..cfg.rows_per_txn {
                let k = self.next_key;
                self.next_key += 1;
                db.txn_execute(
                    t,
                    &format!(
                        "INSERT INTO INGEST_LOG VALUES ({k}, {window}, 'run {window} row {k}')"
                    ),
                    &[],
                )
                .expect("ingest insert");
            }
            txns.push(t);
        }
        let _ = writeln!(
            log,
            "ingest window={window} open t={start:.6} end={end:.6} txns={}",
            txns.len()
        );
        self.windows += 1;
        Window { end, txns }
    }

    /// Close a window: group-commit under MVCC (one sync for the
    /// batch), solo commits in the ablation (one sync each).
    fn close(&mut self, db: &mut Database, log: &mut Transcript, cfg: &MvccConfig, w: Window) {
        let before = db.wal_syncs();
        let n = w.txns.len();
        if cfg.mvcc {
            db.begin_commit_window();
            for t in &w.txns {
                db.commit_txn(*t).expect("group commit");
            }
            let batched = db.end_commit_window().expect("window flush");
            assert_eq!(batched as usize, n, "every committer batched");
        } else {
            for t in &w.txns {
                db.commit_txn(*t).expect("solo commit");
            }
        }
        let delta = db.wal_syncs() - before;
        self.commits += n;
        self.rows += n * cfg.rows_per_txn;
        self.syncs += delta;
        let _ = writeln!(log, "ingest close t={:.6} commits={n} syncs={delta}", w.end);
    }
}

/// Run the oracle check plus the portal phase for `cfg`.
pub fn run_mvcc(cfg: &MvccConfig) -> MvccResult {
    let mut log = Transcript::default();
    let _ = writeln!(
        log,
        "mvcc seed={} oracle_ops={} phase_requests={} ingest_txns={} rows_per_txn={} mvcc={}",
        cfg.seed, cfg.oracle_ops, cfg.phase_requests, cfg.ingest_txns, cfg.rows_per_txn, cfg.mvcc
    );

    let (oracle_reads, oracle_mismatches) = run_oracle(cfg.seed, cfg.oracle_ops, &mut log);
    let _ = writeln!(
        log,
        "oracle reads={oracle_reads} mismatches={oracle_mismatches}"
    );

    // The portal under test is the E14 scenario verbatim; admission is
    // always on (E15 varies the storage engine, not the front door).
    let lc = LoadConfig {
        seed: cfg.seed,
        sites: cfg.sites,
        sims_per_site: cfg.sims_per_site,
        guests: cfg.guests,
        researchers: cfg.researchers,
        calibration_requests: cfg.calibration_requests,
        phase_requests: cfg.phase_requests,
        admission: true,
    };
    let (mut app, sessions, urls, datasets) = build_app(&lc);
    app.archive
        .db
        .execute(
            "CREATE TABLE INGEST_LOG (K INTEGER PRIMARY KEY, BATCH INTEGER, \
             PAYLOAD VARCHAR(60))",
        )
        .expect("ingest schema");

    // Calibration (closed loop), as in E14.
    let (mean_scan_service, scan_capacity) = calibrate(
        &mut app,
        &sessions,
        (cfg.seed, 0xE15_CA11),
        cfg.calibration_requests,
        &mut log,
    );
    let rate = scan_capacity / SCAN_SHARE; // 1x the scan class's capacity

    // Ingest windows: the writer holds its transactions open for 6 mean
    // scan services out of every 12 — a 50% write duty cycle.
    let hold = 6.0 * mean_scan_service;
    let interval = 12.0 * mean_scan_service;

    let mut arrival = app.archive.net.now();
    let phase_t0 = arrival;
    let mut next_start = arrival;
    let mut open: Option<Window> = None;
    let mut ingest = Ingest::default();
    let mut tally = Tally::default();

    for n in 0..cfg.phase_requests {
        let h = mix(cfg.seed, 0xE15, n as u64);
        let u = unit_from(cfg.seed ^ 0xE150_0000, n as u64);
        arrival += -(1.0 - u).ln() / rate;

        // Advance the ingest writer to this arrival.
        if let Some(w) = open.take_if(|w| arrival >= w.end) {
            ingest.close(&mut app.archive.db, &mut log, cfg, w);
        }
        while open.is_none() && next_start <= arrival {
            let (start, end) = (next_start, next_start + hold);
            let w = ingest.open(&mut app.archive.db, &mut log, cfg, start, end);
            next_start += interval;
            if arrival >= end {
                ingest.close(&mut app.archive.db, &mut log, cfg, w);
            } else {
                open = Some(w);
            }
        }

        // MVCC: a latest read sees only committed ingest rows even
        // while the writer's transactions sit open.
        if cfg.mvcc && open.is_some() {
            let rs = app
                .archive
                .db
                .execute("SELECT COUNT(*) FROM INGEST_LOG")
                .expect("ingest count");
            assert_eq!(
                rs.scalar(),
                Some(&Value::Int(ingest.rows as i64)),
                "open ingest transactions must stay invisible"
            );
        }

        // The ablation queues every reader behind the writer's lock.
        let lock_wait = Some(match (&open, cfg.mvcc) {
            (Some(w), false) => w.end - arrival,
            _ => 0.0,
        });

        let s = &sessions[(h >> 40) as usize % sessions.len()];
        let req = gen_request(h, s, &urls, &datasets);
        let who = format!("n={n}");
        tally.serve(&mut app, &mut log, &who, req, arrival, lock_wait);
    }
    // Close any window still open so the run ends quiesced.
    if let Some(w) = open.take() {
        ingest.close(&mut app.archive.db, &mut log, cfg, w);
    }
    let rs = app
        .archive
        .db
        .execute("SELECT COUNT(*) FROM INGEST_LOG")
        .expect("final ingest count");
    assert_eq!(
        rs.scalar(),
        Some(&Value::Int(ingest.rows as i64)),
        "every committed ingest row is visible after quiesce"
    );

    let duration = (arrival - phase_t0).max(1.0e-9);
    let (admitted_scans, shed_scans) = (tally.admitted[1], tally.shed[1]);
    let p99_queue_delay = percentile(&sorted(tally.delays[1].clone()), 0.99);
    let p99_latency = percentile(&sorted(tally.latencies[1].clone()), 0.99);
    let _ = writeln!(
        log,
        "scan admitted={admitted_scans} shed={shed_scans} p99_delay={p99_queue_delay:.6} \
         p99_latency={p99_latency:.6} ingest commits={} rows={} syncs={} windows={}",
        ingest.commits, ingest.rows, ingest.syncs, ingest.windows
    );

    let metrics = app.handle(Request::get("/metrics")).body_text();
    let (digest, metrics_snapshot, transcript) = log.seal(Some(metrics));
    MvccResult {
        oracle_reads,
        oracle_mismatches,
        mean_scan_service,
        scan_capacity,
        admitted_scans,
        shed_scans,
        admitted_scans_per_s: admitted_scans as f64 / duration,
        p99_queue_delay,
        p99_latency,
        ingest_commits: ingest.commits,
        ingest_rows: ingest.rows,
        ingest_syncs: ingest.syncs,
        ingest_windows: ingest.windows,
        transcript,
        digest,
        metrics_snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, mvcc: bool) -> MvccConfig {
        MvccConfig {
            oracle_ops: 120,
            calibration_requests: 8,
            phase_requests: 150,
            sims_per_site: 5,
            guests: 5,
            researchers: 5,
            mvcc,
            ..MvccConfig::standard(seed)
        }
    }

    #[test]
    fn same_seed_runs_digest_identically() {
        let a = run_mvcc(&small(15, true));
        let b = run_mvcc(&small(15, true));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert_eq!(a.oracle_mismatches, 0, "oracle agrees: {}", a.transcript);
        assert!(a.oracle_reads > 10, "schedule exercises snapshot reads");
        for family in [
            "easia_db_mvcc_open_snapshots",
            "easia_db_mvcc_versions_created_total",
            "easia_db_mvcc_versions_vacuumed_total",
            "easia_db_mvcc_write_conflicts_total",
            "easia_db_mvcc_group_commit_batch_size",
            "easia_db_wal_fsyncs_total",
        ] {
            assert!(
                a.metrics_snapshot.contains(family),
                "missing {family} in snapshot"
            );
        }
    }

    #[test]
    fn snapshots_beat_the_single_transaction_ablation() {
        let on = run_mvcc(&small(16, true));
        let off = run_mvcc(&small(16, false));
        assert_eq!(on.oracle_mismatches, 0);
        // Group commit: one sync per window, not per transaction.
        assert_eq!(on.ingest_syncs, on.ingest_windows as u64);
        assert_eq!(off.ingest_syncs, off.ingest_commits as u64);
        assert!(on.ingest_commits > on.ingest_windows, "batches batch");
        // Readers never wait for the writer, so admitted throughput is
        // higher and tail latency lower than the ablation's.
        assert!(
            on.admitted_scans > off.admitted_scans,
            "MVCC admits more scans: {} vs {}",
            on.admitted_scans,
            off.admitted_scans
        );
        assert!(
            on.p99_latency < off.p99_latency,
            "MVCC bounds scan p99: {:.2}s vs {:.2}s",
            on.p99_latency,
            off.p99_latency
        );
    }
}
