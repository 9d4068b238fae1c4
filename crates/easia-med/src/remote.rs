//! The site-side remote-scan executor.
//!
//! Each foreign server runs one of these against its local `easia-db`
//! instance: decode the scan request, execute the pushed-down SQL, and
//! frame the result rows into bounded batches for shipment back to the
//! hub ([`serve_scan`], which the hub's pump calls with the very frame
//! it put on the wire). It is deliberately thin — all planning lives at
//! the hub, a site just runs the SELECT it is handed.

use crate::wire::{batch_header, encode_batch, ScanRequest, WireError, BATCH_COUNT_AT};
use easia_db::value::{decode_row, encode_row};
use easia_db::{Database, DbError, Value};
use std::convert::Infallible;

/// Default rows per shipped batch frame.
pub const DEFAULT_BATCH_ROWS: usize = 64;

/// Site-side execution failures.
#[derive(Debug)]
pub enum RemoteError {
    /// Request frame was malformed.
    Wire(WireError),
    /// The pushed SQL failed at the site.
    Db(DbError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Wire(e) => write!(f, "remote scan: {e}"),
            RemoteError::Db(e) => write!(f, "remote scan: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// Run a decoded scan request against the database `db`, lending each
/// result row's record to `each` as the executor produces it.
pub fn scan_each(db: &Database, req: &ScanRequest, each: impl FnMut(&[u8])) -> Result<(), DbError> {
    db.execute_each(&req.to_sql(), &req.effective_params(), each)
}

/// Execute a decoded scan request against the site database, returning
/// the result rows.
pub fn scan_rows(db: &mut Database, req: &ScanRequest) -> Result<Vec<Vec<Value>>, RemoteError> {
    let (mut rows, mut decoded) = (Vec::new(), Ok(()));
    let scanned = scan_each(db, req, |row| {
        if decoded.is_ok() {
            decoded = decode_row(row, &mut 0).map(|row| rows.push(row));
        }
    });
    scanned.and(decoded).map_err(RemoteError::Db)?;
    Ok(rows)
}

/// A site serving one wire-encoded scan request end to end: decode the
/// EMQ1 frame, run the scan and frame each row the executor lends into
/// batches of at most `batch_rows`, honouring the request's resume
/// cursor and stamping the site's write counter. The hub's in-process
/// sites are served through this too, so every field the hub encodes is
/// one a site decodes.
pub fn serve_scan(
    db: &mut Database,
    frame: &[u8],
    batch_rows: usize,
) -> Result<Vec<Vec<u8>>, RemoteError> {
    let req = ScanRequest::decode(frame).map_err(RemoteError::Wire)?;
    framed(batch_rows, req.resume_from, db.write_counter(), |each| {
        scan_each(db, &req, each)
    })
    .map_err(RemoteError::Db)
}

/// Chunk rows into encoded batch frames, skipping the first
/// `resume_from` batches (a resumed scan re-ships only what the hub is
/// missing — sequence numbers still reflect the position in the *full*
/// stream). A fresh scan always yields at least one frame so the hub
/// can distinguish "empty result" from "no reply".
pub fn frame_batches(
    rows: &[Vec<Value>],
    batch_rows: usize,
    resume_from: u64,
    write_counter: u64,
) -> Vec<Vec<u8>> {
    let Ok(frames) = framed::<Infallible>(batch_rows, resume_from, write_counter, |each| {
        let mut record = Vec::new();
        for row in rows {
            record.clear();
            encode_row(row, &mut record);
            each(&record);
        }
        Ok(())
    });
    frames
}

/// [`frame_batches`] over the records of the rows `scan` lends, as they
/// come: each is appended to the frame being filled.
fn framed<E>(
    batch_rows: usize,
    resume_from: u64,
    write_counter: u64,
    scan: impl FnOnce(&mut dyn FnMut(&[u8])) -> Result<(), E>,
) -> Result<Vec<Vec<u8>>, E> {
    let size = batch_rows.max(1);
    let (mut frames, mut n) = (Vec::<Vec<u8>>::new(), 0);
    scan(&mut |row| {
        let seq = (n / size) as u64;
        if seq >= resume_from {
            if n % size == 0 {
                // Room for a frame as large as the one before it.
                let room = frames.last().map_or(28 + size * 16, Vec::len);
                let mut frame = Vec::with_capacity(room);
                batch_header(&mut frame, seq as u32, write_counter, 0);
                frames.push(frame);
            }
            let frame = frames.last_mut().expect("opened at its first row");
            frame.extend_from_slice(row);
            let count = (n % size + 1) as u32;
            frame[BATCH_COUNT_AT..BATCH_COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
        }
        n += 1;
    })?;
    if n == 0 && resume_from == 0 {
        frames.push(encode_batch(&[], 0, write_counter));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_batch, AggCall, PartialAggSpec};

    fn site_db() -> Database {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE SIM (K VARCHAR(10) PRIMARY KEY, N INTEGER)")
            .unwrap();
        for i in 0..5 {
            db.execute(&format!("INSERT INTO SIM VALUES ('k{i}', {i})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn serves_pushed_scan_in_batches() {
        let mut db = site_db();
        let req = ScanRequest {
            table: "SIM".into(),
            columns: vec!["K".into(), "N".into()],
            predicate: "(N >= ?)".into(),
            params: vec![Value::Int(1)],
            order_by: vec![("N".into(), true)],
            limit: None,
            resume_from: 0,
            key_filter: None,
            partial_agg: None,
        };
        let frames = serve_scan(&mut db, &req.encode(), 2).unwrap();
        assert_eq!(frames.len(), 2);
        let batches: Vec<_> = frames.iter().map(|f| decode_batch(f).unwrap()).collect();
        assert_eq!(batches[0].seq, 0);
        assert_eq!(batches[1].seq, 1);
        let rows: Vec<_> = batches.into_iter().flat_map(|b| b.rows).collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], vec![Value::Str("k1".into()), Value::Int(1)]);

        // A resumed request re-ships only the tail, with original
        // sequence numbers.
        let resumed = ScanRequest {
            resume_from: 1,
            ..req
        };
        let tail = serve_scan(&mut db, &resumed.encode(), 2).unwrap();
        assert_eq!(tail.len(), 1);
        let b = decode_batch(&tail[0]).unwrap();
        assert_eq!(b.seq, 1);
        assert_eq!(b.rows.len(), 2);
    }

    /// A 2 KB frame whose predicate is `N = ?` inside 1,000 parentheses,
    /// and one of 10,000 AND links, are the site's parse errors: they
    /// overflowed the stack and aborted the process before the parser
    /// had a nesting budget.
    #[test]
    fn predicates_nested_past_the_budget_are_db_errors() {
        let mut db = site_db();
        let parens = format!("{}N = ?{}", "(".repeat(1000), ")".repeat(1000));
        let links = format!("N = ?{}", " AND N = ?".repeat(10_000));
        for predicate in [parens, links] {
            let req = ScanRequest {
                table: "SIM".into(),
                columns: vec!["K".into()],
                params: vec![Value::Int(1); predicate.matches('?').count()],
                predicate,
                order_by: vec![],
                limit: None,
                resume_from: 0,
                key_filter: None,
                partial_agg: None,
            };
            match serve_scan(&mut db, &req.encode(), 64) {
                Err(RemoteError::Db(DbError::Parse(m))) => {
                    assert!(m.starts_with("expression nested deeper than"), "{m}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn empty_result_still_ships_one_frame() {
        let mut db = site_db();
        let req = ScanRequest {
            table: "SIM".into(),
            columns: vec!["K".into()],
            predicate: "(N > ?)".into(),
            params: vec![Value::Int(99)],
            order_by: vec![],
            limit: None,
            resume_from: 0,
            key_filter: None,
            partial_agg: None,
        };
        let frames = serve_scan(&mut db, &req.encode(), 64).unwrap();
        assert_eq!(frames.len(), 1);
        let batch = decode_batch(&frames[0]).unwrap();
        assert!(batch.rows.is_empty());
        assert!(
            batch.write_counter > 0,
            "write counter reflects the inserts"
        );
    }

    #[test]
    fn keyed_scan_returns_only_matching_rows() {
        let mut db = site_db();
        let req = ScanRequest {
            table: "SIM".into(),
            columns: vec!["K".into(), "N".into()],
            predicate: String::new(),
            params: vec![],
            order_by: vec![],
            limit: None,
            resume_from: 0,
            key_filter: Some(("N".into(), vec![Value::Int(1), Value::Int(3)])),
            partial_agg: None,
        };
        let rows = scan_rows(&mut db, &req).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("k1".into()), Value::Int(1)],
                vec![Value::Str("k3".into()), Value::Int(3)],
            ]
        );

        // Keys compose with a pushed predicate (predicate params bind
        // first, then the key list).
        let both = ScanRequest {
            predicate: "(N >= ?)".into(),
            params: vec![Value::Int(2)],
            ..req
        };
        let rows = scan_rows(&mut db, &both).unwrap();
        assert_eq!(rows, vec![vec![Value::Str("k3".into()), Value::Int(3)]]);
    }

    #[test]
    fn bad_frame_and_bad_sql_are_typed() {
        let mut db = site_db();
        assert!(matches!(
            serve_scan(&mut db, b"nope", 64),
            Err(RemoteError::Wire(_))
        ));
        let req = ScanRequest {
            table: "GHOST".into(),
            columns: vec!["K".into()],
            predicate: String::new(),
            params: vec![],
            order_by: vec![],
            limit: None,
            resume_from: 0,
            key_filter: None,
            partial_agg: None,
        };
        assert!(matches!(
            serve_scan(&mut db, &req.encode(), 64),
            Err(RemoteError::Db(_))
        ));
    }

    /// A site with NULLs, duplicate group keys and text, for the
    /// request shapes below.
    fn wide_db() -> Database {
        let mut db = Database::new_in_memory();
        db.execute(
            "CREATE TABLE SIM (K VARCHAR(10) PRIMARY KEY, G VARCHAR(4), N INTEGER, X DOUBLE)",
        )
        .unwrap();
        for i in 0..11 {
            let g = ["'a'", "'b'", "NULL"][i % 3];
            let n = if i % 4 == 0 {
                "NULL".to_string()
            } else {
                (i % 5).to_string()
            };
            db.execute(&format!(
                "INSERT INTO SIM VALUES ('k{i:02}', {g}, {n}, {i}.5)"
            ))
            .unwrap();
        }
        db
    }

    proptest::proptest! {
        /// The frames a site streams from the rows its executor lends are
        /// the bytes `frame_batches` makes of the collected result: plain
        /// and keyed scans (full rows, lent as their stored records),
        /// top-k, partial aggregates, resumed scans and empty results
        /// alike.
        #[test]
        fn streamed_frames_are_the_collected_result_framed(
            shape in 0u8..4,
            bound in -1i64..6,
            limit in 0usize..6,
            resume_from in 0u64..4,
            batch_rows in 1usize..5,
        ) {
            let mut db = wide_db();
            let mut req = ScanRequest {
                table: "SIM".into(),
                columns: vec!["K".into(), "G".into(), "N".into(), "X".into()],
                predicate: "(N >= ?)".into(),
                params: vec![Value::Int(bound)],
                order_by: vec![],
                limit: None,
                resume_from,
                key_filter: None,
                partial_agg: None,
            };
            match shape {
                0 => {}
                1 => {
                    req.order_by = vec![("N".into(), false), ("K".into(), true)];
                    req.limit = Some(limit);
                }
                2 => {
                    req.partial_agg = Some(PartialAggSpec {
                        group_by: vec!["G".into()],
                        calls: vec![AggCall::CountStar, AggCall::Sum("X".into()), AggCall::Min("N".into())],
                    });
                }
                _ => {
                    let keys = (0..limit).map(|i| Value::Str(format!("k{:02}", i * 2))).collect();
                    req.key_filter = Some(("K".into(), keys));
                }
            }
            let rs = db.execute_with_params(&req.to_sql(), &req.effective_params()).unwrap();
            let collected = frame_batches(&rs.rows, batch_rows, resume_from, db.write_counter());
            let streamed = serve_scan(&mut db, &req.encode(), batch_rows).unwrap();
            proptest::prop_assert!(streamed == collected, "{}", req.to_sql());
        }
    }
}
