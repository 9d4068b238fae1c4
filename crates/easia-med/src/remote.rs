//! The site-side remote-scan executor.
//!
//! Each foreign server runs one of these against its local `easia-db`
//! instance: decode the scan request, execute the pushed-down SQL, and
//! frame the result rows into bounded batches for shipment back to the
//! hub ([`serve_scan`], which the hub's pump calls with the very frame
//! it put on the wire). It is deliberately thin — all planning lives at
//! the hub, a site just runs the SELECT it is handed.

use crate::wire::{encode_batch, ScanRequest, WireError};
use easia_db::{Database, DbError, Value};

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

/// Execute a decoded scan request against the site database, returning
/// the result rows.
pub fn scan_rows(db: &mut Database, req: &ScanRequest) -> Result<Vec<Vec<Value>>, RemoteError> {
    let rs = db
        .execute_with_params(&req.to_sql(), &req.effective_params())
        .map_err(RemoteError::Db)?;
    Ok(rs.rows)
}

/// A site serving one wire-encoded scan request end to end: decode the
/// EMQ1 frame, run the scan and frame the rows into batches of at most
/// `batch_rows`, honouring the request's resume cursor and stamping the
/// site's write counter. The hub's in-process sites are served through
/// this too, so every field the hub encodes is one a site decodes.
pub fn serve_scan(
    db: &mut Database,
    frame: &[u8],
    batch_rows: usize,
) -> Result<Vec<Vec<u8>>, RemoteError> {
    let req = ScanRequest::decode(frame).map_err(RemoteError::Wire)?;
    let rows = scan_rows(db, &req)?;
    Ok(frame_batches(
        &rows,
        batch_rows,
        req.resume_from,
        db.write_counter(),
    ))
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
    let size = batch_rows.max(1);
    if rows.is_empty() && resume_from == 0 {
        return vec![encode_batch(&[], 0, write_counter)];
    }
    rows.chunks(size)
        .enumerate()
        .skip(resume_from as usize)
        .map(|(seq, chunk)| encode_batch(chunk, seq as u32, write_counter))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_batch;

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
}
