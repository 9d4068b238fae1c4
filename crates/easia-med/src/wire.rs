//! The compact row-batch wire protocol.
//!
//! Federation traffic over the simulated WAN has two message kinds:
//!
//! * **Scan requests** (hub → site): the pushed-down query as SQL text
//!   plus its externalised parameter row. Small — this is the whole
//!   point of pushdown.
//! * **Row batches** (site → hub): frames of at most `batch_rows`
//!   result rows, encoded with the same tagged binary row codec the
//!   storage engine uses for heap pages and WAL records
//!   ([`easia_db::value::encode_row`]), framed with a magic, a format
//!   version and a row count so truncation and cross-version mismatch
//!   are detected rather than misread.
//!
//! Both directions are byte-deterministic: encoding the same logical
//! message always yields the same bytes, which is what lets same-seed
//! federation runs digest identically.
//!
//! Every frame the pump accepts is decoded here, so no byte of one can
//! index, slice or count past what it holds: the compiler refuses an
//! unchecked index, slice, `expect`, `unwrap`, panic or overflowing
//! arithmetic, and each length a frame declares is checked with `get`
//! and `checked_*` into a [`WireError`].
#![deny(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::panic,
    clippy::unreachable,
    clippy::arithmetic_side_effects
)]

use easia_db::value::{decode_row, encode_row, Records};
use easia_db::Value;

/// Frame magic for a row batch: "EMB" + format version 1.
pub const BATCH_MAGIC: [u8; 4] = *b"EMB1";
/// Frame magic for a scan request: "EMQ" + format version 1.
pub const REQUEST_MAGIC: [u8; 4] = *b"EMQ1";

/// Wire-level decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame does not start with the expected magic/version.
    BadMagic,
    /// Frame ended before the declared content.
    Truncated,
    /// Frame decoded but left unconsumed bytes.
    TrailingBytes(usize),
    /// Row codec failure (bad tag, truncated row).
    Row(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "wire: bad frame magic"),
            WireError::Truncated => write!(f, "wire: truncated frame"),
            WireError::TrailingBytes(n) => write!(f, "wire: {n} trailing byte(s) after frame"),
            WireError::Row(m) => write!(f, "wire: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded row-batch frame: the header fields the resilience layer
/// keys on, plus the payload rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Zero-based position of this batch in the site's full result
    /// stream. The hub's resume cursor is `last seq + 1`.
    pub seq: u32,
    /// The site database's write counter at scan time. A change between
    /// batches (or versus a cached copy) means the site mutated data and
    /// any hub-side replica of that site is stale.
    pub write_counter: u64,
    /// The payload rows.
    pub rows: Vec<Vec<Value>>,
}

/// Where a batch frame's row count lies: after the magic, the sequence
/// number and the write counter.
pub(crate) const BATCH_COUNT_AT: usize = 16;

/// Start a batch frame in `out`: its header, with `rows` as the count.
pub(crate) fn batch_header(out: &mut Vec<u8>, seq: u32, write_counter: u64, rows: u32) {
    out.extend_from_slice(&BATCH_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&write_counter.to_le_bytes());
    out.extend_from_slice(&rows.to_le_bytes());
}

/// Encode a batch of rows into one wire frame with its stream position
/// and the site's current write counter in the header.
pub fn encode_batch(rows: &[Vec<Value>], seq: u32, write_counter: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows.len().saturating_mul(16).saturating_add(28));
    batch_header(&mut out, seq, write_counter, rows.len() as u32);
    for row in rows {
        encode_row(row, &mut out);
    }
    out
}

/// Walk a frame produced by [`encode_batch`] once — its header, then
/// each record checked as [`decode_row`] would check it — appending the
/// records to `rows`. Returns the frame's sequence number and write
/// counter. Rejects bad magic, truncation and trailing garbage, and then
/// leaves `rows` as it was.
pub fn walk_batch(buf: &[u8], rows: &mut Records) -> Result<(u32, u64), WireError> {
    if buf.len() < 20 {
        return Err(WireError::Truncated);
    }
    let mut pos = 0;
    if get(buf, &mut pos)? != BATCH_MAGIC {
        return Err(WireError::BadMagic);
    }
    let seq = u32::from_le_bytes(get(buf, &mut pos)?);
    let write_counter = u64::from_le_bytes(get(buf, &mut pos)?);
    let n = u32::from_le_bytes(get(buf, &mut pos)?);
    let before = rows.len();
    rows.reserve(buf.len().saturating_sub(pos), n as usize);
    let walked = (0..n)
        .try_for_each(|_| rows.push_checked(buf, &mut pos))
        .map_err(|e| WireError::Row(e.to_string()))
        .and_then(|()| match buf.len().saturating_sub(pos) {
            0 => Ok(()),
            left => Err(WireError::TrailingBytes(left)),
        });
    if let Err(e) = walked {
        rows.truncate(before);
        return Err(e);
    }
    Ok((seq, write_counter))
}

/// Decode a frame produced by [`encode_batch`]: [`walk_batch`], then
/// each record decoded.
pub fn decode_batch(buf: &[u8]) -> Result<Batch, WireError> {
    let mut records = Records::default();
    let (seq, write_counter) = walk_batch(buf, &mut records)?;
    let rows = records
        .iter()
        .map(|record| decode_row(record, &mut 0))
        .collect::<Result<_, _>>()
        .map_err(|e| WireError::Row(e.to_string()))?;
    Ok(Batch {
        seq,
        write_counter,
        rows,
    })
}

/// One site-local partial-aggregate call shipped inside a
/// [`PartialAggSpec`]. `AVG` never crosses the wire: the planner
/// decomposes it into a `Sum` + `Count` pair over the same column so
/// the hub can merge the ratio exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggCall {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(col)` — counts non-NULL values of the column.
    Count(String),
    /// `SUM(col)` — i64 partials promote to DOUBLE on overflow, at the
    /// site *and* again when partials are merged at the hub.
    Sum(String),
    /// `MIN(col)`.
    Min(String),
    /// `MAX(col)`.
    Max(String),
}

impl AggCall {
    /// Render the call as the SQL its site executor runs.
    pub fn sql(&self) -> String {
        match self {
            AggCall::CountStar => "COUNT(*)".to_string(),
            AggCall::Count(c) => format!("COUNT({c})"),
            AggCall::Sum(c) => format!("SUM({c})"),
            AggCall::Min(c) => format!("MIN({c})"),
            AggCall::Max(c) => format!("MAX({c})"),
        }
    }

    fn wire_tag(&self) -> u8 {
        match self {
            AggCall::CountStar => 0,
            AggCall::Count(_) => 1,
            AggCall::Sum(_) => 2,
            AggCall::Min(_) => 3,
            AggCall::Max(_) => 4,
        }
    }

    fn column(&self) -> Option<&str> {
        match self {
            AggCall::CountStar => None,
            AggCall::Count(c) | AggCall::Sum(c) | AggCall::Min(c) | AggCall::Max(c) => Some(c),
        }
    }
}

/// The partial-aggregate form of a scan request: instead of shipping
/// raw rows, the site groups locally and ships one partial-state row
/// per group. Row layout: the group-by columns (in `group_by` order)
/// followed by one value per call (in `calls` order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAggSpec {
    /// Bare grouping columns (empty for a global aggregate, which
    /// ships exactly one partial row per site).
    pub group_by: Vec<String>,
    /// The partial-aggregate calls, deduplicated by the planner.
    pub calls: Vec<AggCall>,
}

/// A pushed-down scan shipped to a site's remote executor.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRequest {
    /// Target table at the site (upper-case).
    pub table: String,
    /// Projected columns, in site-schema order. Never empty.
    pub columns: Vec<String>,
    /// Pushed predicate as SQL text (`?` placeholders), or empty for an
    /// unfiltered scan.
    pub predicate: String,
    /// Parameter row for the predicate placeholders, in order.
    pub params: Vec<Value>,
    /// Pushed top-k ordering: `(column, ascending)` pairs.
    pub order_by: Vec<(String, bool)>,
    /// Pushed row cap (top-k merge ships at most this many rows per
    /// site).
    pub limit: Option<usize>,
    /// Resume cursor: the site skips the first `resume_from` batches of
    /// its (deterministic) result stream and re-ships only the rest.
    /// Zero for a fresh scan.
    pub resume_from: u64,
    /// Semi-join key shipment: `(column, keys)` restricts the scan to
    /// rows whose `column` value is in `keys`. The key list is the
    /// bound join-key set extracted at the hub — sorted, deduplicated
    /// and NULL-free, so the frame stays byte-deterministic. `None` for
    /// an unkeyed scan.
    pub key_filter: Option<(String, Vec<Value>)>,
    /// Partial-aggregate pushdown: when set, the site groups locally
    /// and ships partial-state rows instead of the raw projection
    /// (`columns` is ignored for the select list). `None` ships rows.
    pub partial_agg: Option<PartialAggSpec>,
}

impl ScanRequest {
    /// Render the request as the SQL its site executor will run.
    pub fn to_sql(&self) -> String {
        let select_list = match &self.partial_agg {
            Some(spec) => {
                let mut items: Vec<String> = spec.group_by.clone();
                items.extend(spec.calls.iter().map(|c| c.sql()));
                items.join(", ")
            }
            None => self.columns.join(", "),
        };
        let mut sql = format!("SELECT {} FROM {}", select_list, self.table);
        let key_clause = self
            .key_filter
            .as_ref()
            .filter(|(_, k)| !k.is_empty())
            .map(|(col, keys)| format!("{col} IN ({})", vec!["?"; keys.len()].join(", ")));
        if !self.predicate.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&self.predicate);
            if let Some(k) = &key_clause {
                sql.push_str(" AND ");
                sql.push_str(k);
            }
        } else if let Some(k) = &key_clause {
            sql.push_str(" WHERE ");
            sql.push_str(k);
        }
        if let Some(spec) = &self.partial_agg {
            if !spec.group_by.is_empty() {
                sql.push_str(" GROUP BY ");
                sql.push_str(&spec.group_by.join(", "));
                // A deterministic stream order keeps the batch resume
                // cursor meaningful across retries.
                sql.push_str(" ORDER BY ");
                sql.push_str(&spec.group_by.join(", "));
            }
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|(c, asc)| format!("{c} {}", if *asc { "ASC" } else { "DESC" }))
                .collect();
            sql.push_str(" ORDER BY ");
            sql.push_str(&keys.join(", "));
        }
        if let Some(n) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        sql
    }

    /// The full parameter row for [`ScanRequest::to_sql`]: the predicate
    /// parameters followed by the shipped join keys (the IN-list
    /// placeholders come after the predicate placeholders in the
    /// rendered SQL).
    pub fn effective_params(&self) -> Vec<Value> {
        let mut out = self.params.clone();
        if let Some((_, keys)) = &self.key_filter {
            out.extend(keys.iter().cloned());
        }
        out
    }

    /// Encode the request frame (what actually crosses the WAN).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&REQUEST_MAGIC);
        put_str(&mut out, &self.table);
        out.extend_from_slice(&(self.columns.len() as u32).to_le_bytes());
        for c in &self.columns {
            put_str(&mut out, c);
        }
        put_str(&mut out, &self.predicate);
        encode_row(&self.params, &mut out);
        out.extend_from_slice(&(self.order_by.len() as u32).to_le_bytes());
        for (c, asc) in &self.order_by {
            put_str(&mut out, c);
            out.push(u8::from(*asc));
        }
        match self.limit {
            Some(n) => {
                out.push(1);
                out.extend_from_slice(&(n as u64).to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.resume_from.to_le_bytes());
        match &self.key_filter {
            Some((col, keys)) => {
                out.push(1);
                put_str(&mut out, col);
                encode_row(keys, &mut out);
            }
            None => out.push(0),
        }
        match &self.partial_agg {
            Some(spec) => {
                out.push(1);
                out.extend_from_slice(&(spec.group_by.len() as u32).to_le_bytes());
                for g in &spec.group_by {
                    put_str(&mut out, g);
                }
                out.extend_from_slice(&(spec.calls.len() as u32).to_le_bytes());
                for call in &spec.calls {
                    out.push(call.wire_tag());
                    match call.column() {
                        Some(c) => {
                            out.push(1);
                            put_str(&mut out, c);
                        }
                        None => out.push(0),
                    }
                }
            }
            None => out.push(0),
        }
        out
    }

    /// Decode a frame produced by [`ScanRequest::encode`].
    pub fn decode(buf: &[u8]) -> Result<ScanRequest, WireError> {
        let pos = &mut 0;
        if get(buf, pos)? != REQUEST_MAGIC {
            return Err(WireError::BadMagic);
        }
        let row = |pos: &mut usize| decode_row(buf, pos).map_err(|e| WireError::Row(e.to_string()));
        let table = get_str(buf, pos)?;
        let columns = list(buf, pos, 4, |pos| get_str(buf, pos))?;
        let predicate = get_str(buf, pos)?;
        let params = row(pos)?;
        let order_by = list(buf, pos, 5, |pos| Ok((get_str(buf, pos)?, flag(buf, pos)?)))?;
        let limit = match flag(buf, pos)? {
            true => Some(u64::from_le_bytes(get(buf, pos)?) as usize),
            false => None,
        };
        let resume_from = u64::from_le_bytes(get(buf, pos)?);
        let key_filter = match flag(buf, pos)? {
            true => Some((get_str(buf, pos)?, row(pos)?)),
            false => None,
        };
        let partial_agg = match flag(buf, pos)? {
            true => Some(PartialAggSpec {
                group_by: list(buf, pos, 4, |pos| get_str(buf, pos))?,
                calls: list(buf, pos, 2, |pos| {
                    let [tag] = get(buf, pos)?;
                    let col = match flag(buf, pos)? {
                        true => Some(get_str(buf, pos)?),
                        false => None,
                    };
                    Ok(match (tag, col) {
                        (0, None) => AggCall::CountStar,
                        (1, Some(c)) => AggCall::Count(c),
                        (2, Some(c)) => AggCall::Sum(c),
                        (3, Some(c)) => AggCall::Min(c),
                        (4, Some(c)) => AggCall::Max(c),
                        (t, c) => {
                            let what =
                                format!("bad aggregate call tag {t} (column: {})", c.is_some());
                            return Err(WireError::Row(what));
                        }
                    })
                })?,
            }),
            false => None,
        };
        if *pos != buf.len() {
            return Err(WireError::TrailingBytes(buf.len().saturating_sub(*pos)));
        }
        Ok(ScanRequest {
            table,
            columns,
            predicate,
            params,
            order_by,
            limit,
            resume_from,
            key_filter,
            partial_agg,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The `n` bytes at `pos`, moving past them; a length past the end of
/// `buf` (or of the address space) is a truncated frame.
fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Result<&'b [u8], WireError> {
    let end = pos.checked_add(n).ok_or(WireError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(WireError::Truncated)?;
    *pos = end;
    Ok(bytes)
}

/// The `N` bytes at `pos`, moving past them.
fn get<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], WireError> {
    take(buf, pos, N)?
        .try_into()
        .map_err(|_| WireError::Truncated)
}

fn flag(buf: &[u8], pos: &mut usize) -> Result<bool, WireError> {
    let [b] = get(buf, pos)?;
    Ok(b != 0)
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let n = u32::from_le_bytes(get(buf, pos)?) as usize;
    let s = take(buf, pos, n)?;
    String::from_utf8(s.to_vec()).map_err(|e| WireError::Row(e.to_string()))
}

/// A u32 count, then that many items of at least `size` bytes each: a
/// count the bytes left cannot hold reserves no more than they can, and
/// the read fails on the first missing item.
fn list<T>(
    buf: &[u8],
    pos: &mut usize,
    size: usize,
    mut item: impl FnMut(&mut usize) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = u32::from_le_bytes(get(buf, pos)?) as usize;
    let left = buf.len().saturating_sub(*pos).checked_div(size);
    let mut items = Vec::with_capacity(n.min(left.unwrap_or(0)));
    for _ in 0..n {
        items.push(item(pos)?);
    }
    Ok(items)
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    reason = "tests read frames they built, whose shape they know"
)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrip_all_variants() {
        let rows = vec![
            vec![
                Value::Null,
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Double(-0.5),
                Value::Str("hello".into()),
            ],
            vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Timestamp(1_234_567),
                Value::Blob(vec![0, 1, 255]),
                Value::Clob("c".repeat(10_000)),
            ],
            vec![Value::Datalink("http://fs1.example/a.dat".into())],
        ];
        let buf = encode_batch(&rows, 3, 42);
        let batch = decode_batch(&buf).unwrap();
        assert_eq!(batch.seq, 3);
        assert_eq!(batch.write_counter, 42);
        assert_eq!(batch.rows, rows);
    }

    #[test]
    fn batch_rejects_damage() {
        let rows = vec![vec![Value::Int(7)]];
        let buf = encode_batch(&rows, 0, 0);
        assert_eq!(decode_batch(&buf[..3]), Err(WireError::Truncated));
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(decode_batch(&bad), Err(WireError::BadMagic));
        let mut trailing = buf.clone();
        trailing.push(0);
        assert_eq!(decode_batch(&trailing), Err(WireError::TrailingBytes(1)));
        assert!(matches!(
            decode_batch(&buf[..buf.len() - 1]),
            Err(WireError::Row(_))
        ));
    }

    /// A count no frame of its length can hold is a typed error, never a
    /// reservation sized by the count: this frame once asked the
    /// allocator for ~100 GB and aborted the hub.
    #[test]
    fn a_hostile_batch_row_count_is_a_typed_error() {
        let mut batch = encode_batch(&[], 0, 0);
        batch[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(batch.len(), 20);
        assert!(matches!(decode_batch(&batch), Err(WireError::Row(_))));
    }

    /// The same for each count of a request frame: columns, order keys,
    /// group columns and calls.
    #[test]
    fn hostile_request_counts_are_typed_errors() {
        let max = u32::MAX.to_le_bytes();
        let empty = u32::to_le_bytes(0);
        let mut request = REQUEST_MAGIC.to_vec();
        request.extend_from_slice(&1u32.to_le_bytes());
        request.push(b'T');
        // Columns.
        let mut columns = request.clone();
        columns.extend_from_slice(&max);
        // Order keys: no columns, an empty predicate and parameter row.
        request.extend_from_slice(&empty);
        request.extend_from_slice(&empty);
        request.extend_from_slice(&empty);
        let mut order_keys = request.clone();
        order_keys.extend_from_slice(&max);
        // Group columns and calls: no order keys, limit, cursor or keys.
        request.extend_from_slice(&empty);
        request.push(0);
        request.extend_from_slice(&[0; 8]);
        request.extend_from_slice(&[0, 1]);
        let mut groups = request.clone();
        groups.extend_from_slice(&max);
        let mut calls = request;
        calls.extend_from_slice(&empty);
        calls.extend_from_slice(&max);
        for frame in [columns, order_keys, groups, calls] {
            assert_eq!(ScanRequest::decode(&frame), Err(WireError::Truncated));
        }
    }

    #[test]
    fn request_roundtrip_and_sql() {
        let req = ScanRequest {
            table: "SIMULATION".into(),
            columns: vec!["SIMULATION_KEY".into(), "GRID_SIZE".into()],
            predicate: "(GRID_SIZE >= ?)".into(),
            params: vec![Value::Int(256)],
            order_by: vec![("GRID_SIZE".into(), false)],
            limit: Some(10),
            resume_from: 2,
            key_filter: None,
            partial_agg: None,
        };
        let back = ScanRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert_eq!(
            req.to_sql(),
            "SELECT SIMULATION_KEY, GRID_SIZE FROM SIMULATION \
             WHERE (GRID_SIZE >= ?) ORDER BY GRID_SIZE DESC LIMIT 10"
        );
        let plain = ScanRequest {
            predicate: String::new(),
            params: vec![],
            order_by: vec![],
            limit: None,
            resume_from: 0,
            ..req
        };
        assert_eq!(
            plain.to_sql(),
            "SELECT SIMULATION_KEY, GRID_SIZE FROM SIMULATION"
        );
        assert_eq!(ScanRequest::decode(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn keyed_request_roundtrip_sql_and_params() {
        let keys = vec![Value::Str("S01".into()), Value::Str("S02".into())];
        let req = ScanRequest {
            table: "RESULT_FILE".into(),
            columns: vec!["RESULT_FILE_KEY".into(), "SIMULATION_KEY".into()],
            predicate: "(RESULT_FILE_KEY > ?)".into(),
            params: vec![Value::Str("R00".into())],
            order_by: vec![],
            limit: None,
            resume_from: 0,
            key_filter: Some(("SIMULATION_KEY".into(), keys.clone())),
            partial_agg: None,
        };
        let back = ScanRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert_eq!(
            req.to_sql(),
            "SELECT RESULT_FILE_KEY, SIMULATION_KEY FROM RESULT_FILE \
             WHERE (RESULT_FILE_KEY > ?) AND SIMULATION_KEY IN (?, ?)"
        );
        // Key parameters bind after the predicate parameters.
        assert_eq!(
            req.effective_params(),
            vec![Value::Str("R00".into()), keys[0].clone(), keys[1].clone()]
        );

        // Without a pushed predicate the key filter becomes the WHERE
        // clause on its own.
        let keyed_only = ScanRequest {
            predicate: String::new(),
            params: vec![],
            ..req.clone()
        };
        assert_eq!(
            keyed_only.to_sql(),
            "SELECT RESULT_FILE_KEY, SIMULATION_KEY FROM RESULT_FILE \
             WHERE SIMULATION_KEY IN (?, ?)"
        );
        assert_eq!(
            ScanRequest::decode(&keyed_only.encode()).unwrap(),
            keyed_only
        );

        // A keyed frame cut anywhere inside the key section is rejected,
        // not misread.
        let buf = req.encode();
        for cut in [buf.len() - 1, buf.len() - 5, buf.len() - 9] {
            assert!(ScanRequest::decode(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn partial_agg_request_roundtrip_and_sql() {
        let req = ScanRequest {
            table: "SIMULATION".into(),
            columns: vec!["SITE".into()],
            predicate: "(GRID_SIZE >= ?)".into(),
            params: vec![Value::Int(64)],
            order_by: vec![],
            limit: None,
            resume_from: 0,
            key_filter: None,
            partial_agg: Some(PartialAggSpec {
                group_by: vec!["SITE".into()],
                calls: vec![
                    AggCall::CountStar,
                    AggCall::Count("VISCOSITY".into()),
                    AggCall::Sum("GRID_SIZE".into()),
                    AggCall::Min("GRID_SIZE".into()),
                    AggCall::Max("VISCOSITY".into()),
                ],
            }),
        };
        let back = ScanRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert_eq!(
            req.to_sql(),
            "SELECT SITE, COUNT(*), COUNT(VISCOSITY), SUM(GRID_SIZE), \
             MIN(GRID_SIZE), MAX(VISCOSITY) FROM SIMULATION \
             WHERE (GRID_SIZE >= ?) GROUP BY SITE ORDER BY SITE"
        );

        // A global aggregate: no GROUP BY, no ORDER BY, one partial
        // row per site.
        let global = ScanRequest {
            predicate: String::new(),
            params: vec![],
            partial_agg: Some(PartialAggSpec {
                group_by: vec![],
                calls: vec![AggCall::Sum("GRID_SIZE".into()), AggCall::CountStar],
            }),
            ..req.clone()
        };
        assert_eq!(
            global.to_sql(),
            "SELECT SUM(GRID_SIZE), COUNT(*) FROM SIMULATION"
        );
        assert_eq!(ScanRequest::decode(&global.encode()).unwrap(), global);

        // A frame cut inside the aggregate section is rejected.
        let buf = req.encode();
        for cut in [buf.len() - 1, buf.len() - 4, buf.len() - 12] {
            assert!(ScanRequest::decode(&buf[..cut]).is_err());
        }
    }
}
