//! Mutation property of the federation wire: every reader of EMB1 and
//! EMQ1 bytes gives a typed error or an answer on damaged frames — it
//! never panics, and it allocates in proportion to the bytes it was
//! given.
//!
//! The inputs are real frames: a site's batch frames over rows of every
//! cell kind, and a scan request carrying a predicate with parameters,
//! a limit, a resume cursor, a semi-join key list and a
//! partial-aggregate spec. Each is truncated and has bits flipped, most
//! of them in its shape — a batch's header, record counts, tags and
//! lengths. Every reader takes it: `decode_batch`, the record walker
//! `walk_batch` the hub accepts batches with, `ScanRequest::decode` and
//! `serve_scan`, which a site runs on the request frame it was sent.
//! Before counts were bounded by the bytes left, a 20-byte batch frame
//! or a request declaring `u32::MAX` columns, order keys, group columns
//! or calls asked the allocator for ~100 GB and aborted the hub. A
//! request whose predicate nests deep is served or refused by the
//! parser's nesting budget.
//!
//! One test only: the allocation counter is process-wide.

use easia_db::value::Records;
use easia_db::{Database, DbError, Value};
use easia_med::remote::{frame_batches, RemoteError};
use easia_med::wire::walk_batch;
use easia_med::{decode_batch, serve_scan, AggCall, PartialAggSpec, ScanRequest};
use proptest::prelude::*;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes one reader call may allocate per input byte, plus a constant:
/// a decoded cell per byte, the request's SQL text, the site's plan and
/// its reply, formatted error text.
const PER_BYTE: u64 = 64;
const CONSTANT: u64 = 16 * 1024;

/// The same for a nested predicate, which is mostly one-byte tokens:
/// the lexer keeps 32 bytes per token, and a vector that grows by
/// doubling allocates up to four times its final length (128 bytes per
/// input byte); the tree, a node every few bytes, takes the rest.
/// Measured: at most 125 bytes per input byte beyond the constant, for
/// 1,021 parentheses; 147 while the lexer copied the text into a vector
/// of characters and the parser cloned each token it consumed.
const PER_NESTED_BYTE: u64 = 140;

/// The site: a handful of rows of every kind the wire carries.
fn site() -> Database {
    let mut db = Database::new_in_memory();
    db.execute(
        "CREATE TABLE sim (k VARCHAR(10) PRIMARY KEY, n INTEGER, x DOUBLE, \
         d CLOB, ok BOOLEAN)",
    )
    .unwrap();
    for i in 0..8 {
        db.execute(&format!(
            "INSERT INTO sim VALUES ('k{i}', {i}, {}.5, 'run {i}', {})",
            i * 3,
            i % 2 == 0
        ))
        .unwrap();
    }
    db
}

/// A site's batch frames over rows of every cell kind.
fn batches() -> Vec<Vec<u8>> {
    let rows: Vec<Vec<Value>> = (0..12)
        .map(|i| {
            vec![
                Value::Str(format!("k{i}")),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                },
                Value::Double(i as f64 - 0.5),
                Value::Bool(i % 2 == 0),
                Value::Timestamp(1_000 + i),
                Value::Blob(vec![i as u8; 3]),
                Value::Clob("é".repeat(i as usize)),
                Value::Datalink(format!("http://fs1.example/t{i}.edf")),
            ]
        })
        .collect();
    frame_batches(&rows, 5, 0, 42)
}

/// The offsets of a batch frame's shape: its header, then each record's
/// cell count and each cell's tag and length.
fn shape(frame: &[u8]) -> Vec<usize> {
    let mut at: Vec<usize> = (0..20).collect();
    let mut pos = 20;
    while pos < frame.len() {
        at.extend(pos..pos + 4);
        let cells = u32::from_le_bytes(frame[pos..pos + 4].try_into().unwrap());
        pos += 4;
        for _ in 0..cells {
            at.push(pos);
            let tag = frame[pos];
            pos += 1;
            pos += match tag {
                1 | 2 | 6 => 8,
                3 | 7..=9 => {
                    at.extend(pos..pos + 4);
                    4 + u32::from_le_bytes(frame[pos..pos + 4].try_into().unwrap()) as usize
                }
                _ => 0,
            };
        }
    }
    at
}

/// A request using every section of the frame but the order keys, which
/// a partial aggregate replaces with its own.
fn request() -> Vec<u8> {
    ScanRequest {
        table: "SIM".into(),
        columns: vec!["K".into(), "N".into(), "X".into()],
        predicate: "(N >= ?) AND (D LIKE ?)".into(),
        params: vec![Value::Int(1), Value::Str("run%".into())],
        order_by: vec![],
        limit: Some(5),
        resume_from: 1,
        key_filter: Some((
            "K".into(),
            vec![Value::Str("k1".into()), Value::Str("k3".into())],
        )),
        partial_agg: Some(PartialAggSpec {
            group_by: vec!["OK".into()],
            calls: vec![AggCall::CountStar, AggCall::Sum("X".into())],
        }),
    }
    .encode()
}

/// A request whose predicate nests `n` deep, in one of four forms:
/// parentheses, NOT, an AND chain, and a right-deep chain in
/// parentheses. Random flips never build these; before the parser had a
/// nesting budget, 1,000 parentheses (a 2 KB frame) aborted the site.
fn nested_request(form: usize, n: usize) -> Vec<u8> {
    let leaf = "N >= 1";
    let predicate = match form {
        0 => format!("{}{leaf}{}", "(".repeat(n), ")".repeat(n)),
        1 => format!("{}{leaf}", "NOT ".repeat(n)),
        2 => format!("{leaf}{}", format!(" AND {leaf}").repeat(n)),
        _ => format!(
            "{}{leaf}{}",
            format!("{leaf} AND (").repeat(n),
            ")".repeat(n)
        ),
    };
    ScanRequest {
        table: "SIM".into(),
        columns: vec!["K".into()],
        predicate,
        params: vec![],
        order_by: vec![],
        limit: None,
        resume_from: 0,
        key_filter: None,
        partial_agg: None,
    }
    .encode()
}

/// Run one reader call, failing the case when it allocates more than
/// in proportion to `len` input bytes.
fn bounded<T>(what: &str, len: usize, call: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    bounded_by(PER_BYTE, what, len, call)
}

/// [`bounded`] at `per_byte` bytes per input byte.
fn bounded_by<T>(
    per_byte: u64,
    what: &str,
    len: usize,
    call: impl FnOnce() -> T,
) -> Result<T, TestCaseError> {
    let (out, counts) = counted(call);
    let spent = counts.bytes;
    let cap = per_byte * len as u64 + CONSTANT;
    prop_assert!(
        spent <= cap,
        "{what} allocated {spent} bytes for {len} input bytes"
    );
    Ok(out)
}

/// Flip bits of `bytes` — three flips in four inside `shape`, when it
/// is given — then cut it when `truncate`.
fn damage(
    bytes: &mut Vec<u8>,
    shape: &[usize],
    flips: &[(usize, u8, u8)],
    cut: usize,
    truncate: bool,
) {
    for &(at, bit, anywhere) in flips {
        let at = match shape.is_empty() || anywhere == 0 {
            true => at % bytes.len(),
            false => shape[at % shape.len()],
        };
        bytes[at] ^= 1 << bit;
    }
    if truncate {
        bytes.truncate(cut % (bytes.len() + 1));
    }
}

proptest! {
    #[test]
    fn damaged_frames_are_typed_errors_in_bounded_memory(
        flips in proptest::collection::vec((any::<usize>(), 0u8..8, 0u8..4), 0..6),
        frame in 0usize..3,
        cut in any::<usize>(),
        truncate in any::<bool>(),
        form in 0usize..4,
        nest in 0usize..1200,
    ) {
        let clean = batches();
        let mut bytes = clean[frame].clone();
        let offsets = shape(&bytes);
        damage(&mut bytes, &offsets, &flips, cut, truncate);
        let len = bytes.len();
        let decoded = bounded("decode_batch", len, || decode_batch(&bytes))?;
        let mut records = Records::default();
        let walked = bounded("walk_batch", len, || walk_batch(&bytes, &mut records))?;
        // The walker accepts exactly what the decoder does, and an
        // error leaves nothing behind.
        match (&decoded, &walked) {
            (Ok(batch), Ok(header)) => {
                prop_assert!((batch.seq, batch.write_counter) == *header);
                prop_assert!(batch.rows.len() == records.len());
            }
            (Err(d), Err(w)) => {
                prop_assert!(d == w, "{d} / {w}");
                prop_assert!(records.is_empty());
            }
            _ => prop_assert!(false, "{decoded:?} / {walked:?}"),
        }
        if bytes == clean[frame] {
            prop_assert!(decoded.is_ok());
        }

        let clean = request();
        let mut bytes = clean.clone();
        damage(&mut bytes, &[], &flips, cut, truncate);
        let len = bytes.len();
        let decoded = bounded("ScanRequest::decode", len, || ScanRequest::decode(&bytes))?;
        let mut db = site();
        let served = bounded("serve_scan", len, || serve_scan(&mut db, &bytes, 2))?;
        prop_assert!(decoded.is_ok() || served.is_err());
        if bytes == clean {
            prop_assert!(served.is_ok(), "{served:?}");
        }

        // A nested predicate is served, or refused by the parser's
        // budget: shallow ones are served, deep ones refused.
        let bytes = nested_request(form, nest);
        let serve = || serve_scan(&mut db, &bytes, 2);
        let served = bounded_by(PER_NESTED_BYTE, "serve_scan", bytes.len(), serve)?;
        match &served {
            Ok(_) => prop_assert!(nest < 200, "{nest} deep in form {form} served"),
            Err(RemoteError::Db(DbError::Parse(m))) => {
                prop_assert!(m.starts_with("expression nested deeper than"), "{m}");
                prop_assert!(nest > 30, "{nest} deep in form {form}: {m}");
            }
            Err(e) => prop_assert!(false, "{nest} deep in form {form}: {e}"),
        }
    }
}
