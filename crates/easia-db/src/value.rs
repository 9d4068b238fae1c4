//! SQL values and types, including the SQL/MED `DATALINK` type.

use crate::error::{DbError, Result};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// Column types supported by the engine.
///
/// `Blob`/`Clob` hold "small files that can be uploaded over the Internet"
/// inside the database; `Datalink` references an external file managed
/// under SQL/MED link control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlType {
    /// 64-bit signed integer (covers SMALLINT/INTEGER/BIGINT).
    Integer,
    /// 64-bit IEEE float (covers REAL/DOUBLE).
    Double,
    /// Variable-length string with a declared maximum length.
    Varchar(usize),
    /// Boolean.
    Boolean,
    /// Seconds since the archive epoch.
    Timestamp,
    /// Binary large object stored in the database.
    Blob,
    /// Character large object stored in the database.
    Clob,
    /// SQL/MED DATALINK: a URL referencing external data.
    Datalink,
}

impl SqlType {
    /// Human-readable SQL name.
    pub fn sql_name(&self) -> String {
        match self {
            SqlType::Integer => "INTEGER".into(),
            SqlType::Double => "DOUBLE".into(),
            SqlType::Varchar(n) => format!("VARCHAR({n})"),
            SqlType::Boolean => "BOOLEAN".into(),
            SqlType::Timestamp => "TIMESTAMP".into(),
            SqlType::Blob => "BLOB".into(),
            SqlType::Clob => "CLOB".into(),
            SqlType::Datalink => "DATALINK".into(),
        }
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Double.
    Double(f64),
    /// String (VARCHAR).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Timestamp (seconds).
    Timestamp(i64),
    /// Binary large object.
    Blob(Vec<u8>),
    /// Character large object.
    Clob(String),
    /// DATALINK URL, stored in its "linked" form
    /// (`http://host/path/filename`); access tokens are spliced in at
    /// SELECT time by the datalink layer.
    Datalink(String),
}

impl Value {
    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The natural type of this value, or `None` for NULL.
    pub fn sql_type(&self) -> Option<SqlType> {
        Some(match self {
            Value::Null => return None,
            Value::Int(_) => SqlType::Integer,
            Value::Double(_) => SqlType::Double,
            Value::Str(_) => SqlType::Varchar(usize::MAX),
            Value::Bool(_) => SqlType::Boolean,
            Value::Timestamp(_) => SqlType::Timestamp,
            Value::Blob(_) => SqlType::Blob,
            Value::Clob(_) => SqlType::Clob,
            Value::Datalink(_) => SqlType::Datalink,
        })
    }

    /// Coerce this value to `ty`, or error. NULL passes through.
    pub fn coerce(self, ty: SqlType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let err = |v: &Value| {
            Err(DbError::Type(format!(
                "cannot store {} in a {} column",
                v.type_name(),
                ty.sql_name()
            )))
        };
        Ok(match (ty, self) {
            (SqlType::Integer, Value::Int(i)) => Value::Int(i),
            (SqlType::Integer, Value::Double(d)) if d.fract() == 0.0 => Value::Int(d as i64),
            (SqlType::Double, Value::Double(d)) => Value::Double(d),
            (SqlType::Double, Value::Int(i)) => Value::Double(i as f64),
            (SqlType::Varchar(max), Value::Str(s)) => {
                if s.chars().count() > max {
                    return Err(DbError::Type(format!(
                        "value of length {} exceeds VARCHAR({max})",
                        s.chars().count()
                    )));
                }
                Value::Str(s)
            }
            (SqlType::Boolean, Value::Bool(b)) => Value::Bool(b),
            (SqlType::Timestamp, Value::Timestamp(t)) => Value::Timestamp(t),
            (SqlType::Timestamp, Value::Int(t)) => Value::Timestamp(t),
            (SqlType::Blob, Value::Blob(b)) => Value::Blob(b),
            (SqlType::Blob, Value::Str(s)) => Value::Blob(s.into_bytes()),
            (SqlType::Clob, Value::Clob(c)) => Value::Clob(c),
            (SqlType::Clob, Value::Str(s)) => Value::Clob(s),
            (SqlType::Datalink, Value::Datalink(u)) => Value::Datalink(u),
            (SqlType::Datalink, Value::Str(u)) => Value::Datalink(u),
            (_, v) => return err(&v),
        })
    }

    /// Short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INTEGER",
            Value::Double(_) => "DOUBLE",
            Value::Str(_) => "VARCHAR",
            Value::Bool(_) => "BOOLEAN",
            Value::Timestamp(_) => "TIMESTAMP",
            Value::Blob(_) => "BLOB",
            Value::Clob(_) => "CLOB",
            Value::Datalink(_) => "DATALINK",
        }
    }

    /// SQL comparison with three-valued logic: NULL compares as unknown.
    /// Returns `None` when either side is NULL or the types are
    /// incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Clob(a), Clob(b)) => Some(a.cmp(b)),
            // Always `self` against `other`, also across kinds.
            (Str(a), Clob(b)) | (Clob(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Timestamp(a), Int(b)) | (Int(a), Timestamp(b)) => Some(a.cmp(b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            (Datalink(a), Datalink(b)) => Some(a.cmp(b)),
            (Datalink(a), Str(b)) | (Str(a), Datalink(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for index keys and ORDER BY: NULLs sort first,
    /// then by type family, then by value. Unlike [`Value::sql_cmp`] this
    /// never fails, so B+trees and sorts are well-defined over mixed data.
    /// Numbers compare as `f64`s with NaN after every other number and
    /// equal to itself — not `f64::total_cmp`, under which `-0.0 < 0.0`
    /// and an index probe for `x = 0` would miss a stored `-0.0`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) | Value::Timestamp(_) => 2,
                Value::Str(_) | Value::Clob(_) | Value::Datalink(_) => 3,
                Value::Blob(_) => 4,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            _ if ra == 2 => {
                let a = self.as_f64().expect("rank 2 is numeric");
                let b = other.as_f64().expect("rank 2 is numeric");
                a.partial_cmp(&b)
                    .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
            }
            _ => self
                .as_str_like()
                .expect("rank 3 is stringy")
                .cmp(other.as_str_like().expect("rank 3 is stringy")),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    fn as_str_like(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Clob(s) | Value::Datalink(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a string, if this is any string-like value.
    pub fn as_text(&self) -> Option<&str> {
        self.as_str_like()
    }

    /// The text `Display` writes, without a fresh `String`: string kinds
    /// lend their own, the others are written into `scratch` — an
    /// integer or timestamp digit by digit, not through the formatter, and
    /// so is an integral double below 10^15, whose shortest round-trip
    /// form `Display` writes is its integer's digits (`-0` for `-0.0`).
    pub fn display_text<'a>(&'a self, scratch: &'a mut String) -> &'a str {
        use fmt::Write as _;
        scratch.clear();
        match self {
            Value::Str(s) | Value::Clob(s) | Value::Datalink(s) => return s,
            Value::Int(i) | Value::Timestamp(i) => push_digits(scratch, *i < 0, i.unsigned_abs()),
            Value::Double(d) => push_double(scratch, *d),
            _ => {
                let _ = write!(scratch, "{self}");
            }
        }
        scratch
    }

    /// Borrow as an integer, if numeric and integral.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) | Value::Timestamp(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view used by arithmetic and aggregates.
    pub fn numeric(&self) -> Option<f64> {
        self.as_f64()
    }

    /// Size in bytes of a large-object value, used for the interface's
    /// "hypertext link displays size of object" rendering.
    pub fn lob_size(&self) -> Option<usize> {
        match self {
            Value::Blob(b) => Some(b.len()),
            Value::Clob(c) => Some(c.len()),
            _ => None,
        }
    }
}

/// Append `d` as `Display` writes it: an integral double below 10^15 as
/// its integer's digits, which is its shortest round-trip form (`-0` for
/// `-0.0`), written digit by digit; any other through the formatter.
fn push_double(out: &mut String, d: f64) {
    use fmt::Write as _;
    if d.fract() == 0.0 && d.abs() < 1e15 {
        push_digits(out, d.is_sign_negative(), d.abs() as u64)
    } else {
        let _ = write!(out, "{d}");
    }
}

/// Append `n`'s decimal digits, after a `-` if `negative`: two at a time
/// from a table of the hundred pairs, each pushed as the ASCII it is.
fn push_digits(out: &mut String, negative: bool, mut n: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    let (mut digits, mut at) = ([0u8; 20], 20);
    loop {
        at -= 2;
        let pair = (n % 100) as usize * 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        n /= 100;
        if n == 0 {
            break;
        }
    }
    // The leading pair of an odd count of digits starts with a zero.
    if digits[at] == b'0' {
        at += 1;
    }
    if negative {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) | Value::Clob(s) | Value::Datalink(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Timestamp(t) => write!(f, "{t}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

/// Encode a row (for heap pages, WAL records and snapshots).
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    encode_cells(row.iter(), out);
}

/// Encode the row made of `cells`: [`encode_row`] of them, without
/// gathering them into a row first.
pub(crate) fn encode_cells<'v>(cells: impl ExactSizeIterator<Item = &'v Value>, out: &mut Vec<u8>) {
    out.extend_from_slice(&(cells.len() as u32).to_le_bytes());
    cells.for_each(|v| encode_cell(v, out));
}

/// Append `v` to a group key — the one encoder GROUP BY and the
/// federation's partial-aggregate merge key their groups by (DISTINCT
/// keys its output records with `key_cells`, which writes these bytes
/// without decoding a cell). It is [`encode_row`]'s cell encoding with
/// doubles made canonical: `-0.0` files as `0.0` and every NaN as one
/// NaN, so doubles that [`Value::total_cmp`] calls equal share a group,
/// which shows the value it was first seen with. Cells of different
/// kinds (`1` and `1.0`, a string and a CLOB) stay apart, as they always
/// have.
pub fn encode_key_cell(v: &Value, out: &mut Vec<u8>) {
    match v {
        // Adding +0.0 turns -0.0 into 0.0 and leaves every other double.
        Value::Double(d) => encode_cell(
            &Value::Double(if d.is_nan() { f64::NAN } else { d + 0.0 }),
            out,
        ),
        other => encode_cell(other, out),
    }
}

fn encode_cell(v: &Value, out: &mut Vec<u8>) {
    let mut word = [0; 8];
    let (tag, payload) = as_cell(v, &mut word);
    out.push(tag);
    if matches!(tag, 3 | 7..=9) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    }
    out.extend_from_slice(payload);
}

/// `v` as the tag and payload of its cell, neither encoded nor copied: a
/// number's payload is written into `word`.
pub(crate) fn as_cell<'a>(v: &'a Value, word: &'a mut [u8; 8]) -> (u8, &'a [u8]) {
    let (tag, bytes) = match v {
        Value::Null => return (0, &[]),
        Value::Bool(b) => return (4 + u8::from(*b), &[]),
        Value::Str(s) => return (3, s.as_bytes()),
        Value::Blob(b) => return (7, b),
        Value::Clob(s) => return (8, s.as_bytes()),
        Value::Datalink(s) => return (9, s.as_bytes()),
        Value::Int(i) => (1, i.to_le_bytes()),
        Value::Double(d) => (2, d.to_le_bytes()),
        Value::Timestamp(t) => (6, t.to_le_bytes()),
    };
    *word = bytes;
    (tag, word)
}

/// Append `v` to an order key: bytes whose `memcmp` orders cells as
/// [`Value::total_cmp`] orders their values, and no cell's bytes lead
/// another's, so a key of several cells compares as its cells do one by
/// one and sorts before every longer key it leads. A rank byte (NULL,
/// boolean, number, text, blob); then a boolean's tag; a number's `f64`
/// as 8 big-endian bits that order as the values do (`-0.0` as `0.0`,
/// every NaN as one NaN above the rest, an integer past 2^53 as the
/// double it compares as); text (VARCHAR, CLOB and DATALINK alike) or a
/// blob as its bytes, each `0x00` written `0x00 0xFF`, then `0x00 0x01`.
/// A `desc` cell is those bytes complemented, which orders it the other
/// way.
pub fn order_key(v: &Value, desc: bool, out: &mut Vec<u8>) {
    order_key_cell(as_cell(v, &mut [0; 8]), desc, out);
}

/// [`order_key`] of a cell given as its tag and payload: a stored
/// record's cell keyed without decoding it.
pub(crate) fn order_key_cell((tag, payload): (u8, &[u8]), desc: bool, out: &mut Vec<u8>) {
    let at = out.len();
    let rank = [0, 2, 2, 3, 1, 1, 2, 4, 3, 3][usize::from(tag)];
    out.push(rank);
    match rank {
        1 => out.push(tag),
        2 => {
            let x = (scalar_cell(tag, payload).and_then(|v| v.as_f64())).expect("a number");
            let bits = if x.is_nan() { f64::NAN } else { x + 0.0 }.to_bits();
            let ordered = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        3 | 4 => {
            for (i, run) in payload.split(|&b| b == 0).enumerate() {
                if i > 0 {
                    out.extend_from_slice(&[0, 0xFF]);
                }
                out.extend_from_slice(run);
            }
            out.extend_from_slice(&[0, 1]);
        }
        _ => {}
    }
    if desc {
        out[at..].iter_mut().for_each(|b| *b = !*b);
    }
}

/// The cells of `key`, an ascending order key, each as a value that
/// [`Value::total_cmp`] finds equal to the one it was made from: what an
/// order key keeps of it (a number reads back as a DOUBLE, text as a
/// VARCHAR).
pub(crate) fn order_key_values(mut key: &[u8]) -> Vec<Value> {
    let mut values = Vec::new();
    while let Some((&rank, rest)) = key.split_first() {
        let (value, len) = match rank {
            0 => (Value::Null, 0),
            1 => (Value::Bool(rest[0] == 5), 1),
            2 => {
                let bits = u64::from_be_bytes(rest[..8].try_into().expect("8 bytes"));
                let bits = if bits >> 63 == 1 {
                    bits ^ 1 << 63
                } else {
                    !bits
                };
                (Value::Double(f64::from_bits(bits)), 8)
            }
            _ => {
                let (mut bytes, mut at) = (Vec::new(), 0);
                loop {
                    let zero = at + rest[at..].iter().position(|&b| b == 0).expect("an end");
                    bytes.extend_from_slice(&rest[at..zero]);
                    at = zero + 2;
                    if rest[zero + 1] == 1 {
                        break;
                    }
                    bytes.push(0);
                }
                match rank {
                    3 => (Value::Str(String::from_utf8(bytes).expect("text")), at),
                    _ => (Value::Blob(bytes), at),
                }
            }
        };
        values.push(value);
        key = &rest[len..];
    }
    values
}

/// One cell of a lent record, neither decoded nor copied: what a reader
/// shows or compares straight from the record's bytes. Text is checked
/// as UTF-8 where it is read as text ([`Cell::display_text`]).
#[derive(Debug, Clone, Copy)]
pub struct Cell<'r> {
    tag: u8,
    payload: &'r [u8],
}

impl<'r> Cell<'r> {
    /// Is it NULL?
    #[inline]
    pub fn is_null(self) -> bool {
        self.tag == 0
    }

    /// A DATALINK cell's URL, checked as UTF-8; `None` for any other
    /// kind.
    #[inline]
    pub fn datalink(self) -> Result<Option<&'r str>> {
        match self.tag {
            9 => text(self.payload).map(Some),
            _ => Ok(None),
        }
    }

    /// A BLOB's or CLOB's size in bytes, as [`Value::lob_size`] gives it:
    /// its payload's length.
    #[inline]
    pub fn lob_size(self) -> Option<usize> {
        matches!(self.tag, 7 | 8).then_some(self.payload.len())
    }

    /// The text [`Value::display_text`] gives the cell's value: a string
    /// kind's own payload, checked as UTF-8, any other written into
    /// `scratch`.
    #[inline]
    pub fn display_text<'s>(self, scratch: &'s mut String) -> Result<&'s str>
    where
        'r: 's,
    {
        match self.tag {
            3 | 8 | 9 => text(self.payload),
            _ => Ok(self.written(scratch)),
        }
    }

    /// The bytes of [`Cell::display_text`], a string kind's unchecked:
    /// what a reader compares with a text of its own.
    #[inline]
    pub fn display_bytes<'s>(self, scratch: &'s mut String) -> &'s [u8]
    where
        'r: 's,
    {
        match self.tag {
            3 | 8 | 9 => self.payload,
            _ => self.written(scratch).as_bytes(),
        }
    }

    /// Append the display text of a number, boolean or timestamp cell to
    /// `out`, as [`Cell::display_text`] gives it: text that HTML escaping
    /// and URL encoding leave as it is. Any other cell appends nothing,
    /// and is `false`.
    #[inline]
    pub fn number_into(self, out: &mut String) -> bool {
        let word = || self.payload.try_into().map_or(0, i64::from_le_bytes);
        match self.tag {
            1 | 6 => push_digits(out, word() < 0, word().unsigned_abs()),
            2 => push_double(out, f64::from_bits(word() as u64)),
            4 => out.push_str("FALSE"),
            5 => out.push_str("TRUE"),
            _ => return false,
        }
        true
    }

    /// The display text of a cell that is no string kind, written into
    /// `scratch` from its payload as [`Value::display_text`] writes its
    /// value (`display_text_of_a_cell_is_its_values` holds the two
    /// equal).
    fn written(self, scratch: &mut String) -> &str {
        use fmt::Write as _;
        scratch.clear();
        if !self.number_into(scratch) {
            match self.tag {
                7 => _ = write!(scratch, "<blob {} bytes>", self.payload.len()),
                _ => scratch.push_str("NULL"),
            }
        }
        scratch
    }
}

/// Where each cell of a record lies, found by one walk that checks every
/// tag and length but no text (as [`decode_row`] steps): a reader visits the
/// cells of a record in any order, or more than once, without walking it
/// again. Refilled record after record, it allocates only for a record
/// wider than any before.
#[derive(Debug, Default)]
pub struct CellWalk {
    /// Each cell's tag and where its payload lies.
    cells: Vec<(u8, Range<usize>)>,
}

impl CellWalk {
    /// Walk `record`, an [`encode_row`] record: its first error (a bad
    /// tag, a length past its end) is the walk's, as it is
    /// [`decode_row`]'s.
    pub fn walk(&mut self, record: &[u8]) -> Result<()> {
        self.cells.clear();
        let mut pos = 0;
        let walked = cell_count(record, &mut pos).and_then(|n| {
            for _ in 0..n {
                let (tag, payload) = next_cell(record, &mut pos)?;
                let start = pos - payload.len();
                self.cells.push((tag, start..pos));
            }
            Ok(())
        });
        if walked.is_err() {
            self.cells.clear();
        }
        walked
    }

    /// How many cells the last record walked holds.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Did it hold none?
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell `i` of `record`, the record last walked; `None` past its
    /// last cell (or for a record it did not walk that is too short).
    #[inline]
    pub fn cell<'r>(&self, record: &'r [u8], i: usize) -> Option<Cell<'r>> {
        let (tag, at) = self.cells.get(i)?;
        let payload = record.get(at.clone())?;
        Some(Cell { tag: *tag, payload })
    }
}

/// Append the cells of `record`, a whole record, to a group key as
/// [`encode_key_cell`] appends their values, without decoding them.
pub(crate) fn key_cells(record: &[u8], out: &mut Vec<u8>) {
    let mut pos = 4;
    while pos < record.len() {
        let at = pos;
        next_cell(record, &mut pos).expect("a whole record");
        key_cell(&record[at..pos], out);
    }
}

/// Append `cell`, the whole encoding of one cell, to a group key as
/// [`encode_key_cell`] appends its value: its bytes, a double's made
/// canonical.
#[inline]
pub(crate) fn key_cell(cell: &[u8], out: &mut Vec<u8>) {
    match cell {
        &[2, a, b, c, d, e, f, g, h] => {
            let x = f64::from_le_bytes([a, b, c, d, e, f, g, h]);
            encode_key_cell(&Value::Double(x), out)
        }
        _ => out.extend_from_slice(cell),
    }
}

/// The cells of `record`, a whole [`encode_row`] record, as their tags
/// and payloads.
pub(crate) fn cells(record: &[u8]) -> impl Iterator<Item = (u8, &[u8])> {
    let mut pos = 4;
    std::iter::from_fn(move || {
        (pos < record.len()).then(|| next_cell(record, &mut pos).expect("a whole record"))
    })
}

/// The cell starting at `pos` in `record`, a whole record.
pub(crate) fn cell_at(record: &[u8], mut pos: usize) -> (u8, &[u8]) {
    next_cell(record, &mut pos).expect("a whole record")
}

/// Rows as [`encode_row`] records, back to back in one buffer: what a
/// federated leg keeps of the batches its sites ship, and what a
/// [`Relation`](crate::exec::Relation) is read from, through the scan a
/// heap page goes through.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Records {
    bytes: Vec<u8>,
    /// Where each record ends in `bytes`.
    ends: Vec<usize>,
}

impl Records {
    /// How many records it holds.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Does it hold none?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Make room for `records` more records of `bytes` bytes in all;
    /// each takes at least 4, so a count they cannot hold reserves no
    /// more than they can.
    pub fn reserve(&mut self, bytes: usize, records: usize) {
        self.bytes.reserve(bytes);
        self.ends.reserve(records.min(bytes / 4));
    }

    /// Append `row`'s record.
    pub fn push(&mut self, row: &[Value]) {
        self.push_cells(row.iter());
    }

    /// Append `bytes` as one entry: a record (a result row lent by the
    /// executor is one), or a string of bytes that is none (an arena of
    /// ORDER BY's order keys).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.ends.push(self.bytes.len());
    }

    /// Append the record of a row made of `cells`.
    pub fn push_cells<'v>(&mut self, cells: impl ExactSizeIterator<Item = &'v Value>) {
        encode_cells(cells, &mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// Begin a record of `cells` cells, each then written by
    /// [`Records::push_cell`] and the record closed by [`Records::seal`]:
    /// a row whose cells are not gathered in one slice. A record begun
    /// and never sealed is dropped by the next.
    pub(crate) fn open(&mut self, cells: usize) {
        self.bytes.truncate(self.ends.last().copied().unwrap_or(0));
        self.bytes.extend_from_slice(&(cells as u32).to_le_bytes());
    }

    /// Write the next cell of the record [`Records::open`] began.
    pub(crate) fn push_cell(&mut self, v: &Value) {
        encode_cell(v, &mut self.bytes);
    }

    /// Write the next cell of the record [`Records::open`] began as
    /// `cell`, the whole encoding of a cell of another record; with
    /// `links_as_clob` a DATALINK cell is written as a CLOB of its URL.
    pub(crate) fn push_span(&mut self, cell: &[u8], links_as_clob: bool) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(cell);
        if links_as_clob && cell[0] == 9 {
            self.bytes[at] = 8;
        }
    }

    /// Close the record [`Records::open`] began.
    pub(crate) fn seal(&mut self) {
        self.ends.push(self.bytes.len());
    }

    /// Append `bytes` to the last entry.
    pub(crate) fn extend_last(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        if let Some(end) = self.ends.last_mut() {
            *end = self.bytes.len();
        }
    }

    /// Append the record at `pos` in `buf` and move `pos` past it,
    /// checked as [`decode_row`] checks it — every tag and length, the
    /// text of every string cell as UTF-8 — and raising the error it
    /// would. On error nothing is appended.
    pub fn push_checked(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let start = *pos;
        sieve_record(buf, pos, |_| {})?;
        self.bytes.extend_from_slice(&buf[start..*pos]);
        self.ends.push(self.bytes.len());
        Ok(())
    }

    /// The record appended `i`th.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.bytes[start..self.ends[i]]
    }

    /// The records, in the order they were appended.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + DoubleEndedIterator + '_ {
        (0..self.ends.len()).map(|i| self.get(i))
    }

    /// Hold no records, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
    }

    /// Keep the first `n` records.
    pub fn truncate(&mut self, n: usize) {
        self.ends.truncate(n);
        self.bytes.truncate(self.ends.last().copied().unwrap_or(0));
    }

    /// Append every record of `other`.
    pub fn append(&mut self, other: Records) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = self.bytes.len();
        self.bytes.extend_from_slice(&other.bytes);
        self.ends.extend(other.ends.iter().map(|end| base + end));
    }
}

/// Decode a row previously encoded with [`encode_row`]; advances `pos`.
pub fn decode_row(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
    let mut row = Vec::new();
    decode_row_into(buf, pos, &mut row)?;
    Ok(row)
}

/// [`decode_row`] into a row the caller reuses: `row` is overwritten
/// cell by cell, and a cell that already owns a buffer of the kind being
/// decoded into it is refilled in place — a scan that decodes record
/// after record of one table into one row allocates only when a cell
/// outgrows what it held before. On error `row` is left empty.
pub fn decode_row_into(buf: &[u8], pos: &mut usize, row: &mut Vec<Value>) -> Result<()> {
    decode_some_into(buf, pos, row, &[], false)
}

/// [`decode_row_into`] for a reader of some cells only: a cell whose
/// `read` entry is `false` has its tag and length checked and its bytes
/// stepped over — not decoded, not validated as UTF-8 — and is left
/// NULL; a cell past the end of `read` is decoded. So a damaged tag or
/// length anywhere in the record is still the typed error it always
/// was, while the text of a skipped cell is taken on trust: a record
/// enters a heap only as `encode_row` of typed values or through a
/// snapshot load that decodes every cell of it, and a relation only as
/// `encode_row` or through [`Records::push_checked`] (DESIGN.md,
/// "skipped cells"). With `links_as_clob` a DATALINK cell decodes as a
/// CLOB of its URL.
pub fn decode_some_into(
    buf: &[u8],
    pos: &mut usize,
    row: &mut Vec<Value>,
    read: &[bool],
    links_as_clob: bool,
) -> Result<()> {
    decode_walk(buf, pos, row, read, links_as_clob, |_| {})
}

/// [`decode_some_into`] of the record `buf` holds, appending each cell's
/// whole encoding to `cells` as the one walk steps over it (on error,
/// some may have been appended).
pub(crate) fn decode_cells_into<'a>(
    buf: &'a [u8],
    row: &mut Vec<Value>,
    read: &[bool],
    links_as_clob: bool,
    cells: &mut Vec<&'a [u8]>,
) -> Result<()> {
    let lend = |at: Range<usize>| cells.extend(buf.get(at));
    decode_walk(buf, &mut 0, row, read, links_as_clob, lend)
}

/// [`decode_some_into`], lending where each cell's whole encoding lies
/// in `buf` to `cell`.
#[inline(always)]
fn decode_walk(
    buf: &[u8],
    pos: &mut usize,
    row: &mut Vec<Value>,
    read: &[bool],
    links_as_clob: bool,
    mut cell: impl FnMut(Range<usize>),
) -> Result<()> {
    let decoded = cell_count(buf, pos).and_then(|n| {
        row.truncate(n);
        row.reserve_exact(n - row.len());
        for i in 0..n {
            let at = *pos;
            let (tag, payload) = next_cell(buf, pos)?;
            cell(at..*pos);
            if i == row.len() {
                row.push(Value::Null);
            }
            // A CLOB cell is a DATALINK's bytes under another tag.
            let tag = if links_as_clob && tag == 9 { 8 } else { tag };
            match read.get(i) {
                Some(false) => row[i] = Value::Null,
                _ => decode_cell(tag, payload, &mut row[i])?,
            }
        }
        Ok(())
    });
    if decoded.is_err() {
        row.clear();
    }
    decoded
}

/// Check the record at `pos` in `buf` as [`decode_row`] would — every
/// tag and length, and the text of every string cell as UTF-8 — without
/// decoding any cell, raising its first error; lend each cell's tag and
/// payload to `cell`, and move `pos` past the record. The one entry
/// check: a record is walked by it when it enters the process — a
/// snapshot load (`snapshot::check_record`), an `EMB1` frame accepted
/// ([`Records::push_checked`]) — and is trusted after, by the sieve and
/// by every skipped cell (DESIGN.md, "the skipped-cell rule").
pub(crate) fn sieve_record<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    mut cell: impl FnMut((u8, &'a [u8])),
) -> Result<()> {
    for _ in 0..cell_count(buf, pos)? {
        let (tag, payload) = next_cell(buf, pos)?;
        if matches!(tag, 3 | 8 | 9) {
            text(payload)?;
        }
        cell((tag, payload));
    }
    Ok(())
}

/// The cell count a record at `pos` starts with. Every cell takes at
/// least its tag byte: a count the input cannot hold is refused before
/// anything is reserved for it.
pub(crate) fn cell_count(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let count = buf.get(*pos..*pos + 4).ok_or_else(truncated)?;
    *pos += 4;
    let n = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
    match n > buf.len() - *pos {
        true => Err(truncated()),
        false => Ok(n),
    }
}

/// The decoder's error on a record that a trusted walk ([`step_cell`])
/// could not step.
#[cold]
pub(crate) fn shape_error(record: &[u8]) -> DbError {
    decode_row(record, &mut 0).err().unwrap_or_else(truncated)
}

/// The decoder's error for a record that ends before a cell it holds:
/// also a reader's for a record with fewer cells than its columns.
#[cold]
pub fn truncated() -> DbError {
    DbError::Storage("row decode: truncated".into())
}

/// One cell step, raising the decoder's error where the bytes at `pos`
/// are not a cell: [`step_cell`] with a diagnosis on the cold path.
#[inline]
pub(crate) fn next_cell<'a>(buf: &'a [u8], pos: &mut usize) -> Result<(u8, &'a [u8])> {
    step_cell(buf, pos).ok_or_else(|| cell_error(buf, *pos))
}

/// Why [`step_cell`] could not step the cell at `pos`: a tag no cell
/// has, or bytes that end inside the cell.
#[cold]
fn cell_error(buf: &[u8], pos: usize) -> DbError {
    match buf.get(pos) {
        Some(&t) if t > 9 => DbError::Storage(format!("row decode: bad tag {t}")),
        _ => truncated(),
    }
}

/// The only code that reads a record's shape: the tag byte at `pos`,
/// then the payload it implies (nothing, 8 bytes, or a u32 length and
/// that many bytes), checked to lie inside `buf`; moves `pos` past the
/// cell. `None` where the bytes are not a cell, and `pos` left where it
/// was. What a trusted walk — of a record in a heap or an arena, checked
/// when it entered (DESIGN.md, "the skipped-cell rule") — steps with,
/// the sieve's and a grouping's that folds cells: building no error, it
/// measured ≈ 12 ns a row faster in the sieve's walk to a fifth cell
/// than a step that does; [`next_cell`] raises.
#[inline(always)]
pub(crate) fn step_cell<'a>(buf: &'a [u8], pos: &mut usize) -> Option<(u8, &'a [u8])> {
    let at = *pos;
    let tag = *buf.get(at)?;
    let (start, len) = match tag {
        0 | 4 | 5 => (at + 1, 0),
        1 | 2 | 6 => (at + 1, 8),
        3 | 7..=9 => match buf.get(at + 1..at + 5)? {
            &[a, b, c, d] => (at + 5, u32::from_le_bytes([a, b, c, d]) as usize),
            _ => return None,
        },
        _ => return None,
    };
    let payload = buf.get(start..start + len)?;
    *pos = start + len;
    Some((tag, payload))
}

/// The value of a cell that owns no buffer — NULL, a number, a boolean
/// — or `None` for a string or blob.
#[inline]
pub(crate) fn scalar_cell(tag: u8, payload: &[u8]) -> Option<Value> {
    let word = || i64::from_le_bytes(payload.try_into().expect("8-byte cell"));
    Some(match tag {
        0 => Value::Null,
        1 => Value::Int(word()),
        2 => Value::Double(f64::from_bits(word() as u64)),
        4 => Value::Bool(false),
        5 => Value::Bool(true),
        6 => Value::Timestamp(word()),
        _ => return None,
    })
}

fn text(payload: &[u8]) -> Result<&str> {
    std::str::from_utf8(payload).map_err(|_| DbError::Storage("row decode: bad utf8".into()))
}

/// Decode a cell [`next_cell`] stepped over into `cell`, refilling the
/// buffer it owns when it already holds that kind.
#[inline]
pub(crate) fn decode_cell(tag: u8, payload: &[u8], cell: &mut Value) -> Result<()> {
    match (tag, &mut *cell) {
        (3, Value::Str(s)) | (8, Value::Clob(s)) | (9, Value::Datalink(s)) => {
            s.clear();
            s.push_str(text(payload)?);
        }
        (7, Value::Blob(b)) => {
            b.clear();
            b.extend_from_slice(payload);
        }
        (3, _) => *cell = Value::Str(text(payload)?.to_owned()),
        (7, _) => *cell = Value::Blob(payload.to_vec()),
        (8, _) => *cell = Value::Clob(text(payload)?.to_owned()),
        (9, _) => *cell = Value::Datalink(text(payload)?.to_owned()),
        _ => *cell = scalar_cell(tag, payload).expect("a tag `next_cell` yields"),
    }
    Ok(())
}

/// `==` on rows, except that a double equals the double with its bits
/// (a NaN itself, `-0.0` not `0.0`): what tests compare decoded rows and
/// index keys with.
#[cfg(test)]
pub(crate) fn same_cells(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An integer's text is `Display`'s, at both ends of the range.
    #[test]
    fn display_text_of_an_integer_is_its_display() {
        let mut scratch = String::new();
        for i in [0, 7, -7, 10, 85_000_049, -100, i64::MAX, i64::MIN] {
            let v = Value::Int(i);
            assert_eq!(v.display_text(&mut scratch), v.to_string());
        }
        let s = Value::Str("x".into());
        assert_eq!(s.display_text(&mut scratch), "x");
        assert_eq!(Value::Double(-0.5).display_text(&mut scratch), "-0.5");
    }

    /// The digit writer, two digits at a time, writes what `Display`
    /// writes, at every count of digits and both ends of `i64`.
    #[test]
    fn digits_are_the_display_of_the_number() {
        let tens = (0..19).map(|e| 10i64.pow(e));
        let edges = tens.flat_map(|t| [t - 1, t, t + 1, -t]);
        let mut out = String::new();
        for n in (-1000..20_000)
            .chain(edges)
            .chain([i64::MIN, i64::MIN + 1, i64::MAX])
        {
            out.clear();
            push_digits(&mut out, n < 0, n.unsigned_abs());
            assert_eq!(out, n.to_string());
        }
    }

    /// A record's cell shows the text its value does, for every kind,
    /// its text read straight from the payload.
    #[test]
    fn display_text_of_a_cell_is_its_values() {
        let row = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-7),
            Value::Double(-0.0),
            Value::Double(300.0),
            Value::Double(1.5),
            Value::Double(f64::NAN),
            Value::Str("<a & b>".into()),
            Value::Bool(false),
            Value::Bool(true),
            Value::Timestamp(1_000),
            Value::Timestamp(-3),
            Value::Blob(vec![0, 1, 2]),
            Value::Clob("notes".into()),
            Value::Datalink("http://fs1/data/t1.edf".into()),
        ];
        let mut record = Vec::new();
        encode_row(&row, &mut record);
        let (mut walk, mut scratch) = (CellWalk::default(), String::new());
        walk.walk(&record).unwrap();
        assert_eq!(walk.len(), row.len());
        for (i, v) in row.iter().enumerate() {
            let cell = walk.cell(&record, i).unwrap();
            assert_eq!(cell.display_text(&mut scratch).unwrap(), v.to_string());
            assert_eq!(cell.display_bytes(&mut scratch), v.to_string().as_bytes());
            assert_eq!(cell.lob_size(), v.lob_size(), "{v:?}");
            assert_eq!(cell.is_null(), v.is_null());
        }
        assert!(walk.cell(&record, row.len()).is_none());
    }

    /// A record cut anywhere, or with a tag that is no tag, does not
    /// walk, and text that is not UTF-8 is refused where it is read as
    /// text; neither panics.
    #[test]
    fn a_record_that_does_not_walk_is_an_error() {
        let mut record = Vec::new();
        encode_row(&[Value::Str("abc".into()), Value::Int(1)], &mut record);
        let mut walk = CellWalk::default();
        for cut in 0..record.len() {
            assert!(walk.walk(&record[..cut]).is_err(), "cut at {cut}");
            assert!(walk.is_empty());
        }
        let mut bad_tag = record.clone();
        bad_tag[4] = 0xEE;
        let refused = Err(DbError::Storage("row decode: bad tag 238".into()));
        assert_eq!(walk.walk(&bad_tag), refused);
        let mut not_text = record.clone();
        not_text[9] = 0xFF;
        walk.walk(&not_text).unwrap();
        let cell = walk.cell(&not_text, 0).unwrap();
        let bad_utf8 = Err(DbError::Storage("row decode: bad utf8".into()));
        assert_eq!(
            cell.display_text(&mut String::new()).map(str::len),
            bad_utf8
        );
    }

    /// A double's text is `Display`'s, integral or not, on both sides of
    /// the digit writer's 10^15 limit and at the kinds it leaves alone.
    #[test]
    fn display_text_of_a_double_is_its_display() {
        let mut scratch = String::new();
        let limit = 1e15;
        for d in [
            0.0,
            -0.0,
            300.0,
            -7.0,
            1.5,
            -1e-7,
            limit - 1.0,
            -(limit - 1.0),
            limit,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let v = Value::Double(d);
            assert_eq!(v.display_text(&mut scratch), v.to_string(), "{d:?}");
        }
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(5).coerce(SqlType::Double).unwrap(),
            Value::Double(5.0)
        );
        assert_eq!(
            Value::Double(5.0).coerce(SqlType::Integer).unwrap(),
            Value::Int(5)
        );
        assert!(Value::Double(5.5).coerce(SqlType::Integer).is_err());
        assert_eq!(
            Value::Str("x".into()).coerce(SqlType::Clob).unwrap(),
            Value::Clob("x".into())
        );
        assert_eq!(
            Value::Str("http://h/f".into())
                .coerce(SqlType::Datalink)
                .unwrap(),
            Value::Datalink("http://h/f".into())
        );
        assert!(Value::Null.coerce(SqlType::Integer).unwrap().is_null());
    }

    #[test]
    fn varchar_length_enforced() {
        assert!(Value::Str("abcd".into())
            .coerce(SqlType::Varchar(3))
            .is_err());
        assert!(Value::Str("abc".into()).coerce(SqlType::Varchar(3)).is_ok());
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Int(3)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Int(1)),
            None,
            "incomparable types"
        );
        // `self` against `other`, either way round and across kinds.
        let vals = [
            Value::Int(2),
            Value::Timestamp(3),
            Value::Double(2.5),
            Value::Str("b".into()),
            Value::Clob("a".into()),
            Value::Clob("c".into()),
            Value::Datalink("d".into()),
        ];
        for a in &vals {
            for b in &vals {
                let back = b.sql_cmp(a).map(Ordering::reverse);
                assert_eq!(a.sql_cmp(b), back, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(
            Value::Clob("c".into()).sql_cmp(&Value::Str("b".into())),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn total_cmp_is_total() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(0),
            Value::Int(3),
            Value::Double(2.5),
            Value::Double(3.0),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Timestamp(100),
            Value::Timestamp(3),
            Value::Timestamp(0),
            Value::Str("a".into()),
            Value::Clob("b".into()),
            Value::Datalink("c".into()),
            Value::Blob(vec![1]),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "{a:?} vs {b:?}");
                // Transitivity, equality included: whatever `a ? b` and
                // `b ? c` agree on (reading `=` as either), `a ? c` says.
                for c in &vals {
                    let (bc, ac) = (b.total_cmp(c), a.total_cmp(c));
                    if ab == bc || bc == Ordering::Equal {
                        assert_eq!(ac, ab, "{a:?} {b:?} {c:?}");
                    } else if ab == Ordering::Equal {
                        assert_eq!(ac, bc, "{a:?} {b:?} {c:?}");
                    }
                }
            }
            assert_eq!(a.total_cmp(a), Ordering::Equal);
        }
    }

    #[test]
    fn nan_sorts_after_every_number_and_zeros_stay_equal() {
        let nan = Value::Double(f64::NAN);
        let other_nan = Value::Double(-f64::from_bits(0x7ff8_0000_0000_beef));
        assert_eq!(nan.total_cmp(&other_nan), Ordering::Equal);
        for v in [
            Value::Double(f64::INFINITY),
            Value::Int(i64::MAX),
            Value::Timestamp(0),
            Value::Double(-1.0),
        ] {
            assert_eq!(nan.total_cmp(&v), Ordering::Greater, "{v:?}");
            assert_eq!(v.total_cmp(&nan), Ordering::Less, "{v:?}");
        }
        assert_eq!(nan.total_cmp(&Value::Str(String::new())), Ordering::Less);
        assert_eq!(
            Value::Double(-0.0).total_cmp(&Value::Double(0.0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Double(-0.0).total_cmp(&Value::Int(0)),
            Ordering::Equal
        );
    }

    #[test]
    fn row_codec_round_trip() {
        let row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Double(3.25),
            Value::Str("héllo".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(123456789),
            Value::Blob(vec![0, 1, 2, 255]),
            Value::Clob("large text".into()),
            Value::Datalink("http://fs1/data/t1.edf".into()),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let mut pos = 0;
        let back = decode_row(&buf, &mut pos).unwrap();
        assert_eq!(back, row);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn row_codec_rejects_truncation() {
        let row = vec![Value::Str("abcdef".into())];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for cut in [1, 4, 6, buf.len() - 1] {
            let mut pos = 0;
            assert!(decode_row(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    /// Apart from the rest: the test macro names `Result` itself.
    mod scratch_row {
        use crate::value::{
            decode_row, decode_row_into, decode_some_into, encode_row, same_cells, Value,
        };
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        /// A row of 0..8 cells of every variant, strings of 0..40 bytes.
        fn any_row(rng: &mut StdRng) -> Vec<Value> {
            let text = |rng: &mut StdRng| -> String {
                let len = rng.gen_range(0..20);
                (0..len)
                    .map(|_| ['a', 'é', '%', 'Z'][rng.gen_range(0..4usize)])
                    .collect()
            };
            (0..rng.gen_range(0..8))
                .map(|_| match rng.gen_range(0..9) {
                    0 => Value::Null,
                    1 => Value::Int(rng.next_u64() as i64),
                    2 => match rng.gen_range(0..4) {
                        // Any bit pattern: NaNs with payloads, ±0.0, ±inf.
                        0 => Value::Double(f64::from_bits(rng.next_u64())),
                        1 => Value::Double(f64::from_bits(0x7ff0_0000_0000_0001 | rng.next_u64())),
                        2 => Value::Double(-0.0),
                        _ => Value::Double(rng.gen_range(-1e9..1e9)),
                    },
                    3 => Value::Str(text(rng)),
                    4 => Value::Bool(rng.gen_bool(0.5)),
                    5 => Value::Timestamp(rng.next_u64() as i64),
                    6 => Value::Blob(text(rng).into_bytes()),
                    7 => Value::Clob(text(rng)),
                    _ => Value::Datalink(text(rng)),
                })
                .collect()
        }

        proptest::proptest! {
            /// The encoding is canonical: a record that decodes re-encodes
            /// to its own bytes — NaN payloads and the sign of zero
            /// included — so comparing records is comparing rows (WAL
            /// replay finds a logged row by its bytes). Also for bytes
            /// nobody encoded: a mutated record either fails to decode or
            /// is the encoding of what it decodes to.
            #[test]
            fn a_record_that_decodes_reencodes_to_itself(seed in proptest::prelude::any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..8 {
                    let row = any_row(&mut rng);
                    let mut rec = Vec::new();
                    encode_row(&row, &mut rec);
                    let mut pos = 0;
                    let back = decode_row(&rec, &mut pos).unwrap();
                    proptest::prop_assert!(same_cells(&back, &row), "{back:?} vs {row:?}");
                    proptest::prop_assert_eq!(pos, rec.len());
                    let mut again = Vec::new();
                    encode_row(&back, &mut again);
                    proptest::prop_assert_eq!(&again, &rec);

                    let at = rng.gen_range(0..rec.len());
                    rec[at] ^= 1u8 << rng.gen_range(0..8u32);
                    let mut pos = 0;
                    if let Ok(mutant) = decode_row(&rec, &mut pos) {
                        again.clear();
                        encode_row(&mutant, &mut again);
                        proptest::prop_assert_eq!(&again[..], &rec[..pos]);
                    }
                }
            }

            /// Whatever the scratch row held before — other widths, other
            /// variants, longer and shorter strings — decoding into it is
            /// `decode_row`; damaged input is the same typed error, and
            /// nothing of the rows before it shows in the next decode.
            #[test]
            fn decoding_into_a_dirty_row_is_decode_row(seed in proptest::prelude::any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut scratch = any_row(&mut rng);
                for _ in 0..8 {
                    let row = any_row(&mut rng);
                    let mut buf = Vec::new();
                    encode_row(&row, &mut buf);
                    buf.extend_from_slice(b"next record");
                    let (mut pos, mut at) = (0, 0);
                    decode_row_into(&buf, &mut pos, &mut scratch).unwrap();
                    proptest::prop_assert!(same_cells(&scratch, &decode_row(&buf, &mut at).unwrap()));
                    proptest::prop_assert!(same_cells(&scratch, &row));
                    proptest::prop_assert_eq!(pos, at);

                    // Cut short, or with one tag byte that is no tag.
                    let mut bad = buf[..pos].to_vec();
                    if row.is_empty() || rng.gen_bool(0.5) {
                        bad.truncate(rng.gen_range(0..pos));
                    } else {
                        bad[4] = rng.gen_range(10..255u8);
                    }
                    let mut dirty = scratch.clone();
                    let raised = decode_row_into(&bad, &mut 0, &mut dirty).unwrap_err();
                    proptest::prop_assert_eq!(&raised, &decode_row(&bad, &mut 0).unwrap_err());
                    proptest::prop_assert!(matches!(raised, crate::DbError::Storage(_)));
                    proptest::prop_assert!(dirty.is_empty());
                    let next = any_row(&mut rng);
                    buf.clear();
                    encode_row(&next, &mut buf);
                    decode_row_into(&buf, &mut 0, &mut dirty).unwrap();
                    proptest::prop_assert!(same_cells(&dirty, &next));
                }
            }

            /// Decoding some cells is decoding them all and forgetting the
            /// rest: a skipped cell is NULL, a read one is `decode_row`'s,
            /// the record is consumed to its end, and a record cut short
            /// or carrying a bad tag is the same typed error whatever is
            /// read.
            #[test]
            fn decoding_some_cells_forgets_the_rest(seed in proptest::prelude::any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut scratch = any_row(&mut rng);
                for _ in 0..8 {
                    let row = any_row(&mut rng);
                    let read: Vec<bool> = (0..rng.gen_range(0..10)).map(|_| rng.gen_bool(0.5)).collect();
                    let mut buf = Vec::new();
                    encode_row(&row, &mut buf);
                    let mut pos = 0;
                    decode_some_into(&buf, &mut pos, &mut scratch, &read, false).unwrap();
                    proptest::prop_assert_eq!(pos, buf.len());
                    let forgot: Vec<Value> = row
                        .iter()
                        .enumerate()
                        .map(|(i, v)| if read.get(i) == Some(&false) { Value::Null } else { v.clone() })
                        .collect();
                    proptest::prop_assert!(same_cells(&scratch, &forgot), "{scratch:?} vs {forgot:?}");

                    if row.is_empty() || rng.gen_bool(0.5) {
                        buf.truncate(rng.gen_range(0..buf.len()));
                    } else {
                        buf[4] = rng.gen_range(10..255u8);
                    }
                    let raised = decode_some_into(&buf, &mut 0, &mut scratch, &read, false).unwrap_err();
                    proptest::prop_assert_eq!(&raised, &decode_row(&buf, &mut 0).unwrap_err());
                    proptest::prop_assert!(scratch.is_empty());
                }
            }
        }
    }

    /// DISTINCT keys an output record by its cells (`key_cells`), GROUP BY
    /// a row by its values (`encode_key_cell`): over the cells where the
    /// two could part — NaNs of either sign and any payload, ±0.0, `1`
    /// beside `1.0`, one text as VARCHAR, CLOB and DATALINK, blobs, NULL —
    /// both write the same bytes, one cell or several at a time.
    #[test]
    fn key_cells_of_a_record_are_the_key_of_its_values() {
        let edges = [
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(f64::from_bits(0x7FF0_0000_0000_0001)),
            Value::Double(f64::from_bits(0xFFF8_0000_DEAD_BEEF)),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(1.0),
            Value::Int(1),
            Value::Str("t".into()),
            Value::Clob("t".into()),
            Value::Datalink("t".into()),
            Value::Blob(vec![]),
            Value::Blob(vec![0, 1]),
            Value::Null,
        ];
        let key_of = |row: &[Value]| {
            let (mut record, mut by_cells, mut by_values) = (Vec::new(), Vec::new(), Vec::new());
            encode_row(row, &mut record);
            key_cells(&record, &mut by_cells);
            row.iter().for_each(|v| encode_key_cell(v, &mut by_values));
            assert_eq!(by_cells, by_values, "{row:?}");
            by_cells
        };
        key_of(&edges);
        for a in &edges {
            for b in &edges {
                key_of(&[a.clone(), b.clone()]);
            }
        }
        // The key's classes: every NaN is one, ±0.0 one; kinds stay apart.
        let key = |v: Value| key_of(&[v]);
        assert!(edges[..4]
            .iter()
            .all(|v| key(v.clone()) == key(edges[0].clone())));
        assert_eq!(key(Value::Double(0.0)), key(Value::Double(-0.0)));
        assert_ne!(key(Value::Double(1.0)), key(Value::Int(1)));
        let texts = [&edges[8], &edges[9], &edges[10]].map(|v| key(v.clone()));
        assert!(texts[0] != texts[1] && texts[1] != texts[2] && texts[0] != texts[2]);
    }

    #[test]
    fn lob_size_reporting() {
        assert_eq!(Value::Blob(vec![0; 10]).lob_size(), Some(10));
        assert_eq!(Value::Clob("abc".into()).lob_size(), Some(3));
        assert_eq!(Value::Int(1).lob_size(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Blob(vec![1, 2]).to_string(), "<blob 2 bytes>");
        // `display_text` is `to_string` through a reused buffer.
        let mut scratch = String::from("left over");
        for v in [
            Value::Null,
            Value::Int(-7),
            Value::Double(2.5),
            Value::Str("s".into()),
            Value::Bool(false),
            Value::Timestamp(9),
            Value::Blob(vec![0]),
            Value::Clob("c".into()),
            Value::Datalink("http://h/f".into()),
        ] {
            assert_eq!(v.display_text(&mut scratch), v.to_string());
        }
    }
}
