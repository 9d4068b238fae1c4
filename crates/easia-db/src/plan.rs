//! Access-path selection.
//!
//! The QBE interface generates WHERE clauses that are conjunctions of
//! per-column restrictions (`=`, `<`, `<=`, `>`, `>=`, `LIKE`); the
//! planner binds them to the leading columns of an index and turns a
//! full scan into one ordered walk of that index, and lowers the same
//! restrictions, once, into a `Sieve`: typed tests the executor makes of
//! every record the path visits, on its bytes. The index narrows, its
//! bounds inclusive supersets; the sieve narrows and decides the
//! conjuncts its tests decide exactly; the executor's filter decides the
//! rest. A path or a sieve is chosen only when skipping the other rows
//! cannot change what the statement returns *or raises* (see
//! [`Scope::total`]). The planner reads the statement's bound form: its
//! names were resolved, once, when it was bound.

use crate::db::Table;
use crate::error::Result;
use crate::expr::{Bound, EvalContext, RowSchema};
use crate::index::btree::key_of;
use crate::schema::TableSchema;
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::value::{order_key, step_cell, SqlType, Value};
use crate::Database;
use std::cmp::Ordering;

/// How the executor will fetch a table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every live row.
    FullScan,
    /// Walk `index_name` over the keys whose leading columns equal `eq`
    /// and whose next column satisfies `tail`.
    IndexRange {
        /// The chosen index name (for EXPLAIN-style reporting).
        index_name: String,
        /// Position of the index in `Table::indexes`.
        index_pos: usize,
        /// Values of the leading key columns, in key order.
        eq: Vec<Value>,
        /// The restriction on the key column after them.
        tail: Tail,
    },
}

/// What an [`AccessPath::IndexRange`] demands of the key column that
/// follows its equality run.
#[derive(Debug, Clone, PartialEq)]
pub enum Tail {
    /// Nothing: every key under the equality run (or no column is left).
    All,
    /// A value in `[lo, hi]`, both ends inclusive, either may be open.
    Range {
        /// Lower bound.
        lo: Option<Value>,
        /// Upper bound.
        hi: Option<Value>,
    },
    /// A string starting with this non-empty literal.
    Prefix(String),
}

impl Tail {
    /// The least value the tail column can take, when there is one:
    /// where a walk of the index seeks to.
    pub fn lower_bound(&self) -> Option<Value> {
        match self {
            Tail::Range { lo, .. } => lo.clone(),
            Tail::Prefix(p) => Some(Value::Str(p.clone())),
            Tail::All => None,
        }
    }

    /// False once `v`, met walking up from [`Tail::lower_bound`], has
    /// left the tail.
    pub fn admits(&self, v: &Value) -> bool {
        match self {
            Tail::Range { hi: Some(hi), .. } => v.total_cmp(hi) != Ordering::Greater,
            Tail::Prefix(p) => v.as_text().is_some_and(|s| s.starts_with(p.as_str())),
            _ => true,
        }
    }

    /// The walk of an index's order keys under the equality run `eq`
    /// and this tail, as byte bounds.
    pub fn key_range(&self, eq: &[Value]) -> KeyRange {
        let run = key_of(eq);
        let (mut lo, mut hi) = (run.clone(), run.clone());
        if let Some(v) = self.lower_bound() {
            order_key(&v, false, &mut lo);
        }
        match self {
            Tail::Range { hi: Some(v), .. } => order_key(v, false, &mut hi),
            Tail::Prefix(p) => {
                // The text cell of `p`, without its terminator: what the
                // key of every text starting with `p` starts with.
                order_key(&Value::Str(p.clone()), false, &mut hi);
                hi.truncate(hi.len() - 2);
            }
            _ => {}
        }
        let (run, prefix) = (run.len(), matches!(self, Tail::Prefix(_)));
        KeyRange {
            lo,
            run,
            hi,
            prefix,
        }
    }
}

/// An index walk as bounds on order keys ([`Tail::key_range`]): it seeks
/// to `lo` — the equality run and the tail's lower bound — and takes
/// keys while [`KeyRange::admits`] them.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    /// Where the walk starts.
    pub lo: Vec<u8>,
    /// How long the equality run is, at the start of `hi`.
    run: usize,
    /// The run and the tail's upper bound: a last key cell, or the
    /// unterminated text cell a `LIKE 'p%'` key starts with.
    hi: Vec<u8>,
    prefix: bool,
}

impl KeyRange {
    /// Is `key` in the walk: under the equality run, then not past the
    /// upper bound (its cell no greater, or starting it when the tail is
    /// a prefix)?
    pub fn admits(&self, key: &[u8]) -> bool {
        // No equality run, no `memcmp` call: ≈ 3 ns a key against ≈ 5.5
        // (a 2-core VM).
        (self.run == 0 || key.starts_with(&self.hi[..self.run]))
            && match self.prefix {
                true => key.starts_with(&self.hi),
                false => key[..key.len().min(self.hi.len())] <= self.hi[..],
            }
    }
}

/// Split a predicate into top-level AND conjuncts.
pub fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary(l, BinaryOp::And, r) => [conjuncts(l), conjuncts(r)].concat(),
        _ => vec![e],
    }
}

/// [`conjuncts`] of a bound predicate: binding keeps the tree's shape,
/// so the bound form of `conjuncts(e)[i]` is `bound_conjuncts(b)[i]`.
pub fn bound_conjuncts(b: &Bound) -> Vec<&Bound> {
    match b {
        Bound::Binary(l, BinaryOp::And, r) => [bound_conjuncts(l), bound_conjuncts(r)].concat(),
        _ => vec![b],
    }
}

/// Does `e` read nothing of the row?
fn is_const(e: &Bound) -> bool {
    match e {
        Bound::Value(_) | Bound::Param(_) => true,
        Bound::Unary(_, inner) => is_const(inner),
        Bound::Binary(l, op, r) => {
            !matches!(op, BinaryOp::And | BinaryOp::Or) && is_const(l) && is_const(r)
        }
        Bound::Call(_, args) => args.iter().all(is_const),
        _ => false,
    }
}

/// A stand-in for whatever non-NULL value a column of type `ty` holds:
/// stored rows are coerced to their column's type, so the variant is
/// the only thing a comparison's success depends on.
pub(crate) fn stand_in(ty: SqlType) -> Value {
    match ty {
        SqlType::Integer => Value::Int(0),
        SqlType::Double => Value::Double(0.0),
        SqlType::Varchar(_) => Value::Str(String::new()),
        SqlType::Boolean => Value::Bool(false),
        SqlType::Timestamp => Value::Timestamp(0),
        SqlType::Blob => Value::Blob(Vec::new()),
        SqlType::Clob => Value::Clob(String::new()),
        SqlType::Datalink => Value::Datalink(String::new()),
    }
}

/// The declared type of every slot of the rows a statement's WHERE and
/// ON clauses meet: the planned table's columns first, each JOIN leg's
/// after (`None` for an in-memory relation's).
#[derive(Default)]
pub struct Scope {
    types: Vec<Option<SqlType>>,
}

impl Scope {
    /// The scope of a single-table statement over `table`.
    pub fn of(table: &TableSchema) -> Self {
        let mut scope = Scope::default();
        scope.join(table.columns.len(), Some(table));
        scope
    }

    /// Append a leg `width` columns wide, typed by `table` when it is a
    /// catalogue table.
    pub fn join(&mut self, width: usize, table: Option<&TableSchema>) {
        match table {
            Some(t) => self.types.extend(t.columns.iter().map(|c| Some(c.ty))),
            None => self.types.extend(std::iter::repeat_n(None, width)),
        }
    }

    /// True when evaluating `e` cannot raise on any row of this scope.
    /// Narrowing a scan skips rows, and a skipped row cannot raise the
    /// error it would have raised under a full scan, so an index path
    /// is only sound under predicates that never raise.
    pub fn total(&self, e: &Bound, params: &[Value]) -> bool {
        self.kind(e, params).is_some()
    }

    /// A value of the kind `e` yields (its actual value when `e` is
    /// row-independent), or `None` when evaluating `e` could raise: an
    /// untyped column, a comparison `sql_cmp` refuses, `LIKE` over
    /// non-strings, arithmetic or a function over a column, a constant
    /// that fails to evaluate. NULL is a kind of its own that every
    /// operator accepts.
    fn kind(&self, e: &Bound, params: &[Value]) -> Option<Value> {
        if is_const(e) {
            return EvalContext::new(&[], params).eval(e).ok();
        }
        let kind = |e: &Bound| self.kind(e, params);
        let truth = Some(Value::Bool(false));
        match e {
            Bound::Slot(slot) => self.types[*slot].map(stand_in),
            Bound::Unary(UnaryOp::Not, inner) => kind(inner).and(truth),
            Bound::Binary(l, op, r) => {
                let (l, r) = (kind(l)?, kind(r)?);
                match op {
                    BinaryOp::And | BinaryOp::Or => truth,
                    BinaryOp::Eq
                    | BinaryOp::NotEq
                    | BinaryOp::Lt
                    | BinaryOp::LtEq
                    | BinaryOp::Gt
                    | BinaryOp::GtEq => (l.is_null() || r.is_null() || l.sql_cmp(&r).is_some())
                        .then_some(Value::Bool(false)),
                    _ => None,
                }
            }
            Bound::IsNull(expr, _) => kind(expr).and(truth),
            Bound::Like(expr, pattern, _) => {
                let text = |v: Value| v.is_null() || v.as_text().is_some();
                (text(kind(expr)?) && text(kind(pattern)?)).then_some(Value::Bool(false))
            }
            // Neither raises on operands it cannot compare: BETWEEN
            // yields NULL and IN moves on to the next item.
            Bound::Between(expr, lo, hi, _) => kind(expr).and(kind(lo)).and(kind(hi)).and(truth),
            Bound::InList(expr, list, _) => list
                .iter()
                .try_fold(kind(expr)?, |_, item| kind(item))
                .and(truth),
            _ => None,
        }
    }
}

/// The top-level conjuncts of `pred`, bound over a row `slots` wide,
/// that read only its first leg, `width` columns wide (a conjunct
/// reading no column at all is one of them), each beside its place among
/// [`bound_conjuncts`]. Such a conjunct reads the same values on the
/// leg's own row as on every joined row made from it, so when `pred` and
/// every ON are [`Scope::total`] it may filter the leg before the join:
/// like an index it only narrows, and the whole `pred` still decides on
/// the joined rows.
pub fn own_conjuncts(pred: &Bound, width: usize, slots: usize) -> Vec<(usize, &Bound)> {
    let own = |(_, c): &(usize, &Bound)| {
        let mut read = vec![false; slots];
        c.reads(&mut read);
        !read[width..].contains(&true)
    };
    bound_conjuncts(pred)
        .into_iter()
        .enumerate()
        .filter(own)
        .collect()
}

/// What the WHERE's top-level conjuncts demand of one column: the tail
/// an index walks, its bounds inclusive.
#[derive(Default, Clone, PartialEq)]
struct Restriction {
    eq: Option<Value>,
    lo: Option<Value>,
    hi: Option<Value>,
    prefix: Option<String>,
}

/// A test of one cell of a stored record on its bytes, lowered once from
/// a restriction for the column's declared type: the cell's order
/// against a constant, or whether its text starts with one. Each
/// restricting conjunct lowers to its own tests, bounds with their
/// strictness, so a conjunct whose tests are exact is decided by them.
struct Test {
    cell: usize,
    on: Operand,
    /// The orders of the cell against `on` (less, equal, greater) that
    /// keep the row: `<` keeps less, `>=` equal and greater.
    keeps: [bool; 3],
}

/// What a [`Test`] holds a cell against.
enum Operand {
    /// Text bytes, which a VARCHAR, CLOB or DATALINK cell orders against
    /// as `Value::sql_cmp`'s `str::cmp` does: by its bytes.
    Text(Box<[u8]>),
    /// The literal a `LIKE` pattern starts with.
    Prefix(Box<[u8]>),
    /// An INTEGER or TIMESTAMP cell's word, ordered as an `i64`.
    Int(i64),
    /// A number an INTEGER or DOUBLE cell is ordered against as an `f64`,
    /// an INTEGER converted first, as `sql_cmp` converts it.
    Double(f64),
}

/// What a test makes of one cell.
enum Outcome {
    Holds,
    Fails,
    /// The cell is not what the column's cells are, or a NaN: only the
    /// evaluator can say.
    Unsure,
}

impl Test {
    /// The test of `col <op> v` (`op` oriented column-first) on cell
    /// `cell` of a column of type `ty`, when it can be lowered exactly:
    /// `sql_cmp` orders the column's kind against `v`, and the cell's
    /// bytes order as `sql_cmp` orders its value.
    fn lower(cell: usize, ty: SqlType, op: BinaryOp, v: &Value) -> Option<Test> {
        let keeps = match op {
            BinaryOp::Eq => [false, true, false],
            BinaryOp::Lt => [true, false, false],
            BinaryOp::LtEq => [true, true, false],
            BinaryOp::Gt => [false, false, true],
            BinaryOp::GtEq => [false, true, true],
            _ => return None,
        };
        stand_in(ty).sql_cmp(v)?;
        let on = match (ty, v) {
            (SqlType::Varchar(_) | SqlType::Clob | SqlType::Datalink, v) => {
                Operand::Text(v.as_text()?.as_bytes().into())
            }
            (SqlType::Integer | SqlType::Timestamp, Value::Int(i) | Value::Timestamp(i)) => {
                Operand::Int(*i)
            }
            (SqlType::Integer | SqlType::Double, Value::Double(d)) => Operand::Double(*d),
            (SqlType::Double, Value::Int(i)) => Operand::Double(*i as f64),
            _ => return None,
        };
        Some(Test { cell, on, keeps })
    }

    /// The test of a text starting with `lit`.
    fn prefix(cell: usize, lit: &str) -> Test {
        Test {
            cell,
            on: Operand::Prefix(lit.as_bytes().into()),
            keeps: [false; 3],
        }
    }

    /// What the conjunct this test was lowered from makes of a cell of
    /// tag `tag` holding `payload`: NULL fails every test, as no
    /// comparison and no `LIKE` holds of it.
    #[inline]
    fn check(&self, tag: u8, payload: &[u8]) -> Outcome {
        let word = || <[u8; 8]>::try_from(payload).ok().map(i64::from_le_bytes);
        let order = match (&self.on, tag) {
            (_, 0) => return Outcome::Fails,
            (Operand::Prefix(p), 3 | 8 | 9) => {
                // The first byte before the rest: most texts a prefix
                // refuses differ there, and it costs no call.
                let starts = match p.first() {
                    None => true,
                    Some(b) => payload.first() == Some(b) && payload.starts_with(p),
                };
                return match starts {
                    true => Outcome::Holds,
                    false => Outcome::Fails,
                };
            }
            // An empty side orders by length alone, without a `memcmp`
            // of nothing (slow over a dangling pointer on some libcs).
            (Operand::Text(t), 3 | 8 | 9) if t.is_empty() || payload.is_empty() => {
                Some(payload.len().cmp(&t.len()))
            }
            (Operand::Text(t), 3 | 8 | 9) => Some(payload.cmp(t)),
            (Operand::Int(v), 1 | 6) => word().map(|w| w.cmp(v)),
            (Operand::Double(v), 1) => word().and_then(|w| (w as f64).partial_cmp(v)),
            (Operand::Double(v), 2) => word().and_then(|w| f64::from_bits(w as u64).partial_cmp(v)),
            _ => None,
        };
        match order {
            Some(o) if self.keeps[(o as i8 + 1) as usize] => Outcome::Holds,
            Some(_) => Outcome::Fails,
            None => Outcome::Unsure,
        }
    }
}

/// The tests a total WHERE's top-level conjuncts make of the planned
/// table's records (none when the WHERE is not total), in cell order,
/// and which conjuncts they decide. `exec::fetch` tests every record it
/// visits against them on its bytes, before decoding it: like an index
/// the sieve narrows, and it decides exactly the conjuncts whose tests
/// are exact — typed `col = c`, the bounds `sql_cmp` orders exactly,
/// `LIKE 'lit%'` — so a row it decides is filtered by the other
/// conjuncts alone (DESIGN.md, "The sieve").
pub(crate) struct Sieve {
    tests: Vec<Test>,
    /// Per top-level conjunct of the WHERE ([`bound_conjuncts`] order):
    /// do its tests decide it?
    decided: Vec<bool>,
}

impl Sieve {
    /// The sieve that keeps every record and decides nothing.
    pub(crate) const NONE: Sieve = Sieve {
        tests: Vec::new(),
        decided: Vec::new(),
    };

    /// Does it decide the `i`th top-level conjunct of the WHERE on every
    /// row it calls [`Verdict::Decided`]?
    pub(crate) fn decides(&self, i: usize) -> bool {
        self.decided.get(i) == Some(&true)
    }

    /// This sieve as a scan of `schema`'s rows applies it, whose whole
    /// filter reads the cells `read` selects (an empty mask: every cell).
    pub(crate) fn over<'s>(&'s self, schema: &TableSchema, read: &'s [bool]) -> SieveScan<'s> {
        let may_be_nan =
            |&i: &usize| schema.columns[i].ty == SqlType::Double && read.get(i) != Some(&false);
        let nan_end = (0..schema.columns.len()).rev().find(may_be_nan);
        SieveScan {
            tests: &self.tests,
            read,
            nan_end: nan_end.map_or(0, |i| i + 1),
        }
    }
}

/// What the sieve makes of one record.
#[derive(Clone, Copy)]
pub(crate) enum Verdict {
    /// A test failed, and no DOUBLE cell the filter reads holds a NaN:
    /// the whole WHERE is not TRUE on the row.
    Refused,
    /// Every test held: the conjuncts the sieve decides are TRUE, and
    /// the others decide the row.
    Decided,
    /// The sieve cannot say: the whole WHERE decides the row.
    Kept,
}

/// A [`Sieve`] as one scan applies it ([`Sieve::over`]).
#[derive(Clone, Copy)]
pub(crate) struct SieveScan<'s> {
    tests: &'s [Test],
    read: &'s [bool],
    /// One past the last DOUBLE cell the filter reads: how far a refused
    /// record is walked on, for a NaN that keeps it.
    nan_end: usize,
}

impl SieveScan<'_> {
    /// The scan that keeps every record: a relation's, never sieved.
    pub(crate) const ALL: SieveScan<'static> = SieveScan {
        tests: &[],
        read: &[],
        nan_end: 0,
    };

    /// The [`Verdict`] on `record`, a stored row of the planned table,
    /// from its bytes. The record is trusted: it was checked when it
    /// entered the process (DESIGN.md, "the skipped-cell rule"), so no
    /// text is checked as UTF-8 here, no cell is decoded into a value,
    /// and the walk stops at the last tested cell — or, at the first
    /// failure, as soon as no later cell the filter reads could hold a
    /// NaN. A NaN in a DOUBLE cell the filter reads keeps the row for
    /// the whole WHERE, as every comparison raises on it (DESIGN.md,
    /// "the sieve"); so does a cell whose shape is not what a record's
    /// is, for the decoder to raise the typed error. Walks nothing when
    /// there are no tests, and allocates nothing.
    #[inline]
    pub(crate) fn keeps(&self, record: &[u8]) -> Verdict {
        if self.tests.is_empty() {
            return Verdict::Kept;
        }
        let (mut pos, mut cell) = (4, 0);
        // The tested cell last read: its place, tag and payload.
        let mut last: Option<(usize, u8, &[u8])> = None;
        for test in self.tests {
            let (tag, payload) = match last {
                Some((at, tag, payload)) if at == test.cell => (tag, payload),
                _ => {
                    if !self.step_over(record, &mut pos, &mut cell, test.cell) {
                        return Verdict::Kept;
                    }
                    let Some((tag, payload)) = step_cell(record, &mut pos) else {
                        return Verdict::Kept;
                    };
                    if tag == 2 && is_nan(payload) {
                        return Verdict::Kept;
                    }
                    last = Some((cell, tag, payload));
                    cell += 1;
                    (tag, payload)
                }
            };
            match test.check(tag, payload) {
                Outcome::Holds => {}
                // Past the last cell that could hold a NaN nothing keeps
                // the row.
                Outcome::Fails => {
                    return match self.step_over(record, &mut pos, &mut cell, self.nan_end) {
                        true => Verdict::Refused,
                        false => Verdict::Kept,
                    }
                }
                Outcome::Unsure => return Verdict::Kept,
            }
        }
        Verdict::Decided
    }

    /// Step over the cells of `record` from `cell`, at `pos`, up to cell
    /// `to`; false at a NaN in a DOUBLE cell the filter reads, or at
    /// bytes that are not a cell.
    #[inline(always)]
    fn step_over(&self, record: &[u8], pos: &mut usize, cell: &mut usize, to: usize) -> bool {
        while *cell < to {
            match step_cell(record, pos) {
                Some((2, payload)) if self.read.get(*cell) != Some(&false) && is_nan(payload) => {
                    return false
                }
                Some(_) => *cell += 1,
                None => return false,
            }
        }
        true
    }
}

/// Is `payload`, a DOUBLE cell's, a NaN?
#[inline(always)]
fn is_nan(payload: &[u8]) -> bool {
    <[u8; 8]>::try_from(payload).map_or(true, |w| f64::from_le_bytes(w).is_nan())
}

impl Restriction {
    /// Tighten with `col <op> v` (`op` already oriented column-first).
    fn bound(&mut self, op: BinaryOp, v: Value) {
        let tighter = |old: &Option<Value>, want: Ordering| {
            old.as_ref().is_none_or(|o| v.total_cmp(o) == want)
        };
        match op {
            BinaryOp::Eq => self.eq = self.eq.take().or(Some(v)),
            BinaryOp::Gt | BinaryOp::GtEq if tighter(&self.lo, Ordering::Greater) => {
                self.lo = Some(v)
            }
            BinaryOp::Lt | BinaryOp::LtEq if tighter(&self.hi, Ordering::Less) => self.hi = Some(v),
            _ => {}
        }
    }

    /// The restriction as an index tail, `Tail::All` when there is none.
    fn tail(&self) -> Tail {
        match (&self.prefix, &self.lo, &self.hi) {
            (Some(p), ..) => Tail::Prefix(p.clone()),
            (None, None, None) => Tail::All,
            (None, lo, hi) => Tail::Range {
                lo: lo.clone(),
                hi: hi.clone(),
            },
        }
    }
}

/// The comparison that holds for `b op' a` whenever `a op b` does.
fn flipped(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Choose an access path for the single-table statement over `table`
/// (known as `table_alias`) given an optional WHERE clause, bound here
/// against the table's row: a name it does not know is the statement's
/// error.
pub fn choose_access_path(
    db: &Database,
    table: &Table,
    table_alias: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<AccessPath> {
    let names: Vec<String> = table
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let schema = RowSchema::for_table(table_alias, &names);
    let pred = where_clause.map(|w| schema.bind(w, db.functions(), &[]));
    Ok(choose_bound(table, pred.transpose()?.as_ref(), params).0)
}

/// [`choose_access_path`] under a WHERE already bound against the
/// table's row, with the WHERE's sieve.
pub(crate) fn choose_bound(
    table: &Table,
    pred: Option<&Bound>,
    params: &[Value],
) -> (AccessPath, Sieve) {
    match pred {
        Some(p) if Scope::of(&table.schema).total(p, params) => choose_in_scope(table, p, params),
        _ => (AccessPath::FullScan, Sieve::NONE),
    }
}

/// Choose an access path for `table`, the first leg of the row `pred`
/// is bound over, under a predicate the caller has checked to be
/// [`Scope::total`].
///
/// Every sargable top-level conjunct on the table — `col = c`,
/// `col {<,<=,>,>=} c` in either orientation, `col BETWEEN a AND b`,
/// `col LIKE 'lit%'` with `c` row-independent and not NULL — restricts
/// its column. Each index binds its longest run of leading columns by
/// equality plus at most one bounded or prefixed next column; the index
/// that binds most wins (more equalities, then a bounded tail, then
/// unique, then declaration order). `FullScan` when no index binds
/// anything. The restrictions are returned beside the path, as the
/// [`Sieve`] of every record it visits.
pub(crate) fn choose_in_scope(
    table: &Table,
    pred: &Bound,
    params: &[Value],
) -> (AccessPath, Sieve) {
    let width = table.schema.columns.len();
    // A column of the planned table and the constant it is held against.
    let own = |col: &Bound, konst: &Bound| -> Option<(usize, Value)> {
        let (Bound::Slot(slot), true) = (col, is_const(konst)) else {
            return None;
        };
        let v = EvalContext::new(&[], params).eval(konst).ok()?;
        (*slot < width && !v.is_null()).then_some((*slot, v))
    };
    let ty = |slot: usize| table.schema.columns[slot].ty;
    let mut restrictions = vec![Restriction::default(); width];
    let (mut tests, mut decided) = (Vec::new(), Vec::new());
    for c in bound_conjuncts(pred) {
        // Each restricting conjunct's tests, and whether they are exact.
        let (lowered, exact) = match c {
            Bound::Binary(l, op, r) => {
                let oriented = match own(l, r) {
                    Some((slot, v)) => Some((slot, *op, v)),
                    None => own(r, l).map(|(slot, v)| (slot, flipped(*op), v)),
                };
                match oriented {
                    Some((slot, op, v)) => {
                        let test = Test::lower(slot, ty(slot), op, &v);
                        restrictions[slot].bound(op, v);
                        let exact = test.is_some();
                        (test.into_iter().collect(), exact)
                    }
                    None => (Vec::new(), false),
                }
            }
            Bound::Between(expr, lo, hi, false) => match (own(expr, lo), own(expr, hi)) {
                // BETWEEN is total over operands it cannot compare, so
                // comparability is checked here (`Test::lower`), not by
                // `total`.
                (Some((slot, lo)), Some((_, hi))) => {
                    let lower = |op, v: &Value| Test::lower(slot, ty(slot), op, v);
                    match (lower(BinaryOp::GtEq, &lo), lower(BinaryOp::LtEq, &hi)) {
                        (Some(from), Some(to)) => {
                            restrictions[slot].bound(BinaryOp::GtEq, lo);
                            restrictions[slot].bound(BinaryOp::LtEq, hi);
                            (vec![from, to], true)
                        }
                        _ => (Vec::new(), false),
                    }
                }
                _ => (Vec::new(), false),
            },
            Bound::Like(expr, pattern, false) => match own(expr, pattern) {
                Some((slot, pat)) => {
                    let pat = pat.as_text().expect("a total LIKE has a string pattern");
                    let lit = pat.split(['%', '_']).next().unwrap_or_default();
                    let r = &mut restrictions[slot];
                    if r.prefix.as_ref().is_none_or(|p| lit.len() > p.len()) && !lit.is_empty() {
                        r.prefix = Some(lit.to_string());
                    }
                    // `'lit%'` holds of exactly the texts starting with
                    // `lit`; any other wildcard only narrows.
                    let exact = pat.len() == lit.len() + 1 && pat.ends_with('%');
                    match exact || !lit.is_empty() {
                        true => (vec![Test::prefix(slot, lit)], exact),
                        false => (Vec::new(), false),
                    }
                }
                None => (Vec::new(), false),
            },
            _ => (Vec::new(), false),
        };
        tests.extend(lowered);
        decided.push(exact);
    }
    // The walk meets the tests in cell order.
    tests.sort_by_key(|t| t.cell);
    let mut best = None;
    for (index_pos, ix) in table.indexes.iter().enumerate() {
        let mut eq = Vec::new();
        let mut tail = Tail::All;
        for &col in &ix.col_indices {
            match &restrictions[col].eq {
                Some(v) => eq.push(v.clone()),
                None => {
                    tail = restrictions[col].tail();
                    break;
                }
            }
        }
        if eq.is_empty() && tail == Tail::All {
            continue;
        }
        let score = (eq.len(), tail != Tail::All, ix.unique);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            let path = AccessPath::IndexRange {
                index_name: ix.name.clone(),
                index_pos,
                eq,
                tail,
            };
            best = Some((score, path));
        }
    }
    let path = best.map_or(AccessPath::FullScan, |(_, path)| path);
    (path, Sieve { tests, decided })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn where_of(sql: &str) -> Expr {
        match crate::sql::parse(sql).unwrap() {
            crate::sql::ast::Stmt::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        }
    }

    /// `RF(F, S, T, Z, NOTE)`: composite PK `(F, S)`, non-unique `IX_S`
    /// on `S`, `IX_T` on the integer `T`, `IX_Z` on the double `Z`.
    fn rf() -> Database {
        let mut db = Database::new_in_memory();
        db.execute(
            "CREATE TABLE rf (f VARCHAR(20), s VARCHAR(20), t INTEGER, z DOUBLE, \
             note VARCHAR(20), PRIMARY KEY (f, s))",
        )
        .unwrap();
        db.execute("CREATE INDEX ix_s ON rf (s)").unwrap();
        db.execute("CREATE INDEX ix_t ON rf (t)").unwrap();
        db.execute("CREATE INDEX ix_z ON rf (z)").unwrap();
        db
    }

    /// The path chosen for `SELECT * FROM rf WHERE <pred>`, rendered as
    /// `index eq.. | tail`, or the statement's error.
    fn path(db: &Database, pred: &str, params: &[Value]) -> String {
        let w = where_of(&format!("SELECT * FROM rf WHERE {pred}"));
        let table = db.table("RF").unwrap();
        let chosen = match choose_access_path(db, table, "RF", Some(&w), params) {
            Ok(path) => path,
            Err(e) => return format!("error: {e}"),
        };
        match chosen {
            AccessPath::FullScan => "full".into(),
            AccessPath::IndexRange {
                index_name,
                index_pos,
                eq,
                tail,
            } => {
                assert_eq!(table.indexes[index_pos].name, index_name);
                let eq: Vec<String> = eq.iter().map(Value::to_string).collect();
                let show = |v: &Option<Value>| v.as_ref().map_or("..".into(), Value::to_string);
                let tail = match &tail {
                    Tail::All => "all".to_string(),
                    Tail::Range { lo, hi } => format!("[{}, {}]", show(lo), show(hi)),
                    Tail::Prefix(p) => format!("{p}%"),
                };
                format!("{index_name} {} | {tail}", eq.join(","))
            }
        }
    }

    #[test]
    fn conjunct_splitting() {
        let w = where_of("SELECT * FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)");
        assert_eq!(conjuncts(&w).len(), 3);
    }

    #[test]
    fn const_detection() {
        assert!(is_const(&Bound::Value(Value::Int(1))));
        assert!(is_const(&Bound::Param(1)));
        assert!(!is_const(&Bound::Slot(0)));
    }

    #[test]
    fn path_per_qbe_operator() {
        let db = rf();
        // EQ: the single-column index beats the PK's second column; both
        // PK columns bind the whole unique key.
        assert_eq!(path(&db, "s = 'S1'", &[]), "IX_S S1 | all");
        assert_eq!(path(&db, "'S1' = s AND note = 'x'", &[]), "IX_S S1 | all");
        assert_eq!(path(&db, "s = 'S1' AND f = 't0'", &[]), "PK_RF t0,S1 | all");
        assert_eq!(path(&db, "f = 't0'", &[]), "PK_RF t0 | all");
        // LT/LE/GT/GE, either orientation, bounds inclusive and merged.
        assert_eq!(path(&db, "t < 5", &[]), "IX_T  | [.., 5]");
        assert_eq!(path(&db, "t <= 5", &[]), "IX_T  | [.., 5]");
        assert_eq!(path(&db, "t > 5", &[]), "IX_T  | [5, ..]");
        assert_eq!(path(&db, "5 <= t", &[]), "IX_T  | [5, ..]");
        assert_eq!(
            path(&db, "t > 2 AND 9 > t AND t >= 4", &[]),
            "IX_T  | [4, 9]"
        );
        assert_eq!(
            path(&db, "t BETWEEN 2 AND ?", &[Value::Int(7)]),
            "IX_T  | [2, 7]"
        );
        assert_eq!(path(&db, "z >= 1 AND z < 2.5", &[]), "IX_Z  | [1, 2.5]");
        assert_eq!(path(&db, "t < 2.5", &[]), "IX_T  | [.., 2.5]");
        // LIKE: the literal before the first wildcard.
        assert_eq!(path(&db, "s LIKE 'S00%'", &[]), "IX_S  | S00%");
        assert_eq!(path(&db, "s LIKE 'S0_1%'", &[]), "IX_S  | S0%");
        assert_eq!(path(&db, "s LIKE 'S001'", &[]), "IX_S  | S001%");
        assert_eq!(
            path(&db, "s LIKE ?", &[Value::Str("é%".into())]),
            "IX_S  | é%"
        );
        // Equality run plus one tail on the next key column.
        assert_eq!(
            path(&db, "f = 't0' AND s LIKE 'S0%'", &[]),
            "PK_RF t0 | S0%"
        );
        assert_eq!(
            path(&db, "f = 't0' AND s > 'S5'", &[]),
            "PK_RF t0 | [S5, ..]"
        );
        // More equalities beat a tail; a tail breaks an equality tie.
        assert_eq!(path(&db, "t = 3 AND s LIKE 'S0%'", &[]), "IX_T 3 | all");
        assert_eq!(path(&db, "s = 'S1' AND f > 'a'", &[]), "IX_S S1 | all");
        assert_eq!(
            path(&db, "f = 't0' AND s > 'a' AND t = 1", &[]),
            "PK_RF t0 | [a, ..]"
        );
    }

    #[test]
    fn full_scan_when_nothing_binds() {
        let db = rf();
        for pred in [
            "t = 5 OR s = 'a'",
            "s NOT LIKE 'S0%'",
            "NOT (s = 'S1')",
            "s = NULL",
            "t > NULL",
            "t BETWEEN NULL AND 5",
            "s LIKE '%x'",
            "s LIKE '_x%'",
            "s LIKE ''",
            "note = 'x'",
            "s <> 'S1'",
            "t NOT BETWEEN 1 AND 2",
            "s IN ('a', 'b')",
            "s = f",
        ] {
            assert_eq!(path(&db, pred, &[]), "full", "{pred}");
        }
    }

    #[test]
    fn full_scan_when_the_predicate_could_raise() {
        let db = rf();
        // Each of these raises on some row under a full scan; an index
        // walk that skipped that row would swallow the error.
        for pred in [
            "s = 5",
            "t = 'x'",
            "t < 'x'",
            "t LIKE '1%'",
            "s = 'S1' AND t > 'x'",
            "s = 'S1' AND note LIKE 5",
            "s = 'S1' AND t / 0 = 1",
            "s = 'S1' AND LENGTH(note) > 1",
            "s = 'S1' AND t = ?",
            "s = 1 / 0",
        ] {
            assert_eq!(path(&db, pred, &[]), "full", "{pred}");
        }
        assert_eq!(
            path(&db, "z > ?", &[Value::Double(f64::NAN)]),
            "full",
            "NaN compares with nothing"
        );
        // A name that does not resolve is no veto but the statement's
        // error, raised before any row is read.
        assert_eq!(
            path(&db, "s = 'S1' AND nope = 1", &[]),
            "error: evaluation error: unknown column NOPE"
        );
        // BETWEEN over operands it cannot compare yields NULL, not an
        // error: no bound, but no veto on the other conjunct either.
        assert_eq!(
            path(&db, "s = 'S1' AND t BETWEEN 'a' AND 'b'", &[]),
            "IX_S S1 | all"
        );
    }

    #[test]
    fn alias_qualifier_respected() {
        let db = rf();
        let table = db.table("RF").unwrap();
        let w = where_of("SELECT * FROM rf x WHERE x.s = 'a'");
        assert!(matches!(
            choose_access_path(&db, table, "X", Some(&w), &[]).unwrap(),
            AccessPath::IndexRange { .. }
        ));
        // Qualifier `y` does not match alias `x`: the column is unknown,
        // and that is the statement's error.
        let w = where_of("SELECT * FROM rf x WHERE y.s = 'a'");
        let err = choose_access_path(&db, table, "X", Some(&w), &[]).unwrap_err();
        assert_eq!(err.to_string(), "evaluation error: unknown column Y.S");
    }

    #[test]
    fn join_legs_are_in_scope() {
        let mut db = rf();
        db.execute("CREATE TABLE sim (s VARCHAR(20) PRIMARY KEY, title VARCHAR(20), n INTEGER)")
            .unwrap();
        let table = db.table("RF").unwrap();
        let sim = db.schema("SIM").unwrap();
        let names = |t: &TableSchema| t.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        let row = RowSchema::for_table("R", &names(&table.schema))
            .join(&RowSchema::for_table("M", &names(sim)));
        let chosen = |pred: &str, typed: bool| {
            let mut scope = Scope::of(&table.schema);
            scope.join(sim.columns.len(), typed.then_some(sim));
            let w = where_of(&format!("SELECT * FROM rf WHERE {pred}"));
            let w = row.bind(&w, db.functions(), &[]).unwrap();
            scope.total(&w, &[]) && choose_in_scope(table, &w, &[]).0 != AccessPath::FullScan
        };
        assert!(chosen("r.s = 'a' AND m.title LIKE 'x%'", true));
        assert!(chosen("t = 3 AND n > 1", true), "unambiguous bare names");
        let ambiguous = row.bind(
            &where_of("SELECT * FROM rf WHERE s = 'a'"),
            db.functions(),
            &[],
        );
        assert!(ambiguous.is_err(), "both legs have S: no plan at all");
        assert!(!chosen("m.s = 'a'", true), "restricts the other leg only");
        assert!(
            !chosen("r.s = 'a' AND m.n = 'x'", true),
            "the leg's conjunct raises"
        );
        assert!(
            !chosen("r.s = 'a' AND m.n = 1", false),
            "a relation is untyped"
        );
        assert!(chosen("r.s = 'a'", false));
    }
}
