//! Query execution.
//!
//! A SELECT is bound once against the row its expressions meet
//! ([`BoundSelect`]): each column reference becomes a slot, each aggregate
//! call the index of its state, and a name that does not resolve is the
//! statement's error before any row is read. Its base table is read once:
//! each record is tested on its bytes against the sieve a total WHERE
//! makes, and of each it keeps the cells its filter reads are decoded and,
//! only if the row passes, the other cells the statement evaluates; every
//! row that passes the WHERE — off the scan itself, with its record, or
//! off the last JOIN leg — is lent to one `Sink`, which folds it into its
//! group or projects it (a scan's cells copied out of the record as
//! bytes), and keeps only what DISTINCT, ORDER BY and LIMIT can still
//! return.

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{truth, Bound, EvalContext, FnRegistry, RowSchema};
use crate::mvcc::ReadView;
use crate::plan::{
    bound_conjuncts, choose_bound, choose_in_scope, own_conjuncts, stand_in, AccessPath, Scope,
    Sieve, SieveScan,
};
use crate::schema::{DatalinkSpec, TableSchema};
use crate::sql::ast::{is_aggregate_fn, BinaryOp, Expr, JoinKind, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{
    assign, cell_at, cell_spans, cells, decode_row, decode_some_into, encode_key_cell, encode_row,
    key_cells, order_key, order_key_cell, Lent, Records, Value,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Does `pred` hold (evaluate to TRUE, not UNKNOWN) on `ctx`'s row?
fn holds(ctx: &EvalContext, pred: &Bound) -> Result<bool> {
    Ok(truth(&*ctx.eval_cow(pred)?) == Some(true))
}

/// An in-memory table a SELECT can read beside the catalogue (the hub
/// merge binds each gathered federation leg as one). A FROM/JOIN name
/// matching a supplied relation denotes it before the catalogue. A
/// relation is always a full scan and always visible; it has no indexes
/// and no DATALINK spec. Its rows are records, read through the scan a
/// heap page's are.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The table name the relation answers to (case-insensitive).
    pub name: String,
    /// Column names, in row order.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Records,
    /// Read a DATALINK cell as a CLOB of its URL: the hub sees a foreign
    /// link's text, link control stays with the site that owns it.
    pub links_as_clob: bool,
}

impl Relation {
    /// A relation of `rows`, read back as they are.
    pub fn from_rows(name: &str, columns: Vec<String>, rows: &[Vec<Value>]) -> Relation {
        let mut records = Records::default();
        rows.iter().for_each(|row| records.push(row));
        Relation {
            name: name.to_string(),
            columns,
            rows: records,
            links_as_clob: false,
        }
    }
}

/// What a FROM/JOIN table name denotes.
#[derive(Clone, Copy)]
enum Source<'a> {
    Relation(&'a Relation),
    Table(&'a Table),
}

impl<'a> Source<'a> {
    /// What `name` denotes: a supplied relation first, else the catalogue.
    fn named(db: &'a Database, relations: &'a [Relation], name: &str) -> Result<Source<'a>> {
        if let Some(r) = relations.iter().find(|r| r.name.eq_ignore_ascii_case(name)) {
            return Ok(Source::Relation(r));
        }
        db.table(name)
            .map(Source::Table)
            .ok_or_else(|| DbError::Catalog(format!("table {name} does not exist")))
    }

    fn columns(&self) -> Vec<String> {
        match self {
            Source::Relation(r) => r.columns.clone(),
            Source::Table(t) => t.schema.columns.iter().map(|c| c.name.clone()).collect(),
        }
    }

    /// Does it read DATALINK cells as CLOB ([`Relation::links_as_clob`])?
    fn links_as_clob(&self) -> bool {
        matches!(self, Source::Relation(r) if r.links_as_clob)
    }

    /// The catalogue schema that types the columns; a relation has none.
    fn schema(&self) -> Option<&'a TableSchema> {
        match self {
            Source::Relation(_) => None,
            Source::Table(t) => Some(&t.schema),
        }
    }
}

/// How a scan reads a record: tested against `sieve` on its bytes, then
/// decoded — `filter`'s cells (the ones the scan's filter reads) for a
/// row the sieve keeps, `all` (which holds them) for a row that passes
/// the filter (for a scan whose rows are copied out of their records,
/// only the cells the statement evaluates). An empty mask is every cell.
#[derive(Clone, Copy)]
struct Cells<'m> {
    sieve: &'m Sieve,
    filter: &'m [bool],
    all: &'m [bool],
    /// DATALINK cells decode as CLOB ([`Relation::links_as_clob`]).
    links_as_clob: bool,
}

/// Every cell of every row, unsieved.
const WHOLE: Cells = Cells {
    sieve: &Sieve::NONE,
    filter: &[],
    all: &[],
    links_as_clob: false,
};

/// Lend the rows of `source` visible to `view`, read along `path` in
/// storage order, to `pass`, and each that passes to `take` with its row
/// id; see [`sift`]. A relation has no indexes and no versions: its
/// records are visited whole, each row id its position.
fn fetch<'r>(
    db: &Database,
    view: &ReadView,
    source: Source<'r>,
    path: AccessPath,
    cells: Cells,
    pass: impl FnMut(&[Value]) -> Result<bool>,
    take: impl FnMut((RowId, &'r [u8]), &mut Vec<Value>) -> Result<()>,
) -> (usize, Result<()>) {
    let t = match source {
        Source::Table(t) => t,
        Source::Relation(r) => {
            let records = (0..).map(RowId).zip(r.rows.iter());
            let cells = Cells {
                links_as_clob: source.links_as_clob(),
                ..cells
            };
            return sift(records, SieveScan::ALL, cells, pass, take);
        }
    };
    let visible = db.row_visibility(&t.schema.name, view);
    let sieve = cells.sieve.over(&t.schema, cells.filter);
    match path {
        AccessPath::FullScan => {
            let records = t.heap.records().filter(|(rid, _)| visible(*rid));
            sift(records, sieve, cells, pass, take)
        }
        AccessPath::IndexRange {
            index_pos,
            eq,
            tail,
            ..
        } => {
            let ix = &t.indexes[index_pos];
            let mut rids = if eq.len() == ix.col_indices.len() {
                ix.tree.get(&eq)
            } else {
                // Seek to the equality run (and the tail's lower bound),
                // then take keys until one leaves the run or the tail.
                let range = tail.key_range(&eq);
                let mut rids = Vec::new();
                ix.tree.scan_from_key(&range.lo, |key, rows| {
                    let inside = range.admits(key.0);
                    if inside {
                        rids.extend_from_slice(rows);
                    }
                    inside
                });
                rids
            };
            // Heap order, as a full scan would deliver them: the choice
            // of path never shows in an un-ORDERed or LIMITed result.
            rids.sort_unstable();
            let records = rids
                .into_iter()
                .filter(|rid| visible(*rid))
                .filter_map(|rid| Some((rid, t.heap.record(rid)?)));
            sift(records, sieve, cells, pass, take)
        }
    }
}

/// Test each of `records` against `sieve` on its bytes
/// ([`SieveScan::keeps`]); decode the filter's cells of a record it keeps
/// ([`decode_some_into`]) into a scratch row and lend it to `pass`;
/// decode a row that passes again, with the cells of `all`, into a second
/// scratch row and lend that to `take`, beside its row id and record,
/// which copies out (or takes) what it keeps. A record the sieve refuses
/// is walked no further than the cell that refuses it (or a later one
/// the filter reads that could hold a NaN), and nothing of it decoded
/// or evaluated; each scratch row refills the buffers it already owns,
/// so a rejected row allocates nothing. Returns the number of records,
/// also when a closure or the decoder raises part-way — the first error
/// is the one returned, and what it left unvisited was a candidate all
/// the same.
fn sift<'r>(
    mut records: impl Iterator<Item = (RowId, &'r [u8])>,
    sieve: SieveScan,
    cells: Cells,
    mut pass: impl FnMut(&[Value]) -> Result<bool>,
    mut take: impl FnMut((RowId, &'r [u8]), &mut Vec<Value>) -> Result<()>,
) -> (usize, Result<()>) {
    let (mut sieved, mut whole) = (Vec::new(), Vec::new());
    let twice = cells.filter != cells.all;
    let (mut seen, mut visited) = (0, Ok(()));
    for (rid, record) in records.by_ref() {
        seen += 1;
        if !sieve.keeps(record) {
            continue;
        }
        let links = cells.links_as_clob;
        visited = decode_some_into(record, &mut 0, &mut sieved, cells.filter, links)
            .and_then(|()| pass(&sieved))
            .and_then(|passed| match (passed, twice) {
                (false, _) => Ok(()),
                (true, false) => take((rid, record), &mut sieved),
                (true, true) => {
                    decode_some_into(record, &mut 0, &mut whole, cells.all, links)?;
                    take((rid, record), &mut whole)
                }
            });
        if visited.is_err() {
            break;
        }
    }
    (seen + records.count(), visited)
}

/// Book one base-table scan of `rows` candidate rows.
fn note_scan(db: &Database, index_probe: bool, rows: usize) {
    if let Some(m) = db.metrics() {
        if index_probe {
            m.index_scans.inc();
        } else {
            m.heap_scans.inc();
        }
        m.rows_scanned.add(rows as f64);
        m.stage_scan.observe(rows as f64);
    }
}

/// Fetch `(RowId, row)` pairs of `table` visible to `view` and matching
/// `where_clause` (index-accelerated and sieved when possible). Used by
/// UPDATE/DELETE, which write whole rows back: every cell is decoded.
pub fn collect_matching(
    db: &Database,
    view: &ReadView,
    table: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<(RowId, Vec<Value>)>> {
    let t = db
        .table(table)
        .ok_or_else(|| DbError::Catalog(format!("table {table} does not exist")))?;
    let source = Source::Table(t);
    let schema = RowSchema::for_table(table, &source.columns());
    let pred = where_clause.map(|w| schema.bind(w, db.functions(), &[]));
    let pred = pred.transpose()?;
    let (path, sieve) = choose_bound(t, pred.as_ref(), params);
    let index_probe = matches!(path, AccessPath::IndexRange { .. });
    let pass = |row: &[Value]| match &pred {
        Some(p) => holds(&EvalContext::new(row, params), p),
        None => Ok(true),
    };
    let mut matching = Vec::new();
    let cells = Cells {
        sieve: &sieve,
        ..WHOLE
    };
    let (candidates, read) = fetch(db, view, source, path, cells, pass, |(rid, _), row| {
        matching.push((rid, std::mem::take(row)));
        Ok(())
    });
    note_scan(db, index_probe, candidates);
    read.map(|()| matching)
}

/// A SELECT bound once against the rows its clauses meet — the one place
/// its names resolve ([`RowSchema::bind`]): each JOIN's ON over the legs
/// up to its own, the WHERE over the joined row, then GROUP BY, the
/// aggregate calls' arguments, HAVING, the select list and ORDER BY.
/// What does not bind — an unknown or ambiguous column, an unknown
/// function, `f(*)` outside an aggregate, an aggregate without its
/// argument, `t.*` naming no table, `*` beside aggregates — is the
/// statement's error, the first in that order, before any row is read.
/// The executor runs it; the federation planner reads off it which leg
/// each slot a clause reads belongs to.
pub struct BoundSelect<'a> {
    /// The joined row: each FROM/JOIN table's columns under its alias.
    pub schema: RowSchema,
    /// Each JOIN's ON.
    pub ons: Vec<Bound>,
    /// The WHERE.
    pub filter: Option<Bound>,
    /// The slots the statement reads, in any clause.
    pub read: Vec<bool>,
    sink: Sink<'a>,
}

impl<'a> BoundSelect<'a> {
    /// Bind `sel` over `columns`, the column names of its FROM table and
    /// of each JOINed one in statement order, with the scalar functions
    /// of `functions`. `specs` holds the DATALINK spec of each joined slot
    /// a plain select list passes through (empty: none).
    pub fn bind<C: AsRef<[String]>>(
        functions: &FnRegistry,
        sel: &SelectStmt,
        columns: &[C],
        specs: &[Option<&'a DatalinkSpec>],
    ) -> Result<Self> {
        let tables = sel.from.iter().chain(sel.joins.iter().map(|j| &j.table));
        let mut schema = RowSchema::default();
        let mut ons = Vec::new();
        for (i, (t, names)) in tables.zip(columns).enumerate() {
            let alias = t.alias.as_deref().unwrap_or(&t.name);
            schema
                .columns
                .extend(RowSchema::for_table(alias, names.as_ref()).columns);
            if let Some(join) = i.checked_sub(1).map(|j| &sel.joins[j]) {
                ons.push(schema.bind(&join.on, functions, &[])?);
            }
        }
        let filter = sel
            .where_clause
            .as_ref()
            .map(|w| schema.bind(w, functions, &[]));
        let filter = filter.transpose()?;
        let sink = Sink::bind(functions, sel, &schema, specs)?;
        let mut read = vec![false; schema.columns.len()];
        for e in filter.iter().chain(&ons) {
            e.reads(&mut read);
        }
        sink.reads(&mut read);
        Ok(BoundSelect {
            schema,
            ons,
            filter,
            read,
            sink,
        })
    }
}

/// Execute a SELECT against a read view plus in-memory `relations`
/// (see [`Relation`] for how names resolve).
///
/// A name that does not resolve is the statement's error before any row
/// is read ([`BoundSelect`]). Errors rows raise keep the phase order of
/// an executor that finished each stage before the next: a JOIN's ON and
/// probe errors, then the WHERE's (and the decoder's), then projection
/// and grouping errors, then HAVING and the select list per group, then
/// ORDER BY keys — within a phase, the first row's. Streaming holds a
/// later phase's error until the earlier phases have run over every row.
pub fn run_select_over(
    db: &Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
    relations: &[Relation],
) -> Result<ResultSet> {
    select(db, view, sel, params, relations, None)
}

/// [`run_select_over`], lending each result row to `each` instead of
/// keeping it: as the row passes when nothing orders the rows, at the
/// end under ORDER BY or an aggregate. Returns the result's columns. A
/// statement that fails may have lent rows before its error was known;
/// they are not its answer.
pub fn run_select_each(
    db: &Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
    relations: &[Relation],
    each: &mut dyn FnMut(Lent),
) -> Result<Vec<String>> {
    select(db, view, sel, params, relations, Some(each)).map(|rs| rs.columns)
}

/// A reader each result row is lent to.
type Lend<'a> = &'a mut dyn FnMut(Lent);

/// A SELECT whose rows are lent to `lend`, or kept in the result set.
pub(crate) fn select<'a>(
    db: &'a Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
    relations: &'a [Relation],
    lend: Option<Lend<'a>>,
) -> Result<ResultSet> {
    // Table-less SELECT: evaluate items against an empty row.
    let Some(from) = &sel.from else {
        let (mut columns, mut items) = (Vec::new(), Vec::new());
        for item in &sel.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Eval("wildcard requires FROM".into()));
            };
            columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
            items.push(RowSchema::default().bind(expr, db.functions(), &[])?);
        }
        let ctx = EvalContext::new(&[], params);
        let row: Vec<Value> = items.iter().map(|e| ctx.eval(e)).collect::<Result<_>>()?;
        let rows = match lend {
            Some(each) => {
                each(Lent::Cells(&row));
                Vec::new()
            }
            None => vec![row],
        };
        return Ok(ResultSet {
            columns,
            rows,
            affected: 0,
        });
    };

    // ---- bind: the legs, then the statement over them ----
    let names = std::iter::once(&from.name).chain(sel.joins.iter().map(|j| &j.table.name));
    let sources = names
        .map(|name| Source::named(db, relations, name))
        .collect::<Result<Vec<_>>>()?;
    let (mut scope, mut columns, mut specs) = (Scope::default(), Vec::new(), Vec::new());
    for source in &sources {
        let names = source.columns();
        scope.join(names.len(), source.schema());
        match source.schema() {
            Some(t) => specs.extend(t.columns.iter().map(|c| c.datalink.as_ref())),
            None => specs.extend(names.iter().map(|_| None)),
        }
        columns.push(names);
    }
    let BoundSelect {
        ons,
        filter,
        read,
        mut sink,
        ..
    } = BoundSelect::bind(db.functions(), sel, &columns, &specs)?;
    sink.output.reader = lend;
    let base_width = columns[0].len();

    // ---- plan: each leg's probe, the base table's path ----
    let mut legs = Vec::new();
    let mut at = base_width;
    let joins = sel.joins.iter().zip(&sources[1..]).zip(&columns[1..]);
    for (((join, source), names), on) in joins.zip(ons) {
        let probe = match source {
            Source::Table(t) => probe_of(t, &on, at, &scope, params),
            Source::Relation(_) => None,
        };
        let width = names.len();
        legs.push(Leg {
            source: *source,
            kind: join.kind,
            width,
            on,
            probe,
        });
        at += width;
    }
    let (mut path, mut sieve) = (AccessPath::FullScan, Sieve::NONE);
    // WHERE conjuncts over the base table's own columns, applied to its
    // rows before they are joined.
    let mut own = Vec::new();
    if let (Source::Table(t), Some(pred)) = (sources[0], &filter) {
        // The WHERE runs over joined rows and each ON over the legs so
        // far; the base narrows only when none of them can raise on a
        // row the narrowing would skip.
        let total = |e: &Bound| scope.total(e, params);
        if total(pred) && legs.iter().all(|leg| total(&leg.on)) {
            (path, sieve) = choose_in_scope(t, pred, params);
            if !legs.is_empty() {
                own = own_conjuncts(pred, base_width, at);
            }
        }
    }
    let index_probe = matches!(path, AccessPath::IndexRange { .. });

    // ---- stream ----
    // The cells the scan's own filter reads are decoded for every row it
    // visits, the rest of the statement's only for a row that passes —
    // by the scan, or for a JOIN's base by the join, from its record.
    let scan_filter = if legs.is_empty() {
        filter.iter().collect()
    } else {
        own
    };
    // A scan's rows are projected from their records: the cells they
    // pass through are copied as bytes, so only what the filter, the
    // select list's expressions and its DATALINK renderings read is
    // decoded.
    let copies = legs.is_empty() && sink.copies();
    sink.links_as_clob = sources[0].links_as_clob();
    let mut filter_reads = read.clone();
    if !scan_filter.is_empty() || !legs.is_empty() || copies {
        filter_reads.fill(false);
        scan_filter.iter().for_each(|e| e.reads(&mut filter_reads));
    }
    let mut decoded = filter_reads.clone();
    if copies {
        sink.decodes(&mut decoded);
    }
    let filtered = |row: &[Value]| match &filter {
        Some(w) => holds(&EvalContext::new(row, params), w),
        None => Ok(true),
    };
    let mut passed = 0;
    let mut accept = |row: &[Value], record: Option<&[u8]>, sink: &mut Sink| {
        passed += 1;
        sink.take(db, &EvalContext::new(row, params), record);
    };
    if legs.is_empty() {
        let cells = Cells {
            sieve: &sieve,
            filter: &filter_reads,
            all: if copies { &decoded } else { &read },
            ..WHOLE
        };
        let (candidates, scanned) =
            fetch(db, view, sources[0], path, cells, filtered, |rec, row| {
                accept(row, Some(rec.1), &mut sink);
                Ok(())
            });
        note_scan(db, index_probe, candidates);
        scanned?;
    } else {
        // A base row failing one of its own conjuncts fails the WHERE on
        // every joined row made from it, padded or not. A conjunct that
        // raises after all keeps its row, so the WHERE raises it too.
        let own_pass = |row: &[Value]| {
            let ctx = EvalContext::new(row, params);
            Ok(scan_filter
                .iter()
                .all(|c| !matches!(holds(&ctx, c), Ok(false))))
        };
        let cells = Cells {
            sieve: &sieve,
            filter: &filter_reads[..base_width],
            all: &filter_reads[..base_width],
            ..WHOLE
        };
        // The records of the base rows that pass.
        let mut base = Vec::new();
        let (candidates, scanned) = fetch(db, view, sources[0], path, cells, own_pass, |rec, _| {
            base.push(rec.1);
            Ok(())
        });
        note_scan(db, index_probe, candidates);
        scanned?;
        // Every leg but the last keeps its pairings as records; the last
        // lends each to the WHERE, whose error waits for the ONs of the
        // pairings after it.
        let (mut at, mut joined, mut raised) = (base_width, 0, None);
        // The first leg meets the base's records, read as the scan reads
        // them; a later one the pairings before it.
        let mut left_cells = Cells {
            all: &read[..base_width],
            links_as_clob: sources[0].links_as_clob(),
            ..WHOLE
        };
        let mut pairings = Records::default();
        for (i, leg) in legs.iter().enumerate() {
            let leg_read = &read[at..at + leg.width];
            at += leg.width;
            let prior = std::mem::take(&mut pairings);
            let left = match i {
                0 => std::mem::take(&mut base),
                _ => prior.iter().collect(),
            };
            if i + 1 < legs.len() {
                run_join(db, view, &left, left_cells, leg, leg_read, params, |row| {
                    pairings.push(row);
                    Ok(())
                })?;
                left_cells = WHOLE;
            } else {
                run_join(db, view, &left, left_cells, leg, leg_read, params, |row| {
                    joined += 1;
                    match raised.is_none().then(|| filtered(row)) {
                        Some(Ok(true)) => accept(row, None, &mut sink),
                        Some(Err(e)) => raised = Some(e),
                        _ => {}
                    }
                    Ok(())
                })?;
            }
        }
        if let Some(m) = db.metrics() {
            m.stage_join.observe(joined as f64);
        }
        if let Some(e) = raised {
            return Err(e);
        }
    }
    if filter.is_some() {
        if let Some(m) = db.metrics() {
            m.stage_filter.observe(passed as f64);
        }
    }
    sink.finish(db, read.len(), params)
}

/// One JOIN leg.
struct Leg<'a> {
    source: Source<'a>,
    kind: JoinKind,
    /// How many columns it adds to the row.
    width: usize,
    /// ON, bound over the legs up to this one.
    on: Bound,
    probe: Option<Probe<'a>>,
}

/// Index nested loop: ON has a conjunct `col = key` where `col` is a
/// column of the leg's catalogue table carrying a one-column index and
/// `key` reads only the legs before.
struct Probe<'a> {
    table: &'a Table,
    /// Position of the index in `table.indexes`.
    index: usize,
    key: Bound,
    /// A value of the indexed column's type.
    like: Value,
}

/// The probe for a leg over catalogue table `t`, whose columns start at
/// slot `at`: the first conjunct of `on` that equates an indexed column
/// of `t` with a key over the legs before. The probe skips every pairing
/// the index does not return, so it is taken only when that cannot skip
/// an error: the key is a bare column or [`Scope::total`], and so is
/// every other conjunct of `on`. (A key the column's type cannot be
/// compared with meets the whole leg; see [`run_join`].)
fn probe_of<'a>(
    t: &'a Table,
    on: &Bound,
    at: usize,
    scope: &Scope,
    params: &[Value],
) -> Option<Probe<'a>> {
    let conjuncts = bound_conjuncts(on);
    let total = |i: usize| {
        conjuncts
            .iter()
            .enumerate()
            .all(|(j, c)| j == i || scope.total(c, params))
    };
    for (i, c) in conjuncts.iter().enumerate() {
        let Bound::Binary(l, BinaryOp::Eq, r) = c else {
            continue;
        };
        for (col, key) in [(l, r), (r, l)] {
            let Bound::Slot(slot) = **col else {
                continue;
            };
            let Some(cpos) = slot.checked_sub(at) else {
                continue;
            };
            let mut read = vec![false; at + t.schema.columns.len()];
            key.reads(&mut read);
            let before = !read[at..].contains(&true);
            let safe = matches!(**key, Bound::Slot(_)) || scope.total(key, params);
            let index = t.indexes.iter().position(|ix| ix.col_indices == [cpos]);
            if let (Some(index), true) = (index, before && safe && total(i)) {
                let like = stand_in(t.schema.columns[cpos].ty);
                let key = (**key).clone();
                return Some(Probe {
                    table: t,
                    index,
                    key,
                    like,
                });
            }
        }
    }
    None
}

/// Join the `left` rows with `leg`, lending each pairing that passes its
/// ON — and, for a LEFT JOIN, each unmatched left row padded with NULLs
/// — to `emit`, in left-row order. The pairing lives in one buffer: the
/// left record is decoded into it, each right candidate is lent to it
/// and taken back. The right leg decodes only the cells `read` selects.
/// Under a probe a left row meets the rows its key finds in the index,
/// unless the key cannot be compared with the indexed column's type:
/// then every pairing would raise or not as the ON decides, and the row
/// meets the whole leg as it would without the probe. A left row whose
/// key has the bytes of the one before it (so `0.0` is not `-0.0`, nor
/// `1` `1.0`) meets the rows that one found.
#[allow(clippy::too_many_arguments)]
fn run_join(
    db: &Database,
    view: &ReadView,
    left: &[&[u8]],
    left_cells: Cells,
    leg: &Leg,
    read: &[bool],
    params: &[Value],
    mut emit: impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    // The whole leg, read once: up front without a probe, under one
    // when a key first refuses the indexed column.
    let read_whole = || -> Result<Vec<Vec<Value>>> {
        let cells = Cells {
            filter: read,
            all: read,
            ..WHOLE
        };
        let mut rows = Vec::new();
        let keep_all = |_: &[Value]| Ok(true);
        let path = AccessPath::FullScan;
        fetch(db, view, leg.source, path, cells, keep_all, |_, row| {
            rows.push(std::mem::take(row));
            Ok(())
        })
        .1?;
        Ok(rows)
    };
    let mut whole = match leg.probe {
        None => Some(read_whole()?),
        Some(_) => None,
    };
    let probe = leg.probe.as_ref().map(|p| {
        let visible = db.row_visibility(&p.table.schema.name, view);
        (p, visible)
    });
    let mut pairing: Vec<Value> = Vec::new();
    let mut probed: Vec<Vec<Value>> = Vec::new();
    // The key `probed` was found under, as a record, and whether it was
    // looked up in the index; the key in hand.
    let (mut found, mut key_bytes) = (None::<(Vec<u8>, bool)>, Vec::new());
    for record in left {
        let links = left_cells.links_as_clob;
        decode_some_into(record, &mut 0, &mut pairing, left_cells.all, links)?;
        let left_width = pairing.len();
        let mut by_index = false;
        if let Some((p, visible)) = &probe {
            let ctx = EvalContext::new(&pairing, params);
            let key = ctx.eval_cow(&p.key)?;
            key_bytes.clear();
            encode_row(std::slice::from_ref(&*key), &mut key_bytes);
            let reused = found.as_ref().filter(|f| f.0 == key_bytes).map(|f| f.1);
            by_index = match reused {
                Some(indexed) => indexed,
                None => {
                    let indexed = key.is_null() || p.like.sql_cmp(&key).is_some();
                    probed.clear();
                    if indexed && !key.is_null() {
                        let index = &p.table.indexes[p.index].tree;
                        let rids = index.get(std::slice::from_ref(&*key));
                        for rid in rids.into_iter().filter(|rid| visible(*rid)) {
                            if let Some(record) = p.table.heap.record(rid) {
                                let mut row = Vec::new();
                                decode_some_into(record, &mut 0, &mut row, read, false)?;
                                probed.push(row);
                            }
                        }
                    }
                    // Keep the key; the next is written where the last was.
                    let kept = (std::mem::take(&mut key_bytes), indexed);
                    if let Some((last, _)) = found.replace(kept) {
                        key_bytes = last;
                    }
                    indexed
                }
            };
        }
        if !by_index && whole.is_none() {
            whole = Some(read_whole()?);
        }
        let candidates = match &mut whole {
            Some(rows) if !by_index => rows,
            _ => &mut probed,
        };
        let mut matched = false;
        for rrow in candidates.iter_mut() {
            pairing.append(rrow);
            let lent = holds(&EvalContext::new(&pairing, params), &leg.on).and_then(|on| {
                matched |= on;
                if on {
                    emit(&pairing)
                } else {
                    Ok(())
                }
            });
            rrow.extend(pairing.drain(left_width..));
            lent?;
        }
        if !matched && leg.kind == JoinKind::Left {
            pairing.extend(std::iter::repeat_n(Value::Null, leg.width));
            emit(&pairing)?;
        }
    }
    Ok(())
}

/// Derive an output column name for an unaliased select item, exactly
/// as the aggregate pipeline labels its columns.
pub fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => "EXPR".to_string(),
    }
}

/// Where a SELECT's rows go once they pass its WHERE, each lent as it
/// arrives: projected and offered to the [`Output`], or folded into its
/// group, whose rows reach the output once every group is complete. A
/// row lent with the record it was read from is projected into a record
/// the output opens: each cell it passes through is copied as its bytes,
/// and only an expression item or a DATALINK rendering is encoded from a
/// value. A joined row, which has no one record, is projected as values.
/// The first error it meets is held and it takes no row after it — the
/// scan still owes the WHERE and decoder errors of later rows, which win.
struct Sink<'a> {
    held: Option<DbError>,
    shape: Shape<'a>,
    output: Output<'a>,
    /// The projected row, refilled for each row unless the output keeps it.
    row: Vec<Value>,
    /// Where each cell of the record in hand lies ([`cell_spans`]).
    spans: Vec<Range<usize>>,
    /// A DATALINK cell copied is a CLOB ([`Relation::links_as_clob`]).
    links_as_clob: bool,
}

enum Shape<'a> {
    /// Each row projected.
    Rows(Vec<Out<'a>>),
    /// Each row folded into its group.
    Groups(Box<Grouping>),
}

/// One projected column.
enum Out<'a> {
    /// A cell passed through, DATALINK-rendered under its column's spec.
    Slot(usize, Option<&'a DatalinkSpec>),
    Expr(Bound),
}

impl<'a> Sink<'a> {
    fn bind(
        functions: &FnRegistry,
        sel: &SelectStmt,
        schema: &RowSchema,
        specs: &[Option<&'a DatalinkSpec>],
    ) -> Result<Self> {
        let has_agg = sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || sel.having.as_ref().is_some_and(|h| h.contains_aggregate())
            || !sel.group_by.is_empty();
        let (shape, output) = if has_agg {
            let (grouping, output) = Grouping::bind(functions, sel, schema)?;
            (Shape::Groups(Box::new(grouping)), output)
        } else {
            let (columns, outs) = project(functions, sel, schema, specs)?;
            // The output column passing slot `s` through unrendered.
            let passes = |s: usize| {
                outs.iter()
                    .position(|o| matches!(o, Out::Slot(i, None) if *i == s))
            };
            let bind = |e: &Expr| schema.bind(e, functions, &[]);
            let output = Output::bind(sel, columns, passes, bind)?;
            (Shape::Rows(outs), output)
        };
        Ok(Sink {
            held: None,
            shape,
            output,
            row: Vec::new(),
            spans: Vec::new(),
            links_as_clob: false,
        })
    }

    /// Does it project the rows it takes, so that a row lent with its
    /// record is copied out of it ([`Sink::take`])?
    fn copies(&self) -> bool {
        matches!(self.shape, Shape::Rows(_))
    }

    /// Mark the slots it decodes when it copies a row out of its record:
    /// what its expressions read and the cells it renders.
    fn decodes(&self, read: &mut [bool]) {
        if let Shape::Rows(outs) = &self.shape {
            for out in outs {
                match out {
                    Out::Slot(i, Some(_)) => read[*i] = true,
                    Out::Slot(_, None) => {}
                    Out::Expr(e) => e.reads(read),
                }
            }
        }
        self.output.reads(read, false);
    }

    /// Mark the slots it reads.
    fn reads(&self, read: &mut [bool]) {
        match &self.shape {
            Shape::Rows(outs) => {
                for out in outs {
                    match out {
                        Out::Slot(i, _) => read[*i] = true,
                        Out::Expr(e) => e.reads(read),
                    }
                }
            }
            Shape::Groups(g) => g.reads(read),
        }
        self.output.reads(read, true);
    }

    /// Take one row that passed the WHERE, and the record it was read
    /// from, if any.
    fn take(&mut self, db: &Database, ctx: &EvalContext, record: Option<&[u8]>) {
        if self.held.is_some() {
            return;
        }
        let taken = match (&mut self.shape, record) {
            (Shape::Rows(outs), Some(record)) => {
                cell_spans(record, &mut self.spans);
                let out = self.output.open(outs.len());
                let copied = outs.iter().try_for_each(|o| {
                    match o {
                        Out::Slot(i, None) => {
                            out.push_span(&record[self.spans[*i].clone()], self.links_as_clob)
                        }
                        Out::Slot(i, Some(spec)) => match &ctx.row[*i] {
                            Value::Datalink(url) => {
                                out.push_cell(&Value::Datalink(db.render_datalink(spec, url)))
                            }
                            v => out.push_cell(v),
                        },
                        Out::Expr(e) => out.push_cell(&*ctx.eval_cow(e)?),
                    }
                    Ok(())
                });
                let input = Some((record, &self.spans[..]));
                copied.map(|()| self.output.offer_record(ctx, input))
            }
            (Shape::Rows(outs), None) => {
                let row = &mut self.row;
                row.reserve_exact(outs.len() - row.len());
                let projected = outs.iter().enumerate().try_for_each(|(at, out)| {
                    let v = match out {
                        Out::Slot(i, spec) => match (&ctx.row[*i], spec) {
                            (Value::Datalink(url), Some(spec)) => {
                                Cow::Owned(Value::Datalink(db.render_datalink(spec, url)))
                            }
                            (v, _) => Cow::Borrowed(v),
                        },
                        Out::Expr(e) => ctx.eval_cow(e)?,
                    };
                    refill(row, at, v);
                    Ok(())
                });
                projected.map(|()| self.output.offer(row, ctx))
            }
            (Shape::Groups(g), _) => g.fold(ctx),
        };
        self.held = taken.err();
    }

    /// The result, the rows it took being `width` slots wide.
    fn finish(self, db: &Database, width: usize, params: &[Value]) -> Result<ResultSet> {
        if let Some(e) = self.held {
            return Err(e);
        }
        match self.shape {
            Shape::Rows(_) => self.output.finish(db),
            Shape::Groups(g) => g.finish(self.output, db, width, params),
        }
    }
}

/// The select list of a plain SELECT over `schema`: its output names and
/// columns. A bare column passes its cell through, DATALINK-rendered
/// under its slot's spec in `specs`; `t.*` must name a table of the
/// statement.
fn project<'a>(
    functions: &FnRegistry,
    sel: &SelectStmt,
    schema: &RowSchema,
    specs: &[Option<&'a DatalinkSpec>],
) -> Result<(Vec<String>, Vec<Out<'a>>)> {
    let slot = |i: usize| Out::Slot(i, specs.get(i).copied().flatten());
    let mut columns = Vec::new();
    let mut outs = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in schema.columns.iter().enumerate() {
                    columns.push(c.name.clone());
                    outs.push(slot(i));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let t = t.to_ascii_uppercase();
                let before = outs.len();
                for (i, c) in schema.columns.iter().enumerate() {
                    if c.table.as_deref() == Some(t.as_str()) {
                        columns.push(c.name.clone());
                        outs.push(slot(i));
                    }
                }
                if outs.len() == before {
                    return Err(DbError::Eval(format!("unknown table alias {t} in {t}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                outs.push(match schema.bind(expr, functions, &[])? {
                    Bound::Slot(i) => slot(i),
                    bound => Out::Expr(bound),
                });
            }
        }
    }
    Ok((columns, outs))
}

/// Set cell `at` of a scratch row (its next cell, if it is that short)
/// to `v`, refilling the buffer the cell owns ([`assign`]).
fn refill(row: &mut Vec<Value>, at: usize, v: Cow<Value>) {
    match (row.get_mut(at), v) {
        (Some(cell), Cow::Borrowed(v)) => assign(cell, v),
        (Some(cell), Cow::Owned(v)) => *cell = v,
        (None, v) => row.push(v.into_owned()),
    }
}

/// An aggregate SELECT: group keys and aggregate arguments evaluate on
/// each row as it passes, and each group keeps one representative row
/// (its first) and its states; the rest runs once per group, in
/// [`Finish`].
struct Grouping {
    keys: Vec<Bound>,
    /// Each aggregate call: its function and argument (`None` for `*`).
    calls: Vec<(String, Option<Bound>)>,
    finish: Finish,
    groups: Vec<(Vec<Value>, Vec<AggState>)>,
    /// Group key → position in `groups`.
    index: HashMap<Vec<u8>, usize>,
    key: Vec<u8>,
}

impl Grouping {
    /// Bind the group keys, then each aggregate call's argument, then
    /// the per-group part and the output its rows go to.
    fn bind<'a>(
        functions: &FnRegistry,
        sel: &SelectStmt,
        schema: &RowSchema,
    ) -> Result<(Self, Output<'a>)> {
        let bind = |e: &Expr| schema.bind(e, functions, &[]);
        let keys = sel.group_by.iter().map(bind).collect::<Result<_>>()?;
        let aggs = aggregates(sel);
        let mut calls = Vec::with_capacity(aggs.len());
        for agg in &aggs {
            let Expr::Function { name, args, star } = agg else {
                unreachable!("aggregates only collects functions");
            };
            let arg = match args.first() {
                _ if *star => None,
                Some(arg) => Some(bind(arg)?),
                None => {
                    let what = format!("{name} expects 1 argument(s), got 0");
                    return Err(DbError::Eval(what));
                }
            };
            calls.push((name.clone(), arg));
        }
        let (finish, output) = Finish::bind(functions, sel, schema, &aggs)?;
        let grouping = Grouping {
            keys,
            calls,
            finish,
            groups: Vec::new(),
            index: HashMap::new(),
            key: Vec::new(),
        };
        Ok((grouping, output))
    }

    fn reads(&self, read: &mut [bool]) {
        let args = self.calls.iter().filter_map(|(_, arg)| arg.as_ref());
        for e in self.keys.iter().chain(args) {
            e.reads(read);
        }
        self.finish.reads(read);
    }

    /// Fold one row into its group: the key first, then each call's
    /// argument in turn — which is also the order their errors raise in.
    fn fold(&mut self, ctx: &EvalContext) -> Result<()> {
        self.key.clear();
        for k in &self.keys {
            encode_key_cell(&*ctx.eval_cow(k)?, &mut self.key);
        }
        // Without GROUP BY every row belongs to the one group.
        let found = if self.keys.is_empty() {
            (!self.groups.is_empty()).then_some(0)
        } else {
            self.index.get(&self.key[..]).copied()
        };
        let gi = match found {
            Some(gi) => gi,
            None => {
                self.index.insert(self.key.clone(), self.groups.len());
                let states = self.calls.iter().map(|_| AggState::default()).collect();
                self.groups.push((ctx.row.to_vec(), states));
                self.groups.len() - 1
            }
        };
        for ((name, arg), st) in self.calls.iter().zip(&mut self.groups[gi].1) {
            match arg {
                None => st.fold(name, None)?,
                Some(arg) => st.fold(name, Some(&*ctx.eval_cow(arg)?))?,
            }
        }
        Ok(())
    }

    /// The result, the rows folded being `width` slots wide.
    fn finish(
        mut self,
        output: Output<'_>,
        db: &Database,
        width: usize,
        params: &[Value],
    ) -> Result<ResultSet> {
        // A global aggregate over zero rows still yields one group.
        if self.groups.is_empty() && self.keys.is_empty() {
            let states = self.calls.iter().map(|_| AggState::default()).collect();
            self.groups.push((vec![Value::Null; width], states));
        }
        let calls = &self.calls;
        let groups = self
            .groups
            .into_iter()
            .map(|(rep, states)| {
                let aggs = calls
                    .iter()
                    .zip(&states)
                    .map(|((name, arg), st)| st.finish(name, arg.is_none()))
                    .collect();
                (rep, aggs)
            })
            .collect();
        self.finish.run(output, db, groups, params)
    }
}

/// The aggregate calls of `sel`, deduplicated, in the order a pre-order
/// [`Expr::visit`] meets them in the select list, HAVING and ORDER BY.
pub fn aggregates(sel: &SelectStmt) -> Vec<Expr> {
    let mut aggs = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut aggs);
        }
    }
    if let Some(h) = &sel.having {
        collect_aggs(h, &mut aggs);
    }
    for ob in &sel.order_by {
        collect_aggs(&ob.expr, &mut aggs);
    }
    aggs
}

/// An aggregate SELECT's per-group part — HAVING and the select list,
/// whose rows go to an [`Output`] — bound against the groups'
/// representative rows and the finished values of its aggregate calls.
struct Finish {
    having: Option<Bound>,
    items: Vec<Bound>,
}

impl Finish {
    /// Bind it and the output its rows go to: a wildcard in the select
    /// list is an error first, then HAVING, the items and ORDER BY bind.
    fn bind<'a>(
        functions: &FnRegistry,
        sel: &SelectStmt,
        schema: &RowSchema,
        aggs: &[Expr],
    ) -> Result<(Self, Output<'a>)> {
        let bind = |e: &Expr| schema.bind(e, functions, aggs);
        let mut columns = Vec::new();
        let mut exprs = Vec::new();
        for item in &sel.items {
            let SelectItem::Expr { expr, alias } = item else {
                let what = "wildcard not allowed with GROUP BY / aggregates";
                return Err(DbError::Eval(what.into()));
            };
            columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
            exprs.push(expr);
        }
        let having = sel.having.as_ref().map(bind).transpose()?;
        let items = exprs.into_iter().map(bind).collect::<Result<_>>()?;
        let output = Output::bind(sel, columns, |_| None, bind)?;
        Ok((Finish { having, items }, output))
    }

    fn reads(&self, read: &mut [bool]) {
        for e in self.having.iter().chain(&self.items) {
            e.reads(read);
        }
    }

    fn run(
        self,
        mut output: Output<'_>,
        db: &Database,
        groups: Vec<(Vec<Value>, Vec<Value>)>,
        params: &[Value],
    ) -> Result<ResultSet> {
        let (mut kept, mut row) = (0, Vec::new());
        for (rep, aggs) in groups {
            // One evaluator for HAVING and the select list: an aggregate
            // call anywhere inside them reads the group's finished value.
            let ctx = EvalContext {
                aggs: Some(&aggs),
                ..EvalContext::new(&rep, params)
            };
            if let Some(h) = &self.having {
                if !holds(&ctx, h)? {
                    continue;
                }
            }
            row.reserve_exact(self.items.len() - row.len());
            for (at, e) in self.items.iter().enumerate() {
                refill(&mut row, at, ctx.eval_cow(e)?);
            }
            kept += 1;
            output.offer(&mut row, &ctx);
        }
        if let Some(m) = db.metrics() {
            m.stage_aggregate.observe(kept as f64);
        }
        output.finish(db)
    }
}

/// Finish an aggregate SELECT from its groups — each a representative
/// row (scalar parts of the statement evaluate against it under
/// `schema`) and the finished values of the statement's aggregate calls
/// in [`aggregates`] order over the select list, HAVING and ORDER BY:
/// HAVING, the select list, then DISTINCT / ORDER BY / LIMIT. Shared by
/// the local pipeline and the federation's partial-aggregate merge, so
/// both apply the same alias-first ORDER BY rule.
pub fn finish_groups(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    groups: Vec<(Vec<Value>, Vec<Value>)>,
    params: &[Value],
) -> Result<ResultSet> {
    let (finish, output) = Finish::bind(db.functions(), sel, schema, &aggregates(sel))?;
    finish.run(output, db, groups, params)
}

/// DISTINCT, ORDER BY and LIMIT over output rows as they arrive, each
/// offered as values or as a record opened in `kept` and filled by the
/// caller. Without ORDER BY only the first LIMIT rows are kept, and
/// `kept` holds just the record being offered. With it, `kept` is one
/// arena of the output records and `keys` a parallel one of each row's
/// order key: its sort keys' cells one after another
/// ([`order_key_cell`]), each taken from the output record (a bare name
/// that is an output alias, or a column the output passes through as it
/// is), from the record the row was read from (a column the output drops;
/// from the row itself when it has no record), or from the value of an
/// expression over the row (and group). The rows are sorted by their
/// keys' bytes, ties by arrival. Under a LIMIT of n the records are cut
/// back to the n least whenever 2n have gathered. A key's error is held,
/// since a select item raising on a later row wins over it. The rows are
/// kept for the result set or lent to a reader: as they arrive when
/// nothing orders them, else once the last is in — each sorted record
/// lent as it is, and decoded only into a result set.
#[derive(Default)]
struct Output<'a> {
    /// The reader the rows are lent to; `None` keeps them.
    reader: Option<Lend<'a>>,
    /// Rows lent as they arrived.
    lent: usize,
    columns: Vec<String>,
    distinct: Option<HashSet<Vec<u8>>>,
    /// Each sort key and whether it ascends.
    order: Vec<(SortKey, bool)>,
    limit: usize,
    /// Rows kept as they arrived, nothing ordering them.
    rows: Vec<Vec<Value>>,
    /// The output records, and each one's order key; a cut copies those
    /// it keeps into `spare`.
    kept: Records,
    keys: Records,
    spare: (Records, Records),
    /// The positions of `kept`'s records, sorted up to the last cut, then
    /// by arrival.
    sorted: Vec<u32>,
    /// Rows that entered ORDER BY.
    offered: usize,
    late: Option<DbError>,
    key: Vec<u8>,
}

/// Where an ORDER BY key's cell comes from.
enum SortKey {
    /// The output row's cell.
    Out(usize),
    /// The cell of a slot the output drops.
    Slot(usize),
    /// An expression's value over the row (and group).
    Expr(Bound),
}

impl Output<'_> {
    fn bind(
        sel: &SelectStmt,
        columns: Vec<String>,
        passes: impl Fn(usize) -> Option<usize>,
        bind: impl Fn(&Expr) -> Result<Bound>,
    ) -> Result<Self> {
        let mut order = Vec::with_capacity(sel.order_by.len());
        for ob in &sel.order_by {
            // A bare column matching an output alias sorts by the output
            // column.
            let column = match &ob.expr {
                Expr::Column { table: None, name } => {
                    columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                }
                _ => None,
            };
            let key = match column {
                Some(i) => SortKey::Out(i),
                // So does a column the output passes through as it is.
                None => match bind(&ob.expr)? {
                    Bound::Slot(s) => passes(s).map_or(SortKey::Slot(s), SortKey::Out),
                    key => SortKey::Expr(key),
                },
            };
            order.push((key, ob.asc));
        }
        Ok(Output {
            columns,
            distinct: sel.distinct.then(HashSet::new),
            order,
            limit: sel.limit.unwrap_or(usize::MAX),
            ..Output::default()
        })
    }

    /// Mark the slots its keys read: the expressions', and with `slots`
    /// those it reads as they are.
    fn reads(&self, read: &mut [bool], slots: bool) {
        for (key, _) in &self.order {
            match key {
                SortKey::Slot(s) if slots => read[*s] = true,
                SortKey::Expr(e) => e.reads(read),
                _ => {}
            }
        }
    }

    /// Open the record of the next output row, `cells` cells wide, for
    /// the caller to fill and [`Output::offer_record`] to take.
    fn open(&mut self, cells: usize) -> &mut Records {
        if self.order.is_empty() {
            self.kept.clear();
        }
        self.kept.open(cells);
        &mut self.kept
    }

    /// Offer one output row as values, lent, taken or encoded; `ctx` is
    /// the row (and group) it came from.
    fn offer(&mut self, row: &mut Vec<Value>, ctx: &EvalContext) {
        if !self.order.is_empty() {
            let out = self.open(row.len());
            row.iter().for_each(|v| out.push_cell(v));
            return self.offer_record(ctx, None);
        }
        if let Some(seen) = &mut self.distinct {
            self.key.clear();
            for v in row.iter() {
                encode_key_cell(v, &mut self.key);
            }
            if !first_seen(seen, &self.key) {
                return;
            }
        }
        match self.reader {
            Some(_) => self.lend(Lent::Cells(row)),
            None if self.rows.len() < self.limit => self.rows.push(std::mem::take(row)),
            None => {}
        }
    }

    /// Offer the output row whose record [`Output::open`] began and the
    /// caller filled: lent or decoded as it arrives, nothing ordering
    /// the rows, else kept with its order key. `input` is the record the
    /// row was read from and where each of its cells lies, if it has one.
    fn offer_record(&mut self, ctx: &EvalContext, input: Option<(&[u8], &[Range<usize>])>) {
        self.kept.seal();
        let at = self.kept.len() - 1;
        if let Some(seen) = &mut self.distinct {
            self.key.clear();
            key_cells(self.kept.get(at), &mut self.key);
            if !first_seen(seen, &self.key) {
                return self.kept.truncate(at);
            }
        }
        if self.order.is_empty() {
            let record = self.kept.get(at);
            match &mut self.reader {
                Some(each) if self.lent < self.limit => {
                    each(Lent::Record(record));
                    self.lent += 1;
                }
                None if self.rows.len() < self.limit => match decode_row(record, &mut 0) {
                    Ok(row) => self.rows.push(row),
                    Err(e) => _ = self.late.get_or_insert(e),
                },
                _ => {}
            }
            return;
        }
        if self.late.is_some() {
            return self.kept.truncate(at);
        }
        self.offered += 1;
        self.key.clear();
        let record = self.kept.get(at);
        for (key, asc) in &self.order {
            let (out, desc) = (&mut self.key, !asc);
            match (key, input) {
                (SortKey::Out(i), _) => {
                    order_key_cell(cells(record).nth(*i).expect("a cell"), desc, out)
                }
                (SortKey::Slot(s), Some((rec, spans))) => {
                    order_key_cell(cell_at(rec, spans[*s].start), desc, out)
                }
                (SortKey::Slot(s), None) => order_key(&ctx.row[*s], desc, out),
                (SortKey::Expr(e), _) => match ctx.eval_cow(e) {
                    Ok(v) => order_key(&v, desc, out),
                    Err(e) => {
                        self.late = Some(e);
                        return self.kept.truncate(at);
                    }
                },
            }
        }
        self.keys.push_bytes(&self.key);
        self.sorted.push(at as u32);
        if self.sorted.len() > self.limit.saturating_mul(2) {
            self.cut();
        }
    }

    /// Lend one row as it arrives, nothing ordering the rows, while the
    /// LIMIT allows.
    fn lend(&mut self, row: Lent) {
        if let (Some(each), true) = (&mut self.reader, self.lent < self.limit) {
            each(row);
            self.lent += 1;
        }
    }

    /// Sort the records by their order keys — stably, so ties stay in
    /// arrival order — and keep the first LIMIT, copied with their keys
    /// into fresh arenas in that order.
    fn cut(&mut self) {
        let mut sorted = std::mem::take(&mut self.sorted);
        sorted.sort_by_key(|&at| self.keys.get(at as usize));
        if sorted.len() > self.limit {
            sorted.truncate(self.limit);
            let (mut out, mut keys) = std::mem::take(&mut self.spare);
            out.clear();
            keys.clear();
            for (i, at) in sorted.iter_mut().enumerate() {
                out.push_bytes(self.kept.get(*at as usize));
                keys.push_bytes(self.keys.get(*at as usize));
                *at = i as u32;
            }
            let kept = std::mem::replace(&mut self.kept, out);
            self.spare = (kept, std::mem::replace(&mut self.keys, keys));
        }
        self.sorted = sorted;
    }

    fn finish(mut self, db: &Database) -> Result<ResultSet> {
        if let Some(e) = self.late {
            return Err(e);
        }
        if !self.order.is_empty() {
            self.cut();
            if let Some(m) = db.metrics() {
                m.stage_sort.observe(self.offered as f64);
            }
        }
        if let Some(m) = db.metrics() {
            let returned = self.lent + self.rows.len() + self.sorted.len();
            m.rows_returned.add(returned as f64);
        }
        // Each sorted record lent as it is, or decoded once.
        for &at in &self.sorted {
            let record = self.kept.get(at as usize);
            match &mut self.reader {
                Some(each) => each(Lent::Record(record)),
                None => self.rows.push(decode_row(record, &mut 0)?),
            }
        }
        Ok(ResultSet {
            columns: self.columns,
            rows: self.rows,
            affected: 0,
        })
    }
}

/// Is `key` new to `seen`? It is filed if so.
fn first_seen(seen: &mut HashSet<Vec<u8>>, key: &[u8]) -> bool {
    !seen.contains(key) && seen.insert(key.to_vec())
}

/// Collect aggregate call sites from an expression, deduplicated, in
/// pre-order. Does not descend into aggregate arguments (nested
/// aggregates are invalid SQL).
fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    e.visit(&mut |e| match e {
        Expr::Function { name, .. } if is_aggregate_fn(name) => {
            if !out.contains(e) {
                out.push(e.clone());
            }
            false
        }
        _ => true,
    });
}

/// Running state of one aggregate call over one group — the only
/// aggregate-state machine in the workspace: the local pipeline folds
/// input values into it, the federation merge folds shipped per-site
/// partials into it, and both finish it the same way.
#[derive(Default)]
pub struct AggState {
    count: i64,
    sum: f64,
    sum_is_int: bool,
    int_sum: i64,
    min: Option<Value>,
    max: Option<Value>,
    non_null: i64,
}

impl AggState {
    /// Fold one input row into aggregate `name`: `arg` is the call's
    /// evaluated argument, `None` for `COUNT(*)`.
    fn fold(&mut self, name: &str, arg: Option<&Value>) -> Result<()> {
        match arg {
            None => {
                self.count += 1;
                Ok(())
            }
            Some(v) => self.fold_partial(name, v, 1),
        }
    }

    /// Fold one partial of aggregate `name`: `v` is what `name` returned
    /// over `n` non-NULL inputs (a single input value is its own partial
    /// with `n` = 1). A NULL partial — a NULL input, or a group empty at
    /// that site — contributes nothing.
    pub fn fold_partial(&mut self, name: &str, v: &Value, n: i64) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        let first = self.non_null == 0;
        self.non_null += n;
        match name {
            "COUNT" => {}
            "SUM" | "AVG" => match v {
                Value::Int(i) => {
                    if first {
                        self.sum_is_int = true;
                    }
                    if self.sum_is_int {
                        match self.int_sum.checked_add(*i) {
                            Some(s) => self.int_sum = s,
                            // i64 overflow: the aggregate promotes to
                            // DOUBLE (see DESIGN.md, "aggregate
                            // overflow policy"); the f64 running sum
                            // below keeps accumulating.
                            None => self.sum_is_int = false,
                        }
                    }
                    self.sum += *i as f64;
                }
                other => {
                    let x = other.numeric().ok_or_else(|| {
                        DbError::Type(format!("{name} over non-numeric {}", other.type_name()))
                    })?;
                    self.sum_is_int = false;
                    self.sum += x;
                }
            },
            "MIN" => {
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Less)
                {
                    self.min = Some(v.clone());
                }
            }
            "MAX" => {
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Greater)
                {
                    self.max = Some(v.clone());
                }
            }
            other => return Err(DbError::Eval(format!("unknown aggregate {other}"))),
        }
        Ok(())
    }

    /// The final value of aggregate `name` (`star` marks `COUNT(*)`).
    pub fn finish(&self, name: &str, star: bool) -> Value {
        match name {
            // COUNT(*) counts rows; COUNT(col) counts non-NULL values.
            // The two tallies are kept separate — conflating them
            // over-reports COUNT(col) on NULL-containing columns.
            "COUNT" => Value::Int(if star { self.count } else { self.non_null }),
            "SUM" => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Double(self.sum)
                }
            }
            "AVG" => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    let total = if self.sum_is_int {
                        self.int_sum as f64
                    } else {
                        self.sum
                    };
                    Value::Double(total / self.non_null as f64)
                }
            }
            "MIN" => self.min.clone().unwrap_or(Value::Null),
            "MAX" => self.max.clone().unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Index;
    use crate::index::BPlusTree;
    use crate::plan::Tail;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::sql::{expr_to_sql, parse, Stmt};
    use crate::storage::{Cursor, HeapTable};
    use crate::value::{encode_row, SqlType};

    /// Heap pages are restored from disk bytes: a record the decoder
    /// refuses is that statement's typed error, on the full scan and on
    /// the index probe alike — neither a panic nor a missing row.
    #[test]
    fn a_damaged_stored_row_is_a_typed_error_on_both_paths() {
        let row = |k: i64| [Value::Int(k), Value::Str(format!("row-{k}"))];
        let mut heap = HeapTable::new();
        let mut tree = BPlusTree::new();
        for k in 0..50 {
            tree.insert(vec![Value::Int(k)], heap.insert(&row(k)));
        }
        let mut image = Vec::new();
        heap.write_section(true, heap.len(), |_, _| Ok(true), &mut image)
            .unwrap();
        // Row 7's record inside its page: count, INTEGER tag and value,
        // then the tag byte of the string cell.
        let mut record = Vec::new();
        encode_row(&row(7), &mut record);
        let at = image
            .windows(record.len())
            .position(|w| w == record)
            .expect("row 7 is stored inline");
        image[at + 4 + 1 + 8] = 0xEE;
        let t = Table {
            schema: TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("K", SqlType::Integer),
                    ColumnDef::new("S", SqlType::Varchar(16)),
                ],
            )
            .unwrap(),
            heap: {
                let mut heap = HeapTable::new();
                heap.restore_section(&mut Cursor::new("snapshot", &image, 0), |_, _| {})
                    .unwrap();
                heap
            },
            indexes: vec![Index {
                name: "IX_K".into(),
                col_indices: vec![0],
                unique: true,
                implicit: false,
                tree,
            }],
        };
        let db = Database::new_in_memory();
        let view = db.read_view();
        let read = |path: AccessPath| {
            let mut rows = Vec::new();
            let (seen, read) = fetch(
                &db,
                &view,
                Source::Table(&t),
                path,
                WHOLE,
                |_| Ok(true),
                |_, row| {
                    rows.push(row.clone());
                    Ok(())
                },
            );
            (read.map(|()| rows), seen)
        };
        let probe = |k: i64| AccessPath::IndexRange {
            index_name: "IX_K".into(),
            index_pos: 0,
            eq: vec![Value::Int(k)],
            tail: Tail::All,
        };
        let damaged = Err(DbError::Storage("row decode: bad tag 238".into()));
        assert_eq!(read(AccessPath::FullScan), (damaged.clone(), 50));
        assert_eq!(read(probe(7)), (damaged, 1));
        assert_eq!(read(probe(8)), (Ok(vec![row(8).to_vec()]), 1));
    }

    /// GROUP BY and DISTINCT put doubles `Value::total_cmp` calls equal
    /// in one group — `0.0`, `-0.0` and `0.0 - 0.0`; NaNs of any sign or
    /// payload — and a group shows the value it was first seen with.
    #[test]
    fn signed_zeros_and_nans_share_a_group() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (k INTEGER, x DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, -0.0), (2, 0.0), (3, 0.0 - 0.0), (4, 1.0)")
            .unwrap();
        let payload = f64::from_bits(0x7ff8_0000_0000_beef);
        for (k, x) in [(5, f64::NAN), (6, -f64::NAN), (7, payload)] {
            db.execute_with_params(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(k), Value::Double(x)],
            )
            .unwrap();
        }
        let rows = |db: &mut Database, sql: &str| db.execute(sql).unwrap().rows;
        let grouped = rows(&mut db, "SELECT x, COUNT(*), MIN(k) FROM t GROUP BY x");
        assert_eq!(grouped.len(), 3, "{grouped:?}");
        assert!(matches!(grouped[0][0], Value::Double(z) if z.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(grouped[0][1..], [Value::Int(3), Value::Int(1)]);
        assert_eq!(
            grouped[1],
            [Value::Double(1.0), Value::Int(1), Value::Int(4)]
        );
        assert!(matches!(grouped[2][0], Value::Double(n) if n.is_nan()));
        assert_eq!(grouped[2][1..], [Value::Int(3), Value::Int(5)]);
        let distinct = rows(&mut db, "SELECT DISTINCT x FROM t");
        assert_eq!(distinct.len(), 3, "{distinct:?}");
        let zeros = rows(&mut db, "SELECT COUNT(*) FROM t WHERE k < 5 AND x = 0");
        assert_eq!(zeros, [[Value::Int(3)]]);
    }

    /// Aggregate calls are collected once each, in pre-order over the
    /// select list, HAVING and ORDER BY, and an aggregate's arguments
    /// are not searched: `SUM(COUNT(x))` is one call.
    #[test]
    fn aggregates_are_collected_in_pre_order_without_descending() {
        let sql = "SELECT SUM(COUNT(x)), MAX(y) + MIN(y) FROM t \
                   HAVING MAX(y) > 0 ORDER BY COUNT(*)";
        let Ok(Stmt::Select(sel)) = parse(sql) else {
            panic!("{sql} parses as a SELECT");
        };
        let calls: Vec<String> = aggregates(&sel).iter().map(expr_to_sql).collect();
        assert_eq!(calls, ["SUM(COUNT(X))", "MAX(Y)", "MIN(Y)", "COUNT(*)"]);
    }

    /// Row `k` of the damaged-record tests' table `T (K INTEGER, S
    /// VARCHAR(16), N INTEGER)`.
    fn damaged_table_row(k: i64) -> [Value; 3] {
        [
            Value::Int(k),
            Value::Str(format!("row-{k}")),
            Value::Int(-k),
        ]
    }

    /// Damage done to a cell, handed over from its tag on.
    type Damage = fn(&mut [u8]);

    /// The damage done to the string cell of row 7, each beside the
    /// decoder's error for it: a tag that is no tag, a length past the
    /// record, text that is not UTF-8.
    const DAMAGES: [(Damage, &str); 3] = [
        (|cell| cell[0] = 0xEE, "bad tag 238"),
        (
            |cell| cell[1..5].copy_from_slice(&u32::MAX.to_le_bytes()),
            "truncated",
        ),
        (|cell| cell[5] = 0xFF, "bad utf8"),
    ];

    /// Where the string cell of row 7 starts in `image`, which holds the
    /// row's record inline.
    fn damaged_cell_at(image: &[u8]) -> usize {
        let mut record = Vec::new();
        encode_row(&damaged_table_row(7), &mut record);
        let at = image
            .windows(record.len())
            .position(|w| w == record)
            .expect("row 7 is stored inline");
        // Past the count and the INTEGER cell.
        at + 4 + 9
    }

    /// A cell no expression reads is stepped over, not decoded: a bad tag
    /// or length in it is still the record's typed error, on every path,
    /// while text in it that is not UTF-8 goes unseen. A cell that is read
    /// is still checked: the filter's on every row, the rest on a row that
    /// passes. Under a sieve the record is trusted outright: the walk that
    /// tests it stops at the cell that refuses the row, and nothing after
    /// that cell is examined — a heap holds only records `encode_row`
    /// wrote or a snapshot load checked whole (DESIGN.md, "the
    /// skipped-cell rule"; `open_refuses_each_damaged_record_at_load`).
    /// Nothing panics.
    #[test]
    fn skipped_cells_are_checked_for_shape_not_text() {
        let row = damaged_table_row;
        let table = |damage: Damage| {
            let mut heap = HeapTable::new();
            for k in 0..50 {
                heap.insert(&row(k));
            }
            let mut image = Vec::new();
            heap.write_section(true, heap.len(), |_, _| Ok(true), &mut image)
                .unwrap();
            let at = damaged_cell_at(&image);
            damage(&mut image[at..]);
            let columns = vec![
                ColumnDef::new("K", SqlType::Integer),
                ColumnDef::new("S", SqlType::Varchar(16)),
                ColumnDef::new("N", SqlType::Integer),
            ];
            Table {
                schema: TableSchema::new("T", columns).unwrap(),
                heap: {
                    let mut heap = HeapTable::new();
                    heap.restore_section(&mut Cursor::new("snapshot", &image, 0), |_, _| {})
                        .unwrap();
                    heap
                },
                indexes: Vec::new(),
            }
        };
        let db = Database::new_in_memory();
        let view = db.read_view();
        // (rows kept, or the error), with `sieve` decoded for every row,
        // `all` for the rows whose K `keep` admits.
        let scan = |t: &Table, sieve: &[bool], all: &[bool], keep: fn(&Value) -> bool| {
            let mut rows = Vec::new();
            let cells = Cells {
                filter: sieve,
                all,
                ..WHOLE
            };
            let pass = |row: &[Value]| Ok(keep(&row[0]));
            let read = fetch(
                &db,
                &view,
                Source::Table(t),
                AccessPath::FullScan,
                cells,
                pass,
                |_, row| {
                    rows.push(row.clone());
                    Ok(())
                },
            );
            assert_eq!(read.0, 50);
            read.1.map(|()| rows)
        };
        let (k_only, k_and_n) = ([true, false, false], [true, false, true]);
        let everyone = |_: &Value| true;
        let seven = |k: &Value| *k == Value::Int(7);
        let not_seven = |k: &Value| *k != Value::Int(7);

        let [bad_tag, too_long, not_text] = DAMAGES.map(|(damage, _)| table(damage));
        for (t, raised) in [(&bad_tag, "bad tag 238"), (&too_long, "truncated")] {
            let damaged = Err(DbError::Storage(format!("row decode: {raised}")));
            assert_eq!(scan(t, &[], &[], everyone), damaged);
            assert_eq!(scan(t, &k_and_n, &k_and_n, everyone), damaged);
            assert_eq!(scan(t, &k_only, &k_and_n, not_seven), damaged);
        }

        let bad_utf8 = Err(DbError::Storage("row decode: bad utf8".into()));
        assert_eq!(scan(&not_text, &[], &[], everyone), bad_utf8);
        assert_eq!(scan(&not_text, &k_only, &[], seven), bad_utf8);
        let unread = scan(&not_text, &k_and_n, &k_and_n, everyone).unwrap();
        assert_eq!(unread.len(), 50);
        assert_eq!(unread[7], [Value::Int(7), Value::Null, Value::Int(-7)]);
        let skipped = scan(&not_text, &k_only, &[], not_seven).unwrap();
        assert_eq!(skipped.len(), 49);
        assert_eq!(skipped[7], row(8));

        // Under the sieve of a WHERE, whose rows are every row it keeps
        // (`filter` decoded, then all).
        let sieved = |t: &Table, pred: &str, filter: &[bool]| {
            let sql = format!("SELECT * FROM t WHERE {pred}");
            let Ok(crate::sql::ast::Stmt::Select(sel)) = crate::sql::parse(&sql) else {
                unreachable!("{sql}");
            };
            let names = ["K", "S", "N"].map(String::from);
            let w = RowSchema::for_table("T", &names).bind(
                sel.where_clause.as_ref().unwrap(),
                db.functions(),
                &[],
            );
            let (path, sieve) = choose_bound(t, Some(&w.unwrap()), &[]);
            let mut rows = Vec::new();
            let cells = Cells {
                sieve: &sieve,
                filter,
                all: &[],
                links_as_clob: false,
            };
            let read = fetch(
                &db,
                &view,
                Source::Table(t),
                path,
                cells,
                |_| Ok(true),
                |_, row| {
                    rows.push(row.clone());
                    Ok(())
                },
            );
            assert_eq!(read.0, 50);
            read.1.map(|()| rows)
        };
        let (s_only, n_only) = ([false, true, false], [false, false, true]);
        let just_eight = Ok(vec![row(8).to_vec()]);
        // After the cell that refuses row 7, no damage is examined: the
        // row is refused.
        for t in [&bad_tag, &too_long, &not_text] {
            assert_eq!(sieved(t, "k = 8", &k_only), just_eight, "after");
        }
        // A shape the walk cannot step at or before the tested cell keeps
        // the row, for the decoder to raise; so does any damage in a row
        // the sieve keeps.
        for (t, raised) in [(&bad_tag, "bad tag 238"), (&too_long, "truncated")] {
            let damaged = Err(DbError::Storage(format!("row decode: {raised}")));
            assert_eq!(sieved(t, "s LIKE 'zz%'", &s_only), damaged, "at");
            assert_eq!(sieved(t, "n = -8", &n_only), damaged, "before");
            assert_eq!(sieved(t, "k = 7", &k_only), damaged, "kept");
        }
        // Text is the decoder's to check, on the rows the sieve keeps —
        // the tested cell's, one before it, one after it. Text a row is
        // refused on, or stepped over to refuse it, is trusted.
        assert_eq!(sieved(&not_text, "s >= 'a'", &s_only), bad_utf8);
        assert_eq!(sieved(&not_text, "n = -7", &n_only), bad_utf8);
        assert_eq!(sieved(&not_text, "k = 7", &k_only), bad_utf8);
        assert_eq!(sieved(&not_text, "s LIKE 'zz%'", &s_only), Ok(vec![]));
        assert_eq!(sieved(&not_text, "n = -8", &n_only), just_eight);
    }

    /// What the sieve trusts: `Database::open` checks every record of the
    /// snapshot it loads (`snapshot::check_record`), so each damaged
    /// record of `skipped_cells_are_checked_for_shape_not_text`, in a
    /// file sealed again over it, is the record's typed error there and
    /// never reaches a heap.
    #[test]
    fn open_refuses_each_damaged_record_at_load() {
        let dir = std::env::temp_dir().join(format!(
            "easia-db-exec-{}-damaged-record",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let rid = {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (k INTEGER, s VARCHAR(16), n INTEGER)")
                .unwrap();
            for k in 0..50 {
                db.execute_with_params("INSERT INTO t VALUES (?, ?, ?)", &damaged_table_row(k))
                    .unwrap();
            }
            db.checkpoint().unwrap();
            let seventh = db.table("T").unwrap().heap.records().nth(7);
            seventh.unwrap().0
        };
        let snap = dir.join(crate::storage::snapshot::FILE);
        let good = std::fs::read(&snap).unwrap();
        let at = damaged_cell_at(&good);
        for (damage, raised) in DAMAGES {
            let mut image = good.clone();
            damage(&mut image[at..]);
            // The magic, then the base frame sealed again over the damage.
            let image = [&image[..8], &crate::txn::seal_batch(&image[21..])[..]].concat();
            std::fs::write(&snap, image).unwrap();
            let refused = format!("T row {:#x}: row decode: {raised}", rid.0);
            assert_eq!(
                Database::open(&dir).map(|_| ()),
                Err(DbError::Storage(refused))
            );
        }
        std::fs::write(&snap, &good).unwrap();
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(db.execute("SELECT k FROM t").unwrap().rows.len(), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
