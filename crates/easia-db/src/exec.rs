//! Query execution.
//!
//! A SELECT is bound once against the row its expressions meet
//! ([`BoundSelect`]): each column reference becomes a slot, each aggregate
//! call the index of its state, and a name that does not resolve is the
//! statement's error before any row is read. Its base table is read once:
//! each record is tested on its bytes against the sieve a total WHERE
//! makes, and of each it keeps the cells its filter reads are decoded and,
//! only if the row passes, the other cells the statement reads; every row
//! that passes the WHERE — off the scan itself, or off the last JOIN leg —
//! is lent to one [`Sink`], which folds it into its group or projects it,
//! and keeps only what DISTINCT, ORDER BY and LIMIT can still return.

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{truth, Bound, EvalContext, FnRegistry, RowSchema};
use crate::index::btree::has_prefix;
use crate::mvcc::ReadView;
use crate::plan::{
    bound_conjuncts, choose_bound, choose_in_scope, own_conjuncts, stand_in, AccessPath, Scope,
    Sieve,
};
use crate::schema::{DatalinkSpec, TableSchema};
use crate::sql::ast::{is_aggregate_fn, BinaryOp, Expr, JoinKind, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{decode_some_into, encode_key_cell, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Does `pred` hold (evaluate to TRUE, not UNKNOWN) on `ctx`'s row?
fn holds(ctx: &EvalContext, pred: &Bound) -> Result<bool> {
    Ok(truth(&*ctx.eval_cow(pred)?) == Some(true))
}

/// An in-memory table a SELECT can read beside the catalogue (the hub
/// merge binds each gathered federation leg as one). A FROM/JOIN name
/// matching a supplied relation denotes it before the catalogue. A
/// relation is always a full scan and always visible; it has no indexes
/// and no DATALINK spec.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The table name the relation answers to (case-insensitive).
    pub name: String,
    /// Column names, in row order.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Vec<Value>>,
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

    /// The catalogue schema that types the columns; a relation has none.
    fn schema(&self) -> Option<&'a TableSchema> {
        match self {
            Source::Relation(_) => None,
            Source::Table(t) => Some(&t.schema),
        }
    }

    /// Lend each row `view` can see along `path` to `pass`, in storage
    /// order, and each that passes to `take`, decoding only `cells` (see
    /// [`fetch`]); returns how many rows it visited. A relation has no
    /// indexes and no versions: it is visited whole, each row lent as it
    /// is.
    fn scan(
        &self,
        db: &Database,
        view: &ReadView,
        path: AccessPath,
        cells: Cells,
        mut pass: impl FnMut(&[Value]) -> Result<bool>,
        mut take: impl FnMut(&[Value]) -> Result<()>,
    ) -> (usize, Result<()>) {
        match self {
            Source::Relation(r) => {
                let visited = r.rows.iter().try_for_each(|row| match pass(row)? {
                    true => take(row),
                    false => Ok(()),
                });
                (r.rows.len(), visited)
            }
            Source::Table(t) => fetch(db, view, t, path, cells, pass, |_, row| take(row)),
        }
    }
}

/// How a scan reads a record: tested against `sieve` on its bytes, then
/// decoded — `filter`'s cells (the ones the scan's filter reads) for a
/// row the sieve keeps, `all` (which holds them) for a row that passes
/// the filter. An empty mask is every cell.
#[derive(Clone, Copy)]
struct Cells<'m> {
    sieve: &'m Sieve,
    filter: &'m [bool],
    all: &'m [bool],
}

/// Every cell of every row, unsieved.
const WHOLE: Cells = Cells {
    sieve: &Sieve::NONE,
    filter: &[],
    all: &[],
};

/// Lend the rows of catalogue table `t` visible to `view`, read along
/// `path` in heap order, to `pass`, and each that passes to `take` with
/// its row id; see [`sift`].
fn fetch(
    db: &Database,
    view: &ReadView,
    t: &Table,
    path: AccessPath,
    cells: Cells,
    pass: impl FnMut(&[Value]) -> Result<bool>,
    take: impl FnMut(RowId, &mut Vec<Value>) -> Result<()>,
) -> (usize, Result<()>) {
    let visible = db.row_visibility(&t.schema.name, view);
    match path {
        AccessPath::FullScan => {
            let records = t.heap.records().filter(|(rid, _)| visible(*rid));
            sift(records, cells, pass, take)
        }
        AccessPath::IndexRange {
            index_pos,
            eq,
            tail,
            ..
        } => {
            let ix = &t.indexes[index_pos];
            let bound = eq.len();
            let mut rids = if bound == ix.col_indices.len() {
                ix.tree.get(&eq)
            } else {
                // Seek to the equality run (and the tail's lower bound),
                // then take keys until one leaves the run or the tail.
                let mut lo = eq;
                lo.extend(tail.lower_bound());
                let mut rids = Vec::new();
                ix.tree.scan_from(&lo, |key, rows| {
                    let inside = has_prefix(key, &lo[..bound]) && tail.admits(&key[bound]);
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
            sift(records, cells, pass, take)
        }
    }
}

/// Test each of `records` against the sieve on its bytes
/// ([`Sieve::keeps`]); decode the filter's cells of a record it keeps
/// ([`decode_some_into`]) into a scratch row and lend it to `pass`;
/// decode a row that passes again, with all its cells, into a second
/// scratch row and lend that to `take`, which copies out (or takes) what
/// it keeps. A record the sieve refuses is walked once and nothing of it
/// decoded or evaluated; each scratch row refills the buffers it already
/// owns, so a rejected row allocates nothing. Returns the number of
/// records, also when a closure or the decoder raises part-way — the
/// first error is the one returned, and what it left unvisited was a
/// candidate all the same.
fn sift<'r>(
    mut records: impl Iterator<Item = (RowId, &'r [u8])>,
    cells: Cells,
    mut pass: impl FnMut(&[Value]) -> Result<bool>,
    mut take: impl FnMut(RowId, &mut Vec<Value>) -> Result<()>,
) -> (usize, Result<()>) {
    let (mut sieved, mut whole) = (Vec::new(), Vec::new());
    let twice = cells.filter != cells.all;
    let (mut seen, mut visited) = (0, Ok(()));
    for (rid, record) in records.by_ref() {
        seen += 1;
        visited = cells.sieve.keeps(record, cells.filter).and_then(|kept| {
            if !kept {
                return Ok(());
            }
            decode_some_into(record, &mut 0, &mut sieved, cells.filter)?;
            if !pass(&sieved)? {
                return Ok(());
            }
            if !twice {
                return take(rid, &mut sieved);
            }
            decode_some_into(record, &mut 0, &mut whole, cells.all)?;
            take(rid, &mut whole)
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
    let schema = RowSchema::for_table(table, &Source::Table(t).columns());
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
    let (candidates, read) = fetch(db, view, t, path, cells, pass, |rid, row| {
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

/// Execute a SELECT against a read view.
pub fn run_select(
    db: &Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
) -> Result<ResultSet> {
    run_select_over(db, view, sel, params, &[])
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
        return Ok(ResultSet {
            columns,
            rows: vec![items.iter().map(|e| ctx.eval(e)).collect::<Result<_>>()?],
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
    // visits, the rest of the statement's only for a row that passes.
    let scan_filter = if legs.is_empty() {
        filter.iter().collect()
    } else {
        own
    };
    let mut filter_reads = read.clone();
    if !scan_filter.is_empty() {
        filter_reads.fill(false);
        scan_filter.iter().for_each(|e| e.reads(&mut filter_reads));
    }
    let filtered = |row: &[Value]| match &filter {
        Some(w) => holds(&EvalContext::new(row, params), w),
        None => Ok(true),
    };
    let mut passed = 0;
    let mut accept = |row: &[Value], sink: &mut Sink| {
        passed += 1;
        sink.take(db, &EvalContext::new(row, params));
    };
    if legs.is_empty() {
        let cells = Cells {
            sieve: &sieve,
            filter: &filter_reads,
            all: &read,
        };
        let (candidates, scanned) = sources[0].scan(db, view, path, cells, filtered, |row| {
            accept(row, &mut sink);
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
            all: &read[..base_width],
        };
        let mut rows = Vec::new();
        let (candidates, scanned) = sources[0].scan(db, view, path, cells, own_pass, |row| {
            rows.push(row.to_vec());
            Ok(())
        });
        note_scan(db, index_probe, candidates);
        scanned?;
        // Every leg but the last materialises its pairings; the last
        // lends each to the WHERE, whose error waits for the ONs of the
        // pairings after it.
        let (mut at, mut joined, mut raised) = (base_width, 0, None);
        for (i, leg) in legs.iter().enumerate() {
            let leg_read = &read[at..at + leg.width];
            at += leg.width;
            let left = std::mem::take(&mut rows);
            if i + 1 < legs.len() {
                run_join(db, view, left, leg, leg_read, params, |row| {
                    rows.push(row.to_vec());
                    Ok(())
                })?;
            } else {
                run_join(db, view, left, leg, leg_read, params, |row| {
                    joined += 1;
                    match raised.is_none().then(|| filtered(row)) {
                        Some(Ok(true)) => accept(row, &mut sink),
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

/// Join `left` rows with `leg`, lending each pairing that passes its ON
/// — and, for a LEFT JOIN, each unmatched left row padded with NULLs —
/// to `emit`, in left-row order. The pairing lives in one buffer: the
/// left row moves in, each right candidate is lent to it and taken back.
/// The right leg decodes only the cells `read` selects. Under a probe a
/// left row meets the rows its key finds in the index, unless the key
/// cannot be compared with the indexed column's type: then every
/// pairing would raise or not as the ON decides, and the row meets the
/// whole leg as it would without the probe.
fn run_join(
    db: &Database,
    view: &ReadView,
    left: Vec<Vec<Value>>,
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
        leg.source
            .scan(db, view, AccessPath::FullScan, cells, keep_all, |row| {
                rows.push(row.to_vec());
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
    for lrow in left {
        let left_width = lrow.len();
        pairing.clear();
        pairing.extend(lrow);
        let mut by_index = false;
        if let Some((p, visible)) = &probe {
            let key = EvalContext::new(&pairing, params).eval(&p.key)?;
            by_index = key.is_null() || p.like.sql_cmp(&key).is_some();
            probed.clear();
            if by_index && !key.is_null() {
                let rids = p.table.indexes[p.index].tree.get(&[key]);
                for rid in rids.into_iter().filter(|rid| visible(*rid)) {
                    if let Some(record) = p.table.heap.record(rid) {
                        let mut row = Vec::new();
                        decode_some_into(record, &mut 0, &mut row, read)?;
                        probed.push(row);
                    }
                }
            }
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
/// group, whose rows reach the output once every group is complete. The
/// first error it meets is held and it takes no row after it — the scan
/// still owes the WHERE and decoder errors of later rows, which win.
struct Sink<'a> {
    held: Option<DbError>,
    shape: Shape<'a>,
    output: Output,
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
            let output = Output::bind(sel, columns, |e| schema.bind(e, functions, &[]))?;
            (Shape::Rows(outs), output)
        };
        Ok(Sink {
            held: None,
            shape,
            output,
        })
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
        self.output.reads(read);
    }

    /// Take one row that passed the WHERE.
    fn take(&mut self, db: &Database, ctx: &EvalContext) {
        if self.held.is_some() {
            return;
        }
        let taken = match &mut self.shape {
            Shape::Rows(outs) => {
                let mut row = Vec::with_capacity(outs.len());
                let projected = outs.iter().try_for_each(|out| {
                    row.push(match out {
                        Out::Slot(i, spec) => match (&ctx.row[*i], spec) {
                            (Value::Datalink(url), Some(spec)) => {
                                Value::Datalink(db.render_datalink(spec, url))
                            }
                            (v, _) => v.clone(),
                        },
                        Out::Expr(e) => ctx.eval(e)?,
                    });
                    Ok(())
                });
                projected.map(|()| self.output.offer(row, ctx))
            }
            Shape::Groups(g) => g.fold(ctx),
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
    fn bind(
        functions: &FnRegistry,
        sel: &SelectStmt,
        schema: &RowSchema,
    ) -> Result<(Self, Output)> {
        let bind = |e: &Expr| schema.bind(e, functions, &[]);
        let keys = sel.group_by.iter().map(bind).collect::<Result<_>>()?;
        let aggs = aggregates(sel);
        let mut calls = Vec::with_capacity(aggs.len());
        for agg in &aggs {
            let Expr::Function { name, args, star } = agg else {
                unreachable!("collect_aggs only collects functions");
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
        output: Output,
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

/// The aggregate calls of `sel`, deduplicated, in the order
/// [`collect_aggs`] meets them in the select list, HAVING and ORDER BY.
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
    fn bind(
        functions: &FnRegistry,
        sel: &SelectStmt,
        schema: &RowSchema,
        aggs: &[Expr],
    ) -> Result<(Self, Output)> {
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
        let output = Output::bind(sel, columns, bind)?;
        Ok((Finish { having, items }, output))
    }

    fn reads(&self, read: &mut [bool]) {
        for e in self.having.iter().chain(&self.items) {
            e.reads(read);
        }
    }

    fn run(
        self,
        mut output: Output,
        db: &Database,
        groups: Vec<(Vec<Value>, Vec<Value>)>,
        params: &[Value],
    ) -> Result<ResultSet> {
        let mut kept = 0;
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
            let row = self
                .items
                .iter()
                .map(|e| ctx.eval(e))
                .collect::<Result<_>>()?;
            kept += 1;
            output.offer(row, &ctx);
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
/// in [`collect_aggs`] order over the select list, HAVING and ORDER BY:
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

/// DISTINCT, ORDER BY and LIMIT over output rows as they arrive.
/// Without ORDER BY only the first LIMIT rows are kept. With it, each
/// row's keys are taken on arrival — the output column for a bare name
/// that is an output alias, else the expression over the row (and
/// group) it came from — and under a LIMIT of n the rows are cut back to
/// the n least by (keys, arrival) whenever 2n have gathered: what a
/// stable sort and a truncate would leave. A key's error is held, since
/// a select item raising on a later row wins over it.
struct Output {
    columns: Vec<String>,
    distinct: Option<HashSet<Vec<u8>>>,
    order: Vec<(Key, bool)>,
    limit: usize,
    /// `(sort keys, row)`: sorted up to the last cut, then by arrival.
    rows: Vec<(Vec<Value>, Vec<Value>)>,
    /// Rows that entered ORDER BY.
    sorted: usize,
    late: Option<DbError>,
    key: Vec<u8>,
}

/// An ORDER BY key: an output column, or an expression.
enum Key {
    Column(usize),
    Expr(Bound),
}

impl Output {
    fn bind(
        sel: &SelectStmt,
        columns: Vec<String>,
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
                Some(i) => Key::Column(i),
                None => Key::Expr(bind(&ob.expr)?),
            };
            order.push((key, ob.asc));
        }
        Ok(Output {
            columns,
            distinct: sel.distinct.then(HashSet::new),
            order,
            limit: sel.limit.unwrap_or(usize::MAX),
            rows: Vec::new(),
            sorted: 0,
            late: None,
            key: Vec::new(),
        })
    }
    fn reads(&self, read: &mut [bool]) {
        for (key, _) in &self.order {
            if let Key::Expr(e) = key {
                e.reads(read);
            }
        }
    }

    /// Offer one output row; `ctx` is the row (and group) it came from.
    fn offer(&mut self, row: Vec<Value>, ctx: &EvalContext) {
        if let Some(seen) = &mut self.distinct {
            self.key.clear();
            for v in &row {
                encode_key_cell(v, &mut self.key);
            }
            if seen.contains(&self.key[..]) {
                return;
            }
            seen.insert(self.key.clone());
        }
        if self.order.is_empty() {
            if self.rows.len() < self.limit {
                self.rows.push((Vec::new(), row));
            }
            return;
        }
        if self.late.is_some() {
            return;
        }
        self.sorted += 1;
        let keys = self
            .order
            .iter()
            .map(|(key, _)| match key {
                Key::Column(i) => Ok(row[*i].clone()),
                Key::Expr(e) => ctx.eval(e),
            })
            .collect();
        match keys {
            Ok(keys) => {
                self.rows.push((keys, row));
                if self.rows.len() > self.limit.saturating_mul(2) {
                    self.cut();
                }
            }
            Err(e) => self.late = Some(e),
        }
    }

    /// Sort the rows by their keys, stably, and keep the first LIMIT.
    fn cut(&mut self) {
        let order = &self.order;
        self.rows.sort_by(|(a, _), (b, _)| {
            let keys = order.iter().zip(a.iter().zip(b));
            keys.map(|((_, asc), (x, y))| {
                let ord = x.total_cmp(y);
                if *asc {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
        });
        self.rows.truncate(self.limit);
    }

    fn finish(mut self, db: &Database) -> Result<ResultSet> {
        if let Some(e) = self.late {
            return Err(e);
        }
        if !self.order.is_empty() {
            self.cut();
            if let Some(m) = db.metrics() {
                m.stage_sort.observe(self.sorted as f64);
            }
        }
        if let Some(m) = db.metrics() {
            m.rows_returned.add(self.rows.len() as f64);
        }
        Ok(ResultSet {
            columns: self.columns,
            rows: self.rows.into_iter().map(|(_, row)| row).collect(),
            affected: 0,
        })
    }
}

/// Collect aggregate call sites from an expression, deduplicated, in
/// first-appearance order. Does not recurse into aggregate arguments
/// (nested aggregates are invalid SQL).
pub fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_fn(name) {
            if !out.contains(e) {
                out.push(e.clone());
            }
            return; // nested aggregates are invalid; don't recurse
        }
    }
    match e {
        Expr::Unary(_, inner) => collect_aggs(inner, out),
        Expr::Binary(l, _, r) => {
            collect_aggs(l, out);
            collect_aggs(r, out);
        }
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::Like { expr, pattern, .. } => {
            collect_aggs(expr, out);
            collect_aggs(pattern, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for i in list {
                collect_aggs(i, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        _ => {}
    }
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
    use crate::storage::HeapTable;
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
        heap.snapshot(&mut image);
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
            heap: HeapTable::restore(&image, &mut 0).unwrap(),
            indexes: vec![Index {
                name: "IX_K".into(),
                col_indices: vec![0],
                unique: true,
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
                &t,
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

    /// A cell no expression reads is stepped over, not decoded: a bad tag
    /// or length in it is still the record's typed error, on every path,
    /// while text in it that is not UTF-8 goes unseen — a heap holds only
    /// records `encode_row` wrote or a snapshot load decoded whole
    /// (DESIGN.md, "skipped cells"). A cell that is read is still checked:
    /// the filter's on every row, the rest on a row that passes.
    #[test]
    fn skipped_cells_are_checked_for_shape_not_text() {
        let row = |k: i64| {
            [
                Value::Int(k),
                Value::Str(format!("row-{k}")),
                Value::Int(-k),
            ]
        };
        let table = |damage: &dyn Fn(&mut [u8])| {
            let mut heap = HeapTable::new();
            for k in 0..50 {
                heap.insert(&row(k));
            }
            let mut image = Vec::new();
            heap.snapshot(&mut image);
            let mut record = Vec::new();
            encode_row(&row(7), &mut record);
            let at = image
                .windows(record.len())
                .position(|w| w == record)
                .expect("row 7 is stored inline");
            // Past the count and the INTEGER cell: the string's tag, its
            // length, its text.
            damage(&mut image[at + 4 + 9..]);
            let columns = vec![
                ColumnDef::new("K", SqlType::Integer),
                ColumnDef::new("S", SqlType::Varchar(16)),
                ColumnDef::new("N", SqlType::Integer),
            ];
            Table {
                schema: TableSchema::new("T", columns).unwrap(),
                heap: HeapTable::restore(&image, &mut 0).unwrap(),
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
                t,
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

        let bad_tag = table(&|cell| cell[0] = 0xEE);
        let too_long = table(&|cell| cell[1..5].copy_from_slice(&u32::MAX.to_le_bytes()));
        for (t, raised) in [(&bad_tag, "bad tag 238"), (&too_long, "truncated")] {
            let damaged = Err(DbError::Storage(format!("row decode: {raised}")));
            assert_eq!(scan(t, &[], &[], everyone), damaged);
            assert_eq!(scan(t, &k_and_n, &k_and_n, everyone), damaged);
            assert_eq!(scan(t, &k_only, &k_and_n, not_seven), damaged);
        }

        let not_text = table(&|cell| cell[5] = 0xFF);
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
        // (`filter` decoded, then all): row 7 is refused on its bytes,
        // and its shape and the text the WHERE reads still checked.
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
            };
            let read = fetch(
                &db,
                &view,
                t,
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
        for (t, raised) in [(&bad_tag, "bad tag 238"), (&too_long, "truncated")] {
            let damaged = Err(DbError::Storage(format!("row decode: {raised}")));
            assert_eq!(
                sieved(t, "k = 8", &k_only),
                damaged,
                "after the tested cell"
            );
        }
        let s_only = [false, true, false];
        assert_eq!(sieved(&not_text, "s LIKE 'zz%'", &s_only), bad_utf8);
        assert_eq!(
            sieved(&not_text, "k = 8", &k_only),
            Ok(vec![row(8).to_vec()])
        );
    }
}
