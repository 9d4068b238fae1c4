//! Query execution.
//!
//! A SELECT is bound once against the row its expressions meet
//! ([`Bound`]): each column reference becomes a slot, each aggregate call
//! the index of its state. Its base table is read once, decoding of each
//! row the cells its filter reads and, only if the row passes, the other
//! cells the statement reads; every row that passes the WHERE — off the
//! scan itself, or off the last JOIN leg — is lent to one [`Sink`], which
//! folds it into its group or projects it, and keeps only what DISTINCT,
//! ORDER BY and LIMIT can still return.

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{truth, Bound, EvalContext, RowSchema};
use crate::index::btree::has_prefix;
use crate::mvcc::ReadView;
use crate::plan::{choose_access_path, choose_in_scope, conjuncts, AccessPath, Scope};
use crate::schema::DatalinkSpec;
use crate::sql::ast::{is_aggregate_fn, BinaryOp, Expr, Join, JoinKind, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{decode_some_into, encode_key_cell, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// The context in which expressions over `row` (shaped by `schema`)
/// evaluate; it carries no aggregate values.
fn row_ctx<'a>(
    db: &'a Database,
    schema: &'a RowSchema,
    row: &'a [Value],
    params: &'a [Value],
) -> EvalContext<'a> {
    EvalContext {
        schema,
        row,
        params,
        functions: db.functions(),
        aggs: None,
    }
}

/// Does `pred` hold (evaluate to TRUE, not UNKNOWN) on `ctx`'s row?
fn holds(ctx: &EvalContext, pred: &Bound) -> Result<bool> {
    Ok(truth(&*ctx.eval_cow(pred)?) == Some(true))
}

/// `e` bound against `schema`, outside any group.
fn bind(db: &Database, schema: &RowSchema, e: &Expr) -> Bound {
    schema.bind(e, db.functions(), &[])
}

/// Evaluate a row-independent expression (a constant the planner folds).
pub fn eval_const(db: &Database, expr: &Expr, params: &[Value]) -> Result<Value> {
    row_ctx(db, &RowSchema::default(), &[], params).eval(expr)
}

/// Evaluate `expr`, bound once for its statement, against `row` (`&[]`
/// for INSERT's VALUES): what INSERT and UPDATE run per value.
pub fn eval_bound(db: &Database, expr: &Bound, row: &[Value], params: &[Value]) -> Result<Value> {
    let schema = RowSchema::default();
    let ctx = row_ctx(db, &schema, row, params);
    ctx.eval_cow(expr).map(Cow::into_owned)
}

/// An in-memory table a SELECT can read beside the catalogue (the hub
/// merge binds each gathered federation leg as one). A FROM/JOIN name
/// matching a supplied relation resolves to it before the catalogue. A
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
    /// Resolve `name`: a supplied relation first, else the catalogue.
    fn resolve(db: &'a Database, relations: &'a [Relation], name: &str) -> Result<Source<'a>> {
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
    fn schema(&self) -> Option<&'a crate::schema::TableSchema> {
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

/// The cells a scan decodes: `sieve`'s for every row it visits, `all`
/// (which holds them) for a row that passes the scan's filter. An empty
/// mask is every cell.
#[derive(Clone, Copy)]
struct Cells<'m> {
    sieve: &'m [bool],
    all: &'m [bool],
}

/// Every cell of every row.
const WHOLE: Cells = Cells {
    sieve: &[],
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

/// Decode each of `records` into a scratch row — the sieve's cells
/// ([`decode_some_into`]) — and lend it to `pass`; decode a row that
/// passes again, with all its cells, into a second scratch row and lend
/// that to `take`, which copies out (or takes) what it keeps. Each
/// scratch row refills the buffers it already owns, so a rejected row
/// allocates nothing and has only the cells its filter reads decoded.
/// Returns the number of records, also when a closure or the decoder
/// raises part-way — the first error is the one returned, and what it
/// left unvisited was a candidate all the same.
fn sift<'r>(
    mut records: impl Iterator<Item = (RowId, &'r [u8])>,
    cells: Cells,
    mut pass: impl FnMut(&[Value]) -> Result<bool>,
    mut take: impl FnMut(RowId, &mut Vec<Value>) -> Result<()>,
) -> (usize, Result<()>) {
    let (mut sieved, mut whole) = (Vec::new(), Vec::new());
    let twice = cells.sieve != cells.all;
    let (mut seen, mut visited) = (0, Ok(()));
    for (rid, record) in records.by_ref() {
        seen += 1;
        let decode = |read, row: &mut Vec<Value>| decode_some_into(record, &mut 0, row, read);
        visited = decode(cells.sieve, &mut sieved).and_then(|()| {
            if !pass(&sieved)? {
                return Ok(());
            }
            if !twice {
                return take(rid, &mut sieved);
            }
            decode(cells.all, &mut whole)?;
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
/// `where_clause` (index-accelerated when possible). Used by
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
    let path = choose_access_path(db, t, table, where_clause, params)?;
    let index_probe = matches!(path, AccessPath::IndexRange { .. });
    let schema = RowSchema::for_table(table, &Source::Table(t).columns());
    let pred = where_clause.map(|w| bind(db, &schema, w));
    let pass = |row: &[Value]| match &pred {
        Some(p) => holds(&row_ctx(db, &schema, row, params), p),
        None => Ok(true),
    };
    let mut matching = Vec::new();
    let (candidates, read) = fetch(db, view, t, path, WHOLE, pass, |rid, row| {
        matching.push((rid, std::mem::take(row)));
        Ok(())
    });
    note_scan(db, index_probe, candidates);
    read.map(|()| matching)
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
/// Errors keep the phase order of an executor that finished each stage
/// before the next: a JOIN's ON and probe errors, then the WHERE's (and
/// the decoder's), then projection and grouping errors, then HAVING and
/// the select list per group, then ORDER BY keys — within a phase, the
/// first row's. Streaming holds a later phase's error until the earlier
/// phases have run over every row.
pub fn run_select_over(
    db: &Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
    relations: &[Relation],
) -> Result<ResultSet> {
    // Table-less SELECT: evaluate items against an empty row.
    let Some(from) = &sel.from else {
        let schema = RowSchema::default();
        let ctx = row_ctx(db, &schema, &[], params);
        let mut columns = Vec::new();
        let mut row = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                    row.push(ctx.eval(expr)?);
                }
                _ => return Err(DbError::Eval("wildcard requires FROM".into())),
            }
        }
        return Ok(ResultSet {
            columns,
            rows: vec![row],
            affected: 0,
        });
    };

    // ---- bind: the joined row, each leg's ON, the statement ----
    let base_alias = from
        .alias
        .clone()
        .unwrap_or_else(|| from.name.to_ascii_uppercase());
    let base = Source::resolve(db, relations, &from.name)?;
    let mut schema = RowSchema::for_table(&base_alias, &base.columns());
    let base_width = schema.columns.len();
    // Catalogue-backed aliases only: a relation carries no DATALINK spec.
    let mut catalogue = HashMap::new();
    if let Source::Table(_) = base {
        catalogue.insert(base_alias.clone(), from.name.to_ascii_uppercase());
    }
    // A JOIN naming no table ends the legs: over a catalogue base it
    // raises before anything is read, over a relation once the joins
    // before it have run.
    let mut legs = Vec::new();
    let mut missing = None;
    for join in &sel.joins {
        match Source::resolve(db, relations, &join.table.name) {
            Ok(source) => legs.push(Leg::bind(db, join, source, &mut schema, &mut catalogue)),
            Err(e) => {
                missing = Some(e);
                break;
            }
        }
    }
    let missing = match missing {
        Some(e) if matches!(base, Source::Table(_)) => return Err(e),
        missing => missing,
    };
    let filter = sel.where_clause.as_ref().map(|w| bind(db, &schema, w));
    let mut sink = Sink::bind(db, sel, &schema, &catalogue);
    // The cells anything above may read; no scan decodes another.
    let mut read = vec![false; schema.columns.len()];
    for e in filter.iter().chain(legs.iter().flat_map(Leg::bound)) {
        e.reads(&mut read);
    }
    sink.reads(&mut read);

    // ---- plan the base table ----
    let mut path = AccessPath::FullScan;
    // WHERE conjuncts over the base table's own columns, applied to its
    // rows before they are joined.
    let mut own = Vec::new();
    if let Source::Table(t) = base {
        // The WHERE runs over joined rows and each ON over the legs so
        // far; the base narrows only when none of them can raise on a
        // row the narrowing would skip.
        let mut scope = Scope::of(&base_alias, &t.schema);
        let mut total = true;
        for (join, leg) in sel.joins.iter().zip(&legs) {
            scope.join(&leg.alias, &leg.columns, leg.source.schema());
            total &= scope.total(db, &join.on, params);
        }
        if let Some(pred) = sel.where_clause.as_ref().filter(|_| total) {
            if scope.total(db, pred, params) {
                path = choose_in_scope(db, t, &scope, pred, params);
                if !sel.joins.is_empty() {
                    own = scope.own_conjuncts(pred, base_width);
                }
            }
        }
    }
    let own: Vec<Bound> = own.into_iter().map(|c| bind(db, &schema, c)).collect();
    let index_probe = matches!(path, AccessPath::IndexRange { .. });

    // ---- stream ----
    // The cells the scan's own filter reads are decoded for every row it
    // visits, the rest of the statement's only for a row that passes.
    let scan_filter = if sel.joins.is_empty() {
        filter.as_slice()
    } else {
        &own
    };
    let mut sieve = read.clone();
    if !scan_filter.is_empty() {
        sieve.fill(false);
        scan_filter.iter().for_each(|e| e.reads(&mut sieve));
    }
    let filtered = |row: &[Value]| match &filter {
        Some(w) => holds(&row_ctx(db, &schema, row, params), w),
        None => Ok(true),
    };
    let mut passed = 0;
    let mut accept = |row: &[Value], sink: &mut Sink| {
        passed += 1;
        sink.take(&row_ctx(db, &schema, row, params));
    };
    if sel.joins.is_empty() {
        let cells = Cells {
            sieve: &sieve,
            all: &read,
        };
        let (candidates, scanned) = base.scan(db, view, path, cells, filtered, |row| {
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
            let ctx = row_ctx(db, &schema, row, params);
            Ok(own.iter().all(|c| !matches!(holds(&ctx, c), Ok(false))))
        };
        let cells = Cells {
            sieve: &sieve[..base_width],
            all: &read[..base_width],
        };
        let mut rows = Vec::new();
        let (candidates, scanned) = base.scan(db, view, path, cells, own_pass, |row| {
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
            let leg_read = &read[at..at + leg.columns.len()];
            at += leg.columns.len();
            let left = std::mem::take(&mut rows);
            if i + 1 < sel.joins.len() {
                run_join(db, view, &schema, left, leg, leg_read, params, |row| {
                    rows.push(row.to_vec());
                    Ok(())
                })?;
            } else {
                run_join(db, view, &schema, left, leg, leg_read, params, |row| {
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
        if let Some(e) = missing {
            return Err(e);
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
    sink.finish(&schema, params)
}

/// One JOIN leg, bound against the legs before it.
struct Leg<'a> {
    source: Source<'a>,
    kind: JoinKind,
    /// The name its columns are qualified by.
    alias: String,
    columns: Vec<String>,
    /// ON, over the legs up to this one.
    on: Bound,
    /// Index nested loop: ON has a conjunct `alias.col = <expression
    /// over the legs before>` and the leg is a catalogue table indexed
    /// on `col` alone — (table, index position, that expression).
    probe: Option<(&'a Table, usize, Bound)>,
}

impl<'a> Leg<'a> {
    /// Bind `join` over `source`, whose columns it appends to `schema`.
    fn bind(
        db: &'a Database,
        join: &Join,
        source: Source<'a>,
        schema: &mut RowSchema,
        catalogue: &mut HashMap<String, String>,
    ) -> Self {
        let alias = join
            .table
            .alias
            .clone()
            .unwrap_or_else(|| join.table.name.to_ascii_uppercase());
        let columns = source.columns();
        let mut probe = None;
        if let Source::Table(t) = source {
            catalogue.insert(alias.clone(), join.table.name.to_ascii_uppercase());
            probe = probe_of(db, t, &alias, &join.on, schema);
        }
        *schema = schema.join(&RowSchema::for_table(&alias, &columns));
        Leg {
            source,
            kind: join.kind,
            on: bind(db, schema, &join.on),
            alias,
            columns,
            probe,
        }
    }

    /// The expressions it evaluates.
    fn bound(&self) -> impl Iterator<Item = &Bound> {
        std::iter::once(&self.on).chain(self.probe.as_ref().map(|(_, _, e)| e))
    }
}

/// Equi-join acceleration: the first conjunct of `on` that equates a
/// column of `t` (known as `alias`) carrying a one-column index with an
/// expression over `left` alone.
fn probe_of<'a>(
    db: &Database,
    t: &'a Table,
    alias: &str,
    on: &Expr,
    left: &RowSchema,
) -> Option<(&'a Table, usize, Bound)> {
    for c in conjuncts(on) {
        let Expr::Binary(l, BinaryOp::Eq, r) = c else {
            continue;
        };
        for (a, b) in [(l, r), (r, l)] {
            let Expr::Column {
                table: Some(ta),
                name,
            } = a.as_ref()
            else {
                continue;
            };
            if !ta.eq_ignore_ascii_case(alias) {
                continue;
            }
            let Some(cpos) = t.schema.column_index(name) else {
                continue;
            };
            let ipos = t.indexes.iter().position(|ix| ix.col_indices == [cpos]);
            if let (Some(ipos), true) = (ipos, expr_uses_only(b, left)) {
                return Some((t, ipos, bind(db, left, b)));
            }
        }
    }
    None
}

fn expr_uses_only(e: &Expr, schema: &RowSchema) -> bool {
    let mut ok = true;
    e.walk(&mut |n| {
        if let Expr::Column { table, name } = n {
            if schema.resolve(table.as_deref(), name).is_err() {
                ok = false;
            }
        }
    });
    ok
}

/// Join `left` rows with `leg`, lending each pairing that passes its ON
/// — and, for a LEFT JOIN, each unmatched left row padded with NULLs —
/// to `emit`, in left-row order. The pairing lives in one buffer: the
/// left row moves in, each right candidate is lent to it and taken back.
/// The right leg decodes only the cells `read` selects.
#[allow(clippy::too_many_arguments)]
fn run_join(
    db: &Database,
    view: &ReadView,
    schema: &RowSchema,
    left: Vec<Vec<Value>>,
    leg: &Leg,
    read: &[bool],
    params: &[Value],
    mut emit: impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    // Without a probe every left row meets the whole right leg, read once.
    let mut right_rows: Vec<Vec<Value>> = Vec::new();
    if leg.probe.is_none() {
        let cells = Cells {
            sieve: read,
            all: read,
        };
        let keep_all = |_: &[Value]| Ok(true);
        leg.source
            .scan(db, view, AccessPath::FullScan, cells, keep_all, |row| {
                right_rows.push(row.to_vec());
                Ok(())
            })
            .1?;
    }
    let probe = leg.probe.as_ref().map(|(t, ipos, lexpr)| {
        let visible = db.row_visibility(&t.schema.name, view);
        (t, ipos, lexpr, visible)
    });
    let mut pairing: Vec<Value> = Vec::new();
    let mut probed: Vec<Vec<Value>> = Vec::new();
    for lrow in left {
        let left_width = lrow.len();
        pairing.clear();
        pairing.extend(lrow);
        let candidates = match &probe {
            Some((t, ipos, lexpr, visible)) => {
                let key = row_ctx(db, schema, &pairing, params)
                    .eval_cow(lexpr)?
                    .into_owned();
                probed.clear();
                if !key.is_null() {
                    let rids = t.indexes[**ipos].tree.get(&[key]);
                    for rid in rids.into_iter().filter(|rid| visible(*rid)) {
                        if let Some(record) = t.heap.record(rid) {
                            let mut row = Vec::new();
                            decode_some_into(record, &mut 0, &mut row, read)?;
                            probed.push(row);
                        }
                    }
                }
                &mut probed
            }
            None => &mut right_rows,
        };
        let mut matched = false;
        for rrow in candidates.iter_mut() {
            pairing.append(rrow);
            let lent = holds(&row_ctx(db, schema, &pairing, params), &leg.on).and_then(|on| {
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
            pairing.extend(std::iter::repeat_n(Value::Null, leg.columns.len()));
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
    db: &'a Database,
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
        db: &'a Database,
        sel: &SelectStmt,
        schema: &RowSchema,
        catalogue: &HashMap<String, String>,
    ) -> Self {
        let has_agg = sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || sel.having.as_ref().is_some_and(|h| h.contains_aggregate())
            || !sel.group_by.is_empty();
        if has_agg {
            let aggs = aggregates(sel);
            let (finish, output) = Finish::bind(db, sel, schema, &aggs);
            let grouping = Grouping::bind(db, sel, schema, &aggs, finish);
            let shape = Shape::Groups(Box::new(grouping));
            return Sink {
                db,
                held: None,
                shape,
                output,
            };
        }
        // A select item that cannot be projected is the statement's
        // error once its rows are filtered.
        let (held, columns, outs) = match project(db, sel, schema, catalogue) {
            Ok((columns, outs)) => (None, columns, outs),
            Err(e) => (Some(e), Vec::new(), Vec::new()),
        };
        let output = Output::bind(sel, columns, |e| bind(db, schema, e));
        let shape = Shape::Rows(outs);
        Sink {
            db,
            held,
            shape,
            output,
        }
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
    fn take(&mut self, ctx: &EvalContext) {
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
                                Value::Datalink(self.db.render_datalink(spec, url))
                            }
                            (v, _) => v.clone(),
                        },
                        Out::Expr(e) => ctx.eval_cow(e)?.into_owned(),
                    });
                    Ok(())
                });
                projected.map(|()| self.output.offer(row, ctx))
            }
            Shape::Groups(g) => g.fold(ctx),
        };
        self.held = taken.err();
    }

    fn finish(self, schema: &RowSchema, params: &[Value]) -> Result<ResultSet> {
        if let Some(e) = self.held {
            return Err(e);
        }
        match self.shape {
            Shape::Rows(_) => self.output.finish(self.db),
            Shape::Groups(g) => g.finish(self.output, self.db, schema, params),
        }
    }
}

/// The select list of a plain SELECT over `schema`: its output names and
/// columns. A bare column passes its cell through (DATALINK-rendered
/// when the catalogue column has a spec) and must resolve; `t.*` must
/// name a table of the statement.
fn project<'a>(
    db: &'a Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    catalogue: &HashMap<String, String>,
) -> Result<(Vec<String>, Vec<Out<'a>>)> {
    let spec = |i: usize| -> Option<&'a DatalinkSpec> {
        let c = &schema.columns[i];
        let table = db.schema(catalogue.get(c.table.as_ref()?)?)?;
        table.column(&c.name)?.datalink.as_ref()
    };
    let slot = |i: usize| Out::Slot(i, spec(i));
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
                outs.push(match expr {
                    Expr::Column { table, name } => slot(schema.resolve(table.as_deref(), name)?),
                    other => Out::Expr(bind(db, schema, other)),
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
    fn bind(
        db: &Database,
        sel: &SelectStmt,
        schema: &RowSchema,
        aggs: &[Expr],
        finish: Finish,
    ) -> Self {
        let calls = aggs
            .iter()
            .map(|agg| {
                let Expr::Function { name, args, star } = agg else {
                    unreachable!("collect_aggs only collects functions");
                };
                let arg = match args.first() {
                    _ if *star => None,
                    Some(arg) => Some(bind(db, schema, arg)),
                    None => Some(Bound::Raise(DbError::Eval(format!(
                        "{name} expects 1 argument(s), got 0"
                    )))),
                };
                (name.clone(), arg)
            })
            .collect();
        Grouping {
            keys: sel.group_by.iter().map(|g| bind(db, schema, g)).collect(),
            calls,
            finish,
            groups: Vec::new(),
            index: HashMap::new(),
            key: Vec::new(),
        }
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

    fn finish(
        mut self,
        output: Output,
        db: &Database,
        schema: &RowSchema,
        params: &[Value],
    ) -> Result<ResultSet> {
        // A global aggregate over zero rows still yields one group.
        if self.groups.is_empty() && self.keys.is_empty() {
            let states = self.calls.iter().map(|_| AggState::default()).collect();
            self.groups
                .push((vec![Value::Null; schema.columns.len()], states));
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
        self.finish.run(output, db, schema, groups, params)
    }
}

/// The aggregate calls of `sel`, deduplicated, in the order
/// [`collect_aggs`] meets them in the select list, HAVING and ORDER BY.
fn aggregates(sel: &SelectStmt) -> Vec<Expr> {
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
    /// The select list; a wildcard is an error once the rows are grouped.
    items: Result<Vec<Bound>>,
}

impl Finish {
    /// Bind it and the output its rows go to.
    fn bind(db: &Database, sel: &SelectStmt, schema: &RowSchema, aggs: &[Expr]) -> (Self, Output) {
        let bind = |e: &Expr| schema.bind(e, db.functions(), aggs);
        let mut columns = Vec::new();
        let items = sel
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                    Ok(bind(expr))
                }
                _ => Err(DbError::Eval(
                    "wildcard not allowed with GROUP BY / aggregates".into(),
                )),
            })
            .collect();
        let having = sel.having.as_ref().map(bind);
        (Finish { having, items }, Output::bind(sel, columns, bind))
    }

    fn reads(&self, read: &mut [bool]) {
        let items = self.items.iter().flatten();
        for e in self.having.iter().chain(items) {
            e.reads(read);
        }
    }

    fn run(
        self,
        mut output: Output,
        db: &Database,
        schema: &RowSchema,
        groups: Vec<(Vec<Value>, Vec<Value>)>,
        params: &[Value],
    ) -> Result<ResultSet> {
        let items = self.items?;
        let mut kept = 0;
        for (rep, aggs) in groups {
            // One evaluator for HAVING and the select list: an aggregate
            // call anywhere inside them reads the group's finished value.
            let ctx = EvalContext {
                aggs: Some(&aggs),
                ..row_ctx(db, schema, &rep, params)
            };
            if let Some(h) = &self.having {
                if !holds(&ctx, h)? {
                    continue;
                }
            }
            let row = items
                .iter()
                .map(|e| ctx.eval_cow(e).map(Cow::into_owned))
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
    let (finish, output) = Finish::bind(db, sel, schema, &aggregates(sel));
    finish.run(output, db, schema, groups, params)
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
    fn bind(sel: &SelectStmt, columns: Vec<String>, bind: impl Fn(&Expr) -> Bound) -> Self {
        let order = sel
            .order_by
            .iter()
            .map(|ob| {
                // A bare column matching an output alias sorts by the
                // output column.
                let column = match &ob.expr {
                    Expr::Column { table: None, name } => {
                        columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                    }
                    _ => None,
                };
                let key = column.map_or_else(|| Key::Expr(bind(&ob.expr)), Key::Column);
                (key, ob.asc)
            })
            .collect();
        Output {
            columns,
            distinct: sel.distinct.then(HashSet::new),
            order,
            limit: sel.limit.unwrap_or(usize::MAX),
            rows: Vec::new(),
            sorted: 0,
            late: None,
            key: Vec::new(),
        }
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
                Key::Expr(e) => ctx.eval_cow(e).map(Cow::into_owned),
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
            let cells = Cells { sieve, all };
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
    }
}
