//! Query execution.
//!
//! A SELECT is bound once against the row its expressions meet
//! ([`BoundSelect`]): each column reference becomes a slot, each aggregate
//! call the index of its state, and a name that does not resolve is the
//! statement's error before any row is read. Its base table is read once:
//! each record is tested on its bytes against the sieve a total WHERE
//! makes, and of each it keeps the cells its filter reads are decoded and,
//! only if the row passes, the other cells the statement evaluates. A
//! JOIN leg's rows are read as records too, and a joined row is its
//! legs' records: the cells its ONs, the WHERE and the statement's
//! expressions read are decoded, the rest only located. Every row that
//! passes the WHERE — off the scan itself or off the last JOIN leg — is
//! lent to one `Sink` with each of its cells' encodings, which folds it
//! into its group or projects it. Every output row is an [`encode_row`]
//! record (the cells a select list passes through copied as bytes, from
//! a scan's record or a JOIN leg's, a LEFT JOIN's padding written as
//! NULL cells), and DISTINCT, ORDER BY and LIMIT keep only the records
//! they can still return; each is lent to the statement's reader as
//! `&[u8]`. A result set is those records decoded, by the one function
//! that decodes lent records ([`result_set`], as [`run_select_over`]
//! does).

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{truth, Bound, EvalContext, FnRegistry, RowSchema};
use crate::mvcc::ReadView;
use crate::plan::{
    bound_conjuncts, choose_bound, choose_in_scope, own_conjuncts, stand_in, AccessPath, Scope,
    Sieve, SieveScan, Verdict,
};
use crate::schema::{DatalinkSpec, TableSchema};
pub use crate::sql::ast::Agg;
use crate::sql::ast::{is_aggregate_fn, BinaryOp, Expr, JoinKind, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{
    cell_at, cells, decode_cell, decode_cells_into, decode_row, decode_some_into, encode_key_cell,
    encode_row, key_cell, key_cells, order_key, order_key_cell, scalar_cell, shape_error,
    step_cell, Records, Value,
};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Does the AND of `conjuncts` hold (evaluate to TRUE, not UNKNOWN) on
/// `ctx`'s row? They are evaluated left to right, as the AND evaluates
/// them: the first that is FALSE decides, and an error raised before it
/// is the row's.
fn holds(ctx: &EvalContext, conjuncts: &[&Bound]) -> Result<bool> {
    #[cfg(test)]
    tests::HOLDS.with(|n| n.set(n.get() + 1));
    let mut all = true;
    for c in conjuncts {
        match truth(&*ctx.eval_cow(c)?) {
            Some(false) => return Ok(false),
            Some(true) => {}
            None => all = false,
        }
    }
    Ok(all)
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
/// decoded — `filter`'s cells (the ones the scan's whole filter reads)
/// for a row the sieve keeps, `decided`'s (the ones the conjuncts it
/// does not decide read) for a row it decides, `all` (which holds both)
/// for a row that passes the filter (for a scan whose rows are copied out
/// of their records, only the cells the statement evaluates). An empty
/// mask is every cell; one that selects none decodes nothing.
#[derive(Clone, Copy)]
struct Cells<'m> {
    sieve: &'m Sieve,
    filter: &'m [bool],
    decided: &'m [bool],
    all: &'m [bool],
    /// DATALINK cells decode as CLOB ([`Relation::links_as_clob`]).
    links_as_clob: bool,
    /// Note each cell's encoding, for a reader that copies cells.
    spans: bool,
}

/// Every cell of every row, unsieved.
const WHOLE: Cells = Cells {
    sieve: &Sieve::NONE,
    filter: &[],
    decided: &[],
    all: &[],
    links_as_clob: false,
    spans: false,
};

/// Lend the rows of `source` visible to `view`, read along `path` in
/// storage order, to `pass`, and each that passes to `take` with its row
/// id, decoded row and cells' encodings; see [`sift`]. A relation has no
/// indexes and no versions: its records are visited whole, each row id
/// its position. A table without a version map has every row visible,
/// and its scan asks nothing of a row's visibility.
fn fetch<'r>(
    db: &Database,
    view: &ReadView,
    source: Source<'r>,
    path: AccessPath,
    cells: Cells,
    pass: impl FnMut(&[Value], bool) -> Result<bool>,
    take: impl FnMut((RowId, &'r [u8]), &mut Vec<Value>, &[&'r [u8]]) -> Result<()>,
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
        AccessPath::FullScan => match &visible {
            None => sift(t.heap.records(), sieve, cells, pass, take),
            Some(visible) => {
                let records = t.heap.records().filter(|(rid, _)| visible(*rid));
                sift(records, sieve, cells, pass, take)
            }
        },
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
                .filter(|rid| visible.as_ref().is_none_or(|v| v(*rid)))
                .filter_map(|rid| Some((rid, t.heap.record(rid)?)));
            sift(records, sieve, cells, pass, take)
        }
    }
}

/// Test each of `records` against `sieve` on its bytes
/// ([`SieveScan::keeps`]); decode the filter's cells of a record it keeps
/// — those of the conjuncts it does not decide, for a record it decides —
/// ([`decode_some_into`]) into a scratch row, noting in the same walk
/// where each of its cells lies if `cells.spans` asks, and lend it to
/// `pass` with whether the sieve decided it; decode a row that passes
/// again, with the cells of `all`, into a second scratch row and lend
/// that to `take`, beside its row id, record and cells (none unless
/// asked), which copies out (or takes) what it keeps. A record the sieve
/// refuses is walked no further than the cell that refuses it (or a
/// later one the filter reads that could hold a NaN), and nothing of it
/// decoded or evaluated; a mask that selects no cell decodes nothing;
/// each scratch row refills the buffers it already owns, so a rejected
/// row allocates nothing. Returns the number of records, also when a
/// closure or the decoder raises part-way — the first error is the one
/// returned, and what it left unvisited was a candidate all the same.
fn sift<'r>(
    mut records: impl Iterator<Item = (RowId, &'r [u8])>,
    sieve: SieveScan,
    cells: Cells,
    mut pass: impl FnMut(&[Value], bool) -> Result<bool>,
    mut take: impl FnMut((RowId, &'r [u8]), &mut Vec<Value>, &[&'r [u8]]) -> Result<()>,
) -> (usize, Result<()>) {
    let (mut sieved, mut whole, mut slots) = (Vec::new(), Vec::new(), Vec::new());
    let none = |mask: &[bool]| !mask.is_empty() && !mask.contains(&true);
    // Element by element: `==` on two empty masks would `memcmp` dangling
    // pointers, which is slow on some libcs.
    let differ = |a: &[bool], b: &[bool]| !a.iter().eq(b);
    // Per mask, kept and decided: whether it decodes nothing, and whether
    // a row that passes is decoded again.
    let kept = (none(cells.filter), differ(cells.filter, cells.all));
    let decided = (none(cells.decided), differ(cells.decided, cells.all));
    let all_nothing = none(cells.all);
    let mut seen = 0;
    // Internal iteration: a heap's pages and their slots are walked by
    // nested loops, not one `next` at a time.
    let visited = records.by_ref().try_for_each(|(rid, record)| {
        seen += 1;
        let (filter, (nothing, twice), decides) = match sieve.keeps(record) {
            Verdict::Refused => return Ok(()),
            Verdict::Decided => (cells.decided, decided, true),
            Verdict::Kept => (cells.filter, kept, false),
        };
        let links = cells.links_as_clob;
        slots.clear();
        match cells.spans {
            true => decode_cells_into(record, &mut sieved, filter, links, &mut slots)?,
            false => decode_unless(nothing, record, &mut sieved, filter, links)?,
        }
        match (pass(&sieved, decides)?, twice) {
            (false, _) => Ok(()),
            (true, false) => take((rid, record), &mut sieved, &slots),
            (true, true) => {
                decode_unless(all_nothing, record, &mut whole, cells.all, links)?;
                take((rid, record), &mut whole, &slots)
            }
        }
    });
    (seen + records.count(), visited)
}

/// [`decode_some_into`] `record`'s cells that `read` selects into `row`,
/// or, when it selects `nothing`, leave `row` empty without walking the
/// record.
#[inline(always)]
fn decode_unless(
    nothing: bool,
    record: &[u8],
    row: &mut Vec<Value>,
    read: &[bool],
    links_as_clob: bool,
) -> Result<()> {
    match nothing {
        true => {
            row.clear();
            Ok(())
        }
        false => decode_some_into(record, &mut 0, row, read, links_as_clob),
    }
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
    let pass = |row: &[Value], _| match &pred {
        Some(p) => holds(&EvalContext::new(row, params), &[p]),
        None => Ok(true),
    };
    let mut matching = Vec::new();
    let cells = Cells {
        sieve: &sieve,
        ..WHOLE
    };
    let (candidates, read) = fetch(db, view, source, path, cells, pass, |(rid, _), row, _| {
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
/// (see [`Relation`] for how names resolve): [`run_select_each`], each
/// lent record decoded into the result set (`result_set`).
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
    result_set(|each| run_select_each(db, view, sel, params, relations, each))
}

/// The result set of the rows `run` lends, each record decoded, under
/// the columns it returns: the one place result rows become values. A
/// record that does not decode is the result's error, after any `run`
/// raises itself.
pub fn result_set(
    run: impl FnOnce(&mut dyn FnMut(&[u8])) -> Result<Vec<String>>,
) -> Result<ResultSet> {
    let (mut rows, mut bad) = (Vec::new(), None);
    let columns = run(&mut |record| match decode_row(record, &mut 0) {
        Ok(row) => rows.push(row),
        Err(e) => _ = bad.get_or_insert(e),
    })?;
    match bad {
        Some(e) => Err(e),
        None => Ok(ResultSet {
            columns,
            rows,
            affected: 0,
        }),
    }
}

/// A reader each result row's record is lent to.
type Lend<'a> = &'a mut dyn FnMut(&[u8]);

/// Run a SELECT, lending each result row's [`encode_row`] record to
/// `each`: as the row passes when nothing orders the rows, at the end
/// under ORDER BY or an aggregate. Returns the result's columns. A
/// statement that fails may have lent rows before its error was known;
/// they are not its answer.
pub fn run_select_each<'a>(
    db: &'a Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
    relations: &'a [Relation],
    each: &'a mut dyn FnMut(&[u8]),
) -> Result<Vec<String>> {
    let Some(from) = &sel.from else {
        return run_tableless(db, sel, params, each);
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
    sink.output.reader = Some(each);
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
    // by the scan, or for a JOIN's base by the join, from its record. A
    // row the sieve decided is filtered by the conjuncts it left alone,
    // which read no more cells.
    let scan_filter = match (legs.is_empty(), &filter) {
        (true, Some(w)) => bound_conjuncts(w).into_iter().enumerate().collect(),
        (true, None) => Vec::new(),
        (false, _) => own,
    };
    let rest: Vec<&Bound> = scan_filter
        .iter()
        .filter(|(i, _)| !sieve.decides(*i))
        .map(|(_, c)| *c)
        .collect();
    // A scan's records are lent to the sink, which reads their cells; a
    // DATALINK a relation reads as a CLOB is no cell of its record.
    if legs.is_empty() && !sources[0].links_as_clob() {
        sink.lend_records(read.len());
    }
    // What a row that passed is decoded with: what the sink evaluates,
    // and over joined rows what each ON and the WHERE read. Rows are
    // projected from their records, a scan's and each JOIN leg's: the
    // cells they pass through are copied as bytes, so only the select
    // list's expressions, its DATALINK renderings and ORDER BY's
    // expressions are decoded for the sink. A grouping decodes every
    // cell it reads, unless it folds a scan's records from their cells.
    let (copies, from_records) = (sink.copies(), sink.reads_records());
    let mut evals = vec![false; read.len()];
    if !legs.is_empty() {
        let ons = legs.iter().map(|leg| &leg.on);
        filter.iter().chain(ons).for_each(|e| e.reads(&mut evals));
    }
    match from_records {
        true => sink.decodes(&mut evals),
        false => sink.reads(&mut evals),
    }
    if sources.iter().any(Source::links_as_clob) {
        for (source, names) in sources.iter().zip(&columns) {
            let clob = source.links_as_clob();
            sink.clob.extend(std::iter::repeat_n(clob, names.len()));
        }
    }
    let (mut filter_reads, mut rest_reads) = (read.clone(), read.clone());
    if !scan_filter.is_empty() || !legs.is_empty() || from_records {
        filter_reads.fill(false);
        scan_filter
            .iter()
            .for_each(|(_, e)| e.reads(&mut filter_reads));
        rest_reads.fill(false);
        rest.iter().for_each(|e| e.reads(&mut rest_reads));
    }
    // The WHERE on a row: whole, or what the sieve left of it.
    let filtered = |row: &[Value], decided: bool| match (&filter, decided) {
        (None, _) => Ok(true),
        (Some(_), true) if rest.is_empty() => Ok(true),
        (Some(_), true) => holds(&EvalContext::new(row, params), &rest),
        (Some(w), false) => holds(&EvalContext::new(row, params), &[w]),
    };
    let mut passed = 0;
    let mut accept = |row: &[Value], record, cells: &[&[u8]], sink: &mut Sink| {
        passed += 1;
        sink.take(db, &EvalContext::new(row, params), record, cells);
    };
    if legs.is_empty() {
        let cells = Cells {
            sieve: &sieve,
            filter: &filter_reads,
            decided: &rest_reads,
            all: &evals,
            spans: copies,
            ..WHOLE
        };
        let (candidates, scanned) = fetch(
            db,
            view,
            sources[0],
            path,
            cells,
            filtered,
            |(_, record), row, slots| {
                accept(row, Some(record), slots, &mut sink);
                Ok(())
            },
        );
        note_scan(db, index_probe, candidates);
        scanned?;
    } else {
        // A base row failing one of its own conjuncts fails the WHERE on
        // every joined row made from it, padded or not. A conjunct that
        // raises after all keeps its row, so the WHERE raises it too.
        let own_pass = |row: &[Value], decided: bool| {
            let ctx = EvalContext::new(row, params);
            let fails = |c: &&Bound| matches!(holds(&ctx, &[c]), Ok(false));
            Ok(match decided {
                true => !rest.iter().any(fails),
                false => !scan_filter.iter().map(|(_, c)| c).any(fails),
            })
        };
        let cells = Cells {
            sieve: &sieve,
            filter: &filter_reads[..base_width],
            decided: &rest_reads[..base_width],
            all: &filter_reads[..base_width],
            ..WHOLE
        };
        // The records of the base rows that pass.
        let mut base = Vec::new();
        let (candidates, scanned) =
            fetch(db, view, sources[0], path, cells, own_pass, |rec, _, _| {
                base.push(rec.1);
                Ok(())
            });
        note_scan(db, index_probe, candidates);
        scanned?;
        // Every leg but the last keeps its pairings as records, their
        // cells copied; the last lends each to the WHERE, whose error
        // waits for the ONs of the pairings after it.
        let (mut at, mut joined, mut raised) = (base_width, 0, None);
        // The first leg meets the base's records, read as the scan reads
        // them; a later one the pairings before it, whose cells are
        // copied with DATALINKs already read as their legs read them.
        let mut links_as_clob = sources[0].links_as_clob();
        let mut pairings = Records::default();
        for (i, leg) in legs.iter().enumerate() {
            let left_cells = Cells {
                all: &evals[..at],
                links_as_clob,
                ..WHOLE
            };
            let leg_evals = &evals[at..at + leg.width];
            at += leg.width;
            let prior = std::mem::take(&mut pairings);
            let left = match i {
                0 => std::mem::take(&mut base),
                _ => prior.iter().collect(),
            };
            if i + 1 < legs.len() {
                let clob = &sink.clob;
                run_join(
                    db,
                    view,
                    &left,
                    left_cells,
                    leg,
                    leg_evals,
                    params,
                    |_, cells| {
                        pairings.open(cells.len());
                        for (i, cell) in cells.iter().enumerate() {
                            pairings.push_span(cell, clob.get(i) == Some(&true));
                        }
                        pairings.seal();
                        Ok(())
                    },
                )?;
                links_as_clob = false;
            } else {
                run_join(
                    db,
                    view,
                    &left,
                    left_cells,
                    leg,
                    leg_evals,
                    params,
                    |row, cells| {
                        joined += 1;
                        match raised.is_none().then(|| filtered(row, false)) {
                            Some(Ok(true)) => accept(row, None, cells, &mut sink),
                            Some(Err(e)) => raised = Some(e),
                            _ => {}
                        }
                        Ok(())
                    },
                )?;
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

/// A SELECT without FROM: one row of no cells, through the WHERE and the
/// sink a table's rows go through, so its DISTINCT, ORDER BY, LIMIT and
/// grouping hold as they do over a table. A wildcard has no table to
/// name; each select item binds in turn, so the first that cannot is the
/// statement's error.
fn run_tableless<'a>(
    db: &'a Database,
    sel: &SelectStmt,
    params: &[Value],
    each: Lend<'a>,
) -> Result<Vec<String>> {
    for item in &sel.items {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DbError::Eval("wildcard requires FROM".into()));
        };
        RowSchema::default().bind(expr, db.functions(), &[])?;
    }
    let BoundSelect {
        filter, mut sink, ..
    } = BoundSelect::bind::<Vec<String>>(db.functions(), sel, &[], &[])?;
    sink.output.reader = Some(each);
    let ctx = EvalContext::new(&[], params);
    let passed = match &filter {
        Some(w) => holds(&ctx, &[w])?,
        None => true,
    };
    if let (Some(_), Some(m)) = (&filter, db.metrics()) {
        m.stage_filter.observe(f64::from(u8::from(passed)));
    }
    if passed {
        sink.take(db, &ctx, None, &[]);
    }
    sink.finish(db, 0, params)
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

/// The encoding of a NULL cell: what a LEFT JOIN pads an unmatched row
/// with.
const NULL_CELL: &[u8] = &[0];

/// The rows of a JOIN leg, read once: each row's cells as their whole
/// encodings in its record, and the values of the cells the statement
/// evaluates (the rest NULL), `width` of each per row, back to back.
struct LegRows<'r> {
    width: usize,
    rows: usize,
    cells: Vec<&'r [u8]>,
    values: Vec<Value>,
}

impl<'r> LegRows<'r> {
    fn new(width: usize) -> Self {
        LegRows {
            width,
            rows: 0,
            cells: Vec::new(),
            values: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.rows = 0;
        self.cells.clear();
        self.values.clear();
    }

    /// Keep the row of `cells` with the values decoded from them, which
    /// are taken (and left NULL). A record of another width is cut or
    /// padded with NULLs to the leg's.
    fn push(&mut self, cells: &[&'r [u8]], values: &mut [Value]) {
        let at = self.cells.len();
        self.cells.extend_from_slice(cells);
        self.cells.resize(at + self.width, NULL_CELL);
        let taken = values.iter_mut().map(|v| std::mem::replace(v, Value::Null));
        let padded = taken.chain(std::iter::repeat_with(|| Value::Null));
        self.values.extend(padded.take(self.width));
        self.rows += 1;
    }

    /// Where row `j`'s cells and values lie.
    fn row(&self, j: usize) -> Range<usize> {
        j * self.width..(j + 1) * self.width
    }
}

/// Join the `left` rows with `leg`, lending each pairing that passes its
/// ON — and, for a LEFT JOIN, each unmatched left row padded with NULL
/// cells — to `emit`, in left-row order, as its values and its cells'
/// encodings: each left record's and each right row's, as their records
/// hold them. Only the cells `left_cells.all` and `read` select are
/// decoded, the rest read as NULL. The pairing's values live in one
/// buffer: the left record is decoded into it, and each right
/// candidate's decoded values are swapped into it and back. Under a
/// probe a left row meets the rows its key finds in the index, unless
/// the key cannot be compared with the indexed column's type: then
/// every pairing would raise or not as the ON decides, and the row meets
/// the whole leg as it would without the probe. A left row whose key has
/// the bytes of the one before it (so `0.0` is not `-0.0`, nor `1`
/// `1.0`) meets the rows that one found.
#[allow(clippy::too_many_arguments)]
fn run_join<'r>(
    db: &Database,
    view: &ReadView,
    left: &[&'r [u8]],
    left_cells: Cells,
    leg: &Leg<'r>,
    read: &[bool],
    params: &[Value],
    mut emit: impl FnMut(&[Value], &[&[u8]]) -> Result<()>,
) -> Result<()> {
    // The whole leg, read once: up front without a probe, under one
    // when a key first refuses the indexed column.
    let read_whole = || -> Result<LegRows<'r>> {
        let cells = Cells {
            filter: read,
            all: read,
            spans: true,
            ..WHOLE
        };
        let mut rows = LegRows::new(leg.width);
        let keep_all = |_: &[Value], _| Ok(true);
        let path = AccessPath::FullScan;
        fetch(
            db,
            view,
            leg.source,
            path,
            cells,
            keep_all,
            |_, row, slots| {
                rows.push(slots, row);
                Ok(())
            },
        )
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
    let (mut pairing, mut slots) = (Vec::new(), Vec::new());
    let mut probed = LegRows::new(leg.width);
    let (mut scratch, mut scratch_cells) = (Vec::new(), Vec::new());
    // The key `probed` was found under, as a record, and whether it was
    // looked up in the index; the key in hand.
    let (mut found, mut key_bytes) = (None::<(Vec<u8>, bool)>, Vec::new());
    for &record in left {
        let links = left_cells.links_as_clob;
        slots.clear();
        decode_cells_into(record, &mut pairing, left_cells.all, links, &mut slots)?;
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
                        let visible = |rid: &RowId| visible.as_ref().is_none_or(|v| v(*rid));
                        for rid in rids.into_iter().filter(visible) {
                            if let Some(record) = p.table.heap.record(rid) {
                                scratch_cells.clear();
                                let cells = &mut scratch_cells;
                                decode_cells_into(record, &mut scratch, read, false, cells)?;
                                probed.push(&scratch_cells, &mut scratch);
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
        pairing.resize(left_width + leg.width, Value::Null);
        let mut matched = false;
        for j in 0..candidates.rows {
            let right = candidates.row(j);
            pairing[left_width..].swap_with_slice(&mut candidates.values[right.clone()]);
            slots.truncate(left_width);
            slots.extend_from_slice(&candidates.cells[right.clone()]);
            let lent = holds(&EvalContext::new(&pairing, params), &[&leg.on]).and_then(|on| {
                matched |= on;
                if on {
                    emit(&pairing, &slots)
                } else {
                    Ok(())
                }
            });
            pairing[left_width..].swap_with_slice(&mut candidates.values[right]);
            lent?;
        }
        if !matched && leg.kind == JoinKind::Left {
            slots.truncate(left_width);
            slots.extend(std::iter::repeat_n(NULL_CELL, leg.width));
            emit(&pairing, &slots)?;
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
/// arrives: projected into a record the [`Output`] opens and offered to
/// it, or folded into its group, whose rows reach the output once every
/// group is complete. A row is lent with its cells' encodings as the
/// records it was read from hold them (a scan's record, or each JOIN
/// leg's); each cell it passes through is copied as its bytes, and only
/// an expression item or a DATALINK rendering is written from a value.
/// The first error it meets is held and it takes no row after it — the
/// scan still owes the WHERE and decoder errors of later rows, which
/// win.
struct Sink<'a> {
    held: Option<DbError>,
    shape: Shape<'a>,
    output: Output<'a>,
    /// Per slot: a DATALINK cell copied is a CLOB
    /// ([`Relation::links_as_clob`]); empty when no slot's is.
    clob: Vec<bool>,
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
            clob: Vec::new(),
        })
    }

    /// Does it project the rows it takes, copying the cells it passes
    /// through ([`Sink::take`])?
    fn copies(&self) -> bool {
        matches!(self.shape, Shape::Rows(_))
    }

    /// It will be lent each row's record, the rows being `width` slots
    /// wide: a grouping whose keys and arguments are bare columns folds
    /// them from its cells ([`Grouping::fold_cells`]).
    fn lend_records(&mut self, width: usize) {
        let mut first = vec![false; width];
        self.reads(&mut first);
        if let Shape::Groups(g) = &mut self.shape {
            g.fold_cells(first);
        }
    }

    /// Does it read the cells of the records it is lent: copying them, or
    /// folding them ([`Sink::lend_records`])?
    fn reads_records(&self) -> bool {
        match &self.shape {
            Shape::Rows(_) => true,
            Shape::Groups(g) => g.cells.is_some(),
        }
    }

    /// Mark the slots it decodes when it reads a row's cells: what its
    /// expressions read and the cells it renders (a grouping that folds
    /// cells decodes none).
    fn decodes(&self, read: &mut [bool]) {
        if let Shape::Rows(outs) = &self.shape {
            for out in outs {
                match out {
                    Out::Slot(i, Some(_)) => read[*i] = true,
                    Out::Slot(_, None) => {}
                    Out::Expr(e) => e.reads(read),
                }
            }
            self.output.reads(read, false);
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
        self.output.reads(read, true);
    }

    /// Take one row that passed the WHERE, the record it was scanned
    /// from if it was, and its cells' encodings (a grouped statement,
    /// which copies none, may be lent none).
    fn take(&mut self, db: &Database, ctx: &EvalContext, record: Option<&[u8]>, cells: &[&[u8]]) {
        if self.held.is_some() {
            return;
        }
        let taken = match &mut self.shape {
            Shape::Rows(outs) => {
                let out = self.output.open(outs.len());
                let projected = outs.iter().try_for_each(|o| {
                    match o {
                        Out::Slot(i, None) => {
                            out.push_span(cells[*i], self.clob.get(*i) == Some(&true))
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
                projected.map(|()| self.output.offer_record(ctx, Some(cells)))
            }
            Shape::Groups(g) => g.fold(ctx, record),
        };
        if let Err(e) = taken {
            self.held = Some(e);
        }
    }

    /// Lend the rows the output still holds, the rows it took being
    /// `width` slots wide; returns the result's columns.
    fn finish(self, db: &Database, width: usize, params: &[Value]) -> Result<Vec<String>> {
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
/// [`Finish`]. When every key and argument is a bare column of a scanned
/// record, they are read from its cells instead ([`CellFold`]).
struct Grouping {
    keys: Vec<Bound>,
    /// Each aggregate call: its function and argument (`None` for `*`).
    calls: Vec<(Agg, Option<Bound>)>,
    finish: Finish,
    groups: Groups,
    cells: Option<CellFold>,
}

/// The groups so far, each its first row and its calls' states, found
/// by the key of the row being folded.
struct Groups {
    /// Is there a GROUP BY? Without one every row is the one group's.
    keyed: bool,
    list: Vec<(Vec<Value>, Vec<AggState>)>,
    /// Each group's key, in `list`'s order.
    keys: Records,
    /// Group key → position in `list`, once there are more than
    /// [`FEW_GROUPS`].
    index: HashMap<Vec<u8>, usize>,
    key: Vec<u8>,
}

/// Up to this many groups a key is found by comparing it with theirs,
/// which costs less than hashing it: a three-aggregate GROUP BY on an
/// INTEGER key (release build, 2-core VM) measured ≈ 49 ns a row at 3
/// groups, 56 at 8 and 68 at 16 by comparing, ≈ 71–73 at any count by
/// hashing; the two meet between 16 and 32 groups.
const FEW_GROUPS: usize = 8;

impl Groups {
    /// The place of the group `key` keys, made with `calls` states and
    /// the first row `first` writes when it is new: a comparison with
    /// each of a few groups' keys, or one hash of the key (and one more
    /// to file a new group's).
    #[inline]
    fn place(
        &mut self,
        calls: usize,
        first: impl FnOnce(&mut Vec<Value>) -> Result<()>,
    ) -> Result<usize> {
        let found = match self.keyed {
            false => (!self.list.is_empty()).then_some(0),
            true if self.list.len() <= FEW_GROUPS => self.keys.iter().position(|k| k == self.key),
            true => self.index.get(&self.key[..]).copied(),
        };
        if let Some(gi) = found {
            return Ok(gi);
        }
        let mut row = Vec::new();
        first(&mut row)?;
        if self.keyed {
            self.keys.push_bytes(&self.key);
            if self.list.len() == FEW_GROUPS {
                self.index = self.keys.iter().map(<[u8]>::to_vec).zip(0..).collect();
            } else if self.list.len() > FEW_GROUPS {
                self.index.insert(self.key.clone(), self.list.len());
            }
        }
        let states = std::iter::repeat_with(AggState::default).take(calls);
        self.list.push((row, states.collect()));
        Ok(self.list.len() - 1)
    }
}

/// How a grouping whose keys and arguments are bare columns folds a
/// scanned record: one walk to the last cell they read, each key written
/// from its cell's bytes and each argument folded from its cell, no row
/// decoded but a new group's first.
struct CellFold {
    /// The slots the keys and arguments read, ascending.
    slots: Vec<usize>,
    /// Each key's, and each call's argument's, place in `slots`.
    keys: Vec<usize>,
    args: Vec<Option<usize>>,
    /// Where the cells of `slots` lie in the record being folded: each
    /// one's tag, and its whole encoding and its payload as ranges.
    found: Vec<(u8, Range<usize>, Range<usize>)>,
    /// The cells a group's first row is decoded with: what HAVING, the
    /// select list and ORDER BY read.
    first: Vec<bool>,
    /// A text or blob argument, decoded into the buffer it owns.
    scratch: Value,
}

impl CellFold {
    /// Fold `record`, a stored row, into its group among `groups` from
    /// its cells, for the aggregate `calls`: the key first, then each
    /// call's argument in turn, as [`Grouping::fold`] does. The record is
    /// trusted: bytes that are not a cell are the decoder's to raise on.
    #[inline]
    #[allow(
        clippy::indexing_slicing,
        reason = "`found` holds a place per slot, each a range `step_cell` found in `record`"
    )]
    fn fold(
        &mut self,
        record: &[u8],
        calls: &[(Agg, Option<Bound>)],
        groups: &mut Groups,
    ) -> Result<()> {
        let (mut pos, mut cell) = (4, 0);
        self.found.clear();
        for &slot in &self.slots {
            loop {
                let at = pos;
                let (tag, payload) =
                    step_cell(record, &mut pos).ok_or_else(|| shape_error(record))?;
                cell += 1;
                if cell > slot {
                    self.found.push((tag, at..pos, pos - payload.len()..pos));
                    break;
                }
            }
        }
        groups.key.clear();
        for &k in &self.keys {
            key_cell(&record[self.found[k].1.clone()], &mut groups.key);
        }
        let first = &self.first;
        let gi = groups.place(calls.len(), |row| {
            decode_some_into(record, &mut 0, row, first, false)
        })?;
        let states = &mut groups.list[gi].1;
        for (((f, _), arg), st) in calls.iter().zip(&self.args).zip(states) {
            let Some(j) = *arg else {
                st.count += 1;
                continue;
            };
            let (tag, _, payload) = &self.found[j];
            let payload = &record[payload.clone()];
            match scalar_cell(*tag, payload) {
                Some(v) => st.fold_partial(*f, &v, 1)?,
                None => {
                    decode_cell(*tag, payload, &mut self.scratch)?;
                    st.fold_partial(*f, &self.scratch, 1)?
                }
            }
        }
        Ok(())
    }
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
            let f = Agg::named(name).expect("aggregates only collects aggregate calls");
            calls.push((f, arg));
        }
        let (finish, output) = Finish::bind(functions, sel, schema, &aggs)?;
        let grouping = Grouping {
            keys,
            calls,
            groups: Groups {
                keyed: !sel.group_by.is_empty(),
                list: Vec::new(),
                keys: Records::default(),
                index: HashMap::new(),
                key: Vec::new(),
            },
            finish,
            cells: None,
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

    /// Fold scanned records from their cells ([`CellFold`]) when every
    /// key and argument is a bare column, a new group's first row decoded
    /// with the cells of `first`.
    fn fold_cells(&mut self, first: Vec<bool>) {
        let slot = |e: &Bound| match e {
            Bound::Slot(s) => Some(*s),
            _ => None,
        };
        let keys: Option<Vec<usize>> = self.keys.iter().map(slot).collect();
        let args: Option<Vec<Option<usize>>> = (self.calls.iter())
            .map(|(_, arg)| arg.as_ref().map_or(Some(None), |a| slot(a).map(Some)))
            .collect();
        let (Some(keys), Some(args)) = (keys, args) else {
            return;
        };
        let mut slots: Vec<usize> = keys.iter().chain(args.iter().flatten()).copied().collect();
        slots.sort_unstable();
        slots.dedup();
        let place = |s: usize| slots.binary_search(&s).expect("a slot read");
        self.cells = Some(CellFold {
            keys: keys.into_iter().map(place).collect(),
            args: args.into_iter().map(|a| a.map(place)).collect(),
            slots,
            found: Vec::new(),
            first,
            scratch: Value::Null,
        });
    }

    /// Fold one row into its group: the key first, then each call's
    /// argument in turn — which is also the order their errors raise in.
    /// A scanned row is folded from `record`'s cells when the grouping
    /// reads cells ([`Grouping::fold_cells`]).
    #[inline]
    fn fold(&mut self, ctx: &EvalContext, record: Option<&[u8]>) -> Result<()> {
        if let (Some(cells), Some(record)) = (&mut self.cells, record) {
            // Only COUNT(*)s and no GROUP BY: the record is counted, and
            // no cell of it read. `cells.fold` would count it too, ≈ 2 ns
            // a row slower (`examples/scan_costs`' COUNT(*), also with
            // `CellFold::fold` inlined).
            if let (true, false, Some((_, states))) = (
                cells.slots.is_empty(),
                self.groups.keyed,
                self.groups.list.first_mut(),
            ) {
                states.iter_mut().for_each(|st| st.count += 1);
                return Ok(());
            }
            return cells.fold(record, &self.calls, &mut self.groups);
        }
        let groups = &mut self.groups;
        groups.key.clear();
        for k in &self.keys {
            encode_key_cell(&*ctx.eval_cow(k)?, &mut groups.key);
        }
        let gi = groups.place(self.calls.len(), |row| {
            row.extend_from_slice(ctx.row);
            Ok(())
        })?;
        for ((f, arg), st) in self.calls.iter().zip(&mut groups.list[gi].1) {
            match arg {
                None => st.count += 1,
                Some(arg) => st.fold_partial(*f, &*ctx.eval_cow(arg)?, 1)?,
            }
        }
        Ok(())
    }

    /// Lend the groups' rows, the rows folded being `width` slots wide;
    /// returns the result's columns.
    fn finish(
        mut self,
        output: Output<'_>,
        db: &Database,
        width: usize,
        params: &[Value],
    ) -> Result<Vec<String>> {
        // A global aggregate over zero rows still yields one group.
        if self.groups.list.is_empty() && !self.groups.keyed {
            let states = self.calls.iter().map(|_| AggState::default()).collect();
            self.groups.list.push((vec![Value::Null; width], states));
        }
        let calls = &self.calls;
        let groups = self
            .groups
            .list
            .into_iter()
            .map(|(rep, states)| {
                let aggs = calls
                    .iter()
                    .zip(&states)
                    .map(|((f, arg), st)| st.finish(*f, arg.is_none()))
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

    /// Offer each group's row that passes HAVING to `output`, its select
    /// items written into the record the output opens; returns the
    /// result's columns.
    fn run(
        self,
        mut output: Output<'_>,
        db: &Database,
        groups: Vec<(Vec<Value>, Vec<Value>)>,
        params: &[Value],
    ) -> Result<Vec<String>> {
        let mut kept = 0;
        for (rep, aggs) in groups {
            // One evaluator for HAVING and the select list: an aggregate
            // call anywhere inside them reads the group's finished value.
            let ctx = EvalContext {
                aggs: Some(&aggs),
                ..EvalContext::new(&rep, params)
            };
            if let Some(h) = &self.having {
                if !holds(&ctx, &[h])? {
                    continue;
                }
            }
            let out = output.open(self.items.len());
            for e in &self.items {
                out.push_cell(&*ctx.eval_cow(e)?);
            }
            kept += 1;
            output.offer_record(&ctx, None);
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
/// Each output row's record is lent to `each`; returns the result's
/// columns.
pub fn finish_groups(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    groups: Vec<(Vec<Value>, Vec<Value>)>,
    params: &[Value],
    each: &mut dyn FnMut(&[u8]),
) -> Result<Vec<String>> {
    let (finish, mut output) = Finish::bind(db.functions(), sel, schema, &aggregates(sel))?;
    output.reader = Some(each);
    finish.run(output, db, groups, params)
}

/// DISTINCT, ORDER BY and LIMIT over output rows as they arrive, each
/// a record [`Output::open`] begins in `kept` and the caller fills, then
/// offered ([`Output::offer_record`]). DISTINCT keys a record by its
/// cells ([`key_cells`]). Without ORDER BY each row is lent to the
/// reader as it arrives, while the LIMIT allows, and `kept` holds just
/// the record being offered. With it, `kept` is one arena of the output
/// records, each followed in its entry by the row's order key: its sort
/// keys' cells one after another ([`order_key_cell`]), each taken from
/// the output record (a bare name that is an output alias, or a column
/// the output passes through as it is), from the cell the row was read
/// with (a column the output drops; from the row itself when it has no
/// cells, as a group has none), or from the value of an expression over
/// the row (and group). One arena grows for records and keys alike, so
/// the keys cost no allocation of their own. The rows are sorted by
/// their keys' bytes, ties by arrival. Under a LIMIT of n the entries
/// are cut back to the n least whenever 2n have gathered, and a row whose
/// key does not sort before the last of them is not kept. A key's error
/// is held, since a select item raising on a later row wins over it.
/// Once the last row is in, each sorted record is lent as it is.
#[derive(Default)]
struct Output<'a> {
    /// The reader the rows are lent to, set before any row is offered.
    reader: Option<Lend<'a>>,
    /// Rows lent as they arrived.
    lent: usize,
    columns: Vec<String>,
    distinct: Option<HashSet<Vec<u8>>>,
    /// Each sort key and whether it ascends.
    order: Vec<(SortKey, bool)>,
    limit: usize,
    /// The output records, each followed by its order key under ORDER
    /// BY; a cut copies the entries it keeps into `spare`.
    kept: Records,
    spare: Records,
    /// The positions of `kept`'s entries and where each one's order key
    /// starts in it, sorted up to the last cut, then by arrival.
    sorted: Vec<(u32, u32)>,
    /// The last of the LIMIT entries a cut kept: a later row whose key
    /// is not less than its key is never returned.
    floor: Option<(u32, u32)>,
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

    /// Offer the output row whose record [`Output::open`] began and the
    /// caller filled: lent as it arrives, nothing ordering the rows, else
    /// kept with its order key. `input` is the encoding of each cell the
    /// row was read with, if it has them.
    fn offer_record(&mut self, ctx: &EvalContext, input: Option<&[&[u8]]>) {
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
            if let (Some(each), true) = (&mut self.reader, self.lent < self.limit) {
                each(self.kept.get(at));
                self.lent += 1;
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
                (SortKey::Slot(s), Some(cells)) => order_key_cell(cell_at(cells[*s], 0), desc, out),
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
        // A row that sorts after the last of the n kept at the latest cut
        // (or ties with it, arriving later) is never among the first n.
        if let Some((last, split)) = self.floor {
            if self.key[..] >= self.kept.get(last as usize)[split as usize..] {
                return self.kept.truncate(at);
            }
        }
        let split = record.len() as u32;
        self.kept.extend_last(&self.key);
        self.sorted.push((at as u32, split));
        if self.sorted.len() > self.limit.saturating_mul(2) {
            self.cut();
        }
    }

    /// Sort the entries by their order keys — stably, so ties stay in
    /// arrival order — and keep the first LIMIT, copied into a fresh
    /// arena in that order.
    fn cut(&mut self) {
        let mut sorted = std::mem::take(&mut self.sorted);
        sorted.sort_by_key(|&(at, split)| &self.kept.get(at as usize)[split as usize..]);
        if sorted.len() > self.limit {
            sorted.truncate(self.limit);
            let mut out = std::mem::take(&mut self.spare);
            out.clear();
            for (i, (at, _)) in sorted.iter_mut().enumerate() {
                out.push_bytes(self.kept.get(*at as usize));
                *at = i as u32;
            }
            self.spare = std::mem::replace(&mut self.kept, out);
            self.floor = sorted.last().copied();
        }
        self.sorted = sorted;
    }

    /// Lend each sorted record as it is; returns the result's columns.
    fn finish(mut self, db: &Database) -> Result<Vec<String>> {
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
            m.rows_returned.add((self.lent + self.sorted.len()) as f64);
        }
        if let Some(each) = &mut self.reader {
            for &(at, split) in &self.sorted {
                each(&self.kept.get(at as usize)[..split as usize]);
            }
        }
        Ok(self.columns)
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
    /// Rows folded: what `COUNT(*)` returns.
    count: i64,
    sum: f64,
    sum_is_int: bool,
    int_sum: i64,
    min: Option<Value>,
    max: Option<Value>,
    non_null: i64,
}

impl AggState {
    /// Fold one partial of aggregate `f`: `v` is what `f` returned over
    /// `n` non-NULL inputs (a single input value is its own partial with
    /// `n` = 1). A NULL partial — a NULL input, or a group empty at that
    /// site — contributes nothing.
    #[inline]
    pub fn fold_partial(&mut self, f: Agg, v: &Value, n: i64) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        let first = self.non_null == 0;
        self.non_null += n;
        match f {
            Agg::Count => {}
            Agg::Sum | Agg::Avg => match v {
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
                        let what = format!("{} over non-numeric {}", f.name(), other.type_name());
                        DbError::Type(what)
                    })?;
                    self.sum_is_int = false;
                    self.sum += x;
                }
            },
            Agg::Min | Agg::Max => {
                let (kept, wins) = match f {
                    Agg::Min => (&mut self.min, std::cmp::Ordering::Less),
                    _ => (&mut self.max, std::cmp::Ordering::Greater),
                };
                if kept.as_ref().is_none_or(|m| v.total_cmp(m) == wins) {
                    *kept = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// The final value of aggregate `f` (`star` marks `COUNT(*)`).
    pub fn finish(&self, f: Agg, star: bool) -> Value {
        match f {
            // COUNT(*) counts rows; COUNT(col) counts non-NULL values.
            // The two tallies are kept separate — conflating them
            // over-reports COUNT(col) on NULL-containing columns.
            Agg::Count => Value::Int(if star { self.count } else { self.non_null }),
            Agg::Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Double(self.sum)
                }
            }
            Agg::Avg => {
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
            Agg::Min => self.min.clone().unwrap_or(Value::Null),
            Agg::Max => self.max.clone().unwrap_or(Value::Null),
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
    use std::cell::Cell;

    thread_local! {
        /// How many times this thread has asked [`holds`] about a row.
        pub(super) static HOLDS: Cell<usize> = const { Cell::new(0) };
    }

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
                |_, _| Ok(true),
                |_, row, _| {
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

    /// A WHERE the sieve decides in full is evaluated on no row; one it
    /// decides in part is evaluated — the conjuncts it left — on each row
    /// it keeps, and on no other; one it cannot narrow, on every row.
    #[test]
    fn the_filter_evaluates_only_what_the_sieve_leaves() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (k INTEGER, s VARCHAR(16), x DOUBLE)")
            .unwrap();
        for k in 0..100 {
            let row = [
                Value::Int(k),
                Value::Str(format!("s{}", k % 10)),
                Value::Double(k as f64 / 2.0),
            ];
            db.execute_with_params("INSERT INTO t VALUES (?, ?, ?)", &row)
                .unwrap();
        }
        let mut evaluated = |pred: &str| {
            HOLDS.with(|n| n.set(0));
            let rs = db
                .execute(&format!("SELECT k FROM t WHERE {pred}"))
                .unwrap();
            (rs.rows.len(), HOLDS.with(Cell::get))
        };
        // k = 11, 21, …, 71.
        assert_eq!(evaluated("s LIKE 's1%' AND k >= 10 AND x < 40.0"), (7, 0));
        // Kept: k = 1, 11, …, 71; `k <> 21` decides each.
        assert_eq!(evaluated("s LIKE 's1%' AND k <> 21 AND x < 40.0"), (7, 8));
        // `LIKE 's_%'` only narrows, to the texts starting with `s`.
        assert_eq!(evaluated("s LIKE 's_%' AND k < 50"), (50, 50));
        assert_eq!(evaluated("k <> 21"), (99, 100));
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
            let pass = |row: &[Value], _| Ok(keep(&row[0]));
            let read = fetch(
                &db,
                &view,
                Source::Table(t),
                AccessPath::FullScan,
                cells,
                pass,
                |_, row, _| {
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
                ..WHOLE
            };
            let read = fetch(
                &db,
                &view,
                Source::Table(t),
                path,
                cells,
                |_, _| Ok(true),
                |_, row, _| {
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
