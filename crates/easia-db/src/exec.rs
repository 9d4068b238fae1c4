//! Query execution.

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{agg_key, truth, EvalContext, RowSchema};
use crate::index::btree::has_prefix;
use crate::mvcc::ReadView;
use crate::plan::{choose_access_path, choose_in_scope, AccessPath, Scope};
use crate::sql::ast::{is_aggregate_fn, Expr, Join, JoinKind, OrderBy, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{decode_row, decode_row_into, encode_row, Value};
use std::collections::HashMap;

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
fn holds(ctx: &EvalContext, pred: &Expr) -> Result<bool> {
    Ok(truth(&*ctx.eval_cow(pred)?) == Some(true))
}

/// Evaluate a row-independent expression (INSERT values, constants).
pub fn eval_const(db: &Database, expr: &Expr, params: &[Value]) -> Result<Value> {
    row_ctx(db, &RowSchema::default(), &[], params).eval(expr)
}

/// Evaluate an expression against one row of `table`.
pub fn eval_row(
    db: &Database,
    expr: &Expr,
    table: &str,
    row: &[Value],
    params: &[Value],
) -> Result<Value> {
    let names: Vec<String> = db
        .schema(table)
        .ok_or_else(|| DbError::Catalog(format!("table {table} does not exist")))?
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    row_ctx(db, &RowSchema::for_table(table, &names), row, params).eval(expr)
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

    /// The rows `view` can see along `path` that `pass`, in storage
    /// order, with every row visited added to `seen`. A relation has no
    /// indexes and no versions, so it is always visited whole; it lends
    /// each row to `pass` and copies out the ones that do.
    fn rows(
        &self,
        db: &Database,
        view: &ReadView,
        path: AccessPath,
        seen: &mut usize,
        mut pass: impl FnMut(&[Value]) -> Result<bool>,
    ) -> Result<Vec<Vec<Value>>> {
        match self {
            Source::Relation(r) => {
                *seen += r.rows.len();
                let mut out = Vec::new();
                for row in &r.rows {
                    if pass(row)? {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            }
            Source::Table(t) => fetch(db, view, t, path, seen, pass, |_, row| row),
        }
    }
}

/// The rows of catalogue table `t` visible to `view` that `pass`, read
/// along `path` in heap order and handed to `keep` (which picks what of
/// `(RowId, row)` the caller wants); see [`sift`].
fn fetch<T>(
    db: &Database,
    view: &ReadView,
    t: &Table,
    path: AccessPath,
    seen: &mut usize,
    pass: impl FnMut(&[Value]) -> Result<bool>,
    keep: impl Fn(RowId, Vec<Value>) -> T,
) -> Result<Vec<T>> {
    let visible = db.row_visibility(&t.schema.name, view);
    match path {
        AccessPath::FullScan => {
            let records = t.heap.records().filter(|(rid, _)| visible(*rid));
            sift(records, seen, pass, keep)
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
            sift(records, seen, pass, keep)
        }
    }
}

/// Decode each of `records` into one scratch row, lend it to `pass`,
/// and move out (through `keep`) only a row that passes: a rejected row
/// allocates nothing. `seen` grows by the number of records, also when
/// `pass` or the decoder raises part-way — the first error is the one
/// returned, and what it left unvisited was a candidate all the same.
fn sift<'r, T>(
    mut records: impl Iterator<Item = (RowId, &'r [u8])>,
    seen: &mut usize,
    mut pass: impl FnMut(&[Value]) -> Result<bool>,
    keep: impl Fn(RowId, Vec<Value>) -> T,
) -> Result<Vec<T>> {
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    let mut raised = None;
    for (rid, record) in records.by_ref() {
        *seen += 1;
        match decode_row_into(record, &mut 0, &mut scratch).and_then(|()| pass(&scratch)) {
            Ok(true) => out.push(keep(rid, std::mem::take(&mut scratch))),
            Ok(false) => {}
            Err(e) => {
                raised = Some(e);
                break;
            }
        }
    }
    *seen += records.count();
    raised.map_or(Ok(out), Err)
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
/// UPDATE/DELETE.
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
    let pass = |row: &[Value]| match where_clause {
        None => Ok(true),
        Some(pred) => holds(&row_ctx(db, &schema, row, params), pred),
    };
    let mut candidates = 0;
    let matching = fetch(db, view, t, path, &mut candidates, pass, |rid, row| {
        (rid, row)
    });
    note_scan(db, index_probe, candidates);
    matching
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

    // ---- base table ----
    let base_alias = from
        .alias
        .clone()
        .unwrap_or_else(|| from.name.to_ascii_uppercase());
    // Catalogue-backed aliases only: a relation carries no DATALINK spec.
    let mut alias_map: HashMap<String, String> = HashMap::new();
    let base = Source::resolve(db, relations, &from.name)?;
    let mut schema = RowSchema::for_table(&base_alias, &base.columns());
    let mut path = AccessPath::FullScan;
    // WHERE conjuncts over the base table's own columns, applied to its
    // rows before they are joined.
    let mut own: Vec<&Expr> = Vec::new();
    if let Source::Table(t) = &base {
        alias_map.insert(base_alias.clone(), from.name.to_ascii_uppercase());
        // The WHERE runs over joined rows and each ON over the legs so
        // far; the base narrows only when none of them can raise on a
        // row the narrowing would skip.
        let mut scope = Scope::of(&base_alias, &t.schema);
        let mut total = true;
        for join in &sel.joins {
            let leg = Source::resolve(db, relations, &join.table.name)?;
            scope.join(&join_alias(join), &leg.columns(), leg.schema());
            total &= scope.total(db, &join.on, params);
        }
        if let Some(pred) = sel.where_clause.as_ref().filter(|_| total) {
            if scope.total(db, pred, params) {
                path = choose_in_scope(db, t, &scope, pred, params);
                if !sel.joins.is_empty() {
                    own = scope.own_conjuncts(pred, t.schema.columns.len());
                }
            }
        }
    }
    let index_probe = matches!(path, AccessPath::IndexRange { .. });
    // The base rows are filtered as they are read: by the whole WHERE
    // when there is nothing to join, else by the base's own conjuncts.
    let pass = |row: &[Value]| {
        let ctx = row_ctx(db, &schema, row, params);
        match &sel.where_clause {
            Some(pred) if sel.joins.is_empty() => holds(&ctx, pred),
            // A base row failing one of them fails the WHERE on every
            // joined row made from it, padded or not. A conjunct that
            // raises after all keeps its row, so the WHERE below raises
            // it too.
            _ => Ok(own.iter().all(|c| !matches!(holds(&ctx, c), Ok(false)))),
        }
    };
    let mut candidates = 0;
    let rows = base.rows(db, view, path, &mut candidates, pass);
    note_scan(db, index_probe, candidates);
    let mut rows = rows?;

    // ---- joins ----
    for join in &sel.joins {
        (schema, rows) = run_join(
            db,
            view,
            relations,
            &schema,
            rows,
            join,
            params,
            &mut alias_map,
        )?;
    }
    if !sel.joins.is_empty() {
        if let Some(m) = db.metrics() {
            m.stage_join.observe(rows.len() as f64);
        }
    }

    // ---- WHERE (over joined rows; a lone table's ran with its scan) ----
    if let Some(pred) = &sel.where_clause {
        if !sel.joins.is_empty() {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if holds(&row_ctx(db, &schema, &row, params), pred)? {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        if let Some(m) = db.metrics() {
            m.stage_filter.observe(rows.len() as f64);
        }
    }

    // ---- aggregation or plain projection ----
    let has_agg = sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || sel.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || !sel.group_by.is_empty();

    if has_agg {
        return aggregate_pipeline(db, sel, &schema, &rows, params);
    }
    let projected = project_pipeline(db, sel, &schema, &rows, params, &alias_map)?;
    finish_select(db, sel, &schema, projected, params)
}

/// Projected output: column names, rows, and per-row sort context
/// (empty when the statement has no ORDER BY to evaluate against it).
type Projection = (Vec<String>, Vec<Vec<Value>>, Vec<SortCtx>);

/// Per-output-row context used to evaluate ORDER BY: the underlying
/// (joined or representative) row plus any aggregate values.
struct SortCtx {
    row: Vec<Value>,
    aggs: HashMap<String, Value>,
}

/// DISTINCT, ORDER BY (keys evaluated against the joined `schema`) and
/// LIMIT over projected output.
fn finish_select(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    (columns, mut out_rows, mut sort_ctx): Projection,
    params: &[Value],
) -> Result<ResultSet> {
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        let first: Vec<bool> = out_rows
            .iter()
            .map(|row| {
                let mut buf = Vec::new();
                encode_row(row, &mut buf);
                seen.insert(buf)
            })
            .collect();
        let mut keep = first.iter();
        out_rows.retain(|_| *keep.next().expect("one flag per row"));
        let mut keep = first.iter();
        sort_ctx.retain(|_| *keep.next().expect("one flag per row"));
    }
    if !sel.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(out_rows.len());
        for (row, ctx) in out_rows.into_iter().zip(&sort_ctx) {
            let mut keys = Vec::with_capacity(sel.order_by.len());
            for ob in &sel.order_by {
                keys.push(order_key(db, ob, schema, ctx, &row, &columns, params)?);
            }
            keyed.push((keys, row));
        }
        keyed.sort_by(|a, b| {
            for (i, ob) in sel.order_by.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if ob.asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = keyed.into_iter().map(|(_, r)| r).collect();
        if let Some(m) = db.metrics() {
            m.stage_sort.observe(out_rows.len() as f64);
        }
    }
    if let Some(limit) = sel.limit {
        out_rows.truncate(limit);
    }
    if let Some(m) = db.metrics() {
        m.rows_returned.add(out_rows.len() as f64);
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
        affected: 0,
    })
}

fn order_key(
    db: &Database,
    ob: &OrderBy,
    schema: &RowSchema,
    ctx: &SortCtx,
    out_row: &[Value],
    columns: &[String],
    params: &[Value],
) -> Result<Value> {
    // A bare column matching an output alias sorts by the output column.
    if let Expr::Column { table: None, name } = &ob.expr {
        if let Some(pos) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            return Ok(out_row[pos].clone());
        }
    }
    EvalContext {
        aggs: Some(&ctx.aggs),
        ..row_ctx(db, schema, &ctx.row, params)
    }
    .eval(&ob.expr)
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

/// The name a JOIN leg's columns are qualified by.
fn join_alias(join: &Join) -> String {
    join.table
        .alias
        .clone()
        .unwrap_or_else(|| join.table.name.to_ascii_uppercase())
}

#[allow(clippy::too_many_arguments)]
fn run_join(
    db: &Database,
    view: &ReadView,
    relations: &[Relation],
    left_schema: &RowSchema,
    left_rows: Vec<Vec<Value>>,
    join: &Join,
    params: &[Value],
    alias_map: &mut HashMap<String, String>,
) -> Result<(RowSchema, Vec<Vec<Value>>)> {
    let alias = join_alias(join);
    let right = Source::resolve(db, relations, &join.table.name)?;
    let rnames = right.columns();
    let right_schema = RowSchema::for_table(&alias, &rnames);
    let out_schema = left_schema.join(&right_schema);
    let right_width = rnames.len();

    // Equi-join acceleration: find `right.col = <left expr>` in the ON
    // conjuncts where the right table has an index on col.
    let mut probe: Option<(&Table, usize, Expr)> = None; // (right, index pos, left expr)
    if let Source::Table(t) = right {
        alias_map.insert(alias.clone(), join.table.name.to_ascii_uppercase());
        'conjuncts: for c in crate::plan::conjuncts(&join.on) {
            let Expr::Binary(l, crate::sql::ast::BinaryOp::Eq, r) = c else {
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
                if !ta.eq_ignore_ascii_case(&alias) {
                    continue;
                }
                let Some(cpos) = t.schema.column_index(name) else {
                    continue;
                };
                let ipos = t.indexes.iter().position(|ix| ix.col_indices == [cpos]);
                // The other side must be evaluable on the left.
                if let (Some(ipos), true) = (ipos, expr_uses_only(b, left_schema)) {
                    probe = Some((t, ipos, b.as_ref().clone()));
                    break 'conjuncts;
                }
            }
        }
    }

    // Without a probe every left row meets the whole right leg, read once.
    let mut right_rows: Vec<Vec<Value>> = if probe.is_none() {
        right.rows(db, view, AccessPath::FullScan, &mut 0, |_| Ok(true))?
    } else {
        Vec::new()
    };
    let probe = probe.map(|(t, ipos, lexpr)| {
        let visible = db.row_visibility(&t.schema.name, view);
        (t, ipos, lexpr, visible)
    });

    let mut out = Vec::new();
    // The pairing ON is asked about lives in one buffer: the left row
    // moves in, each candidate is lent to it and taken back, and only a
    // pairing that passes is copied out.
    let mut pairing: Vec<Value> = Vec::new();
    let mut probed: Vec<Vec<Value>> = Vec::new();
    for lrow in left_rows {
        let left_width = lrow.len();
        pairing.clear();
        pairing.extend(lrow);
        let candidates = match &probe {
            Some((t, ipos, lexpr, visible)) => {
                let lctx = row_ctx(db, left_schema, &pairing, params);
                let key = lctx.eval(lexpr)?;
                probed.clear();
                if !key.is_null() {
                    let rids = t.indexes[*ipos].tree.get(&[key]);
                    for rid in rids.into_iter().filter(|rid| visible(*rid)) {
                        if let Some(record) = t.heap.record(rid) {
                            probed.push(decode_row(record, &mut 0)?);
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
            let ctx = row_ctx(db, &out_schema, &pairing, params);
            if holds(&ctx, &join.on)? {
                matched = true;
                out.push(pairing.clone());
            }
            rrow.extend(pairing.drain(left_width..));
        }
        if !matched && join.kind == JoinKind::Left {
            pairing.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(std::mem::take(&mut pairing));
        }
    }
    Ok((out_schema, out))
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

// ---- plain projection ----

fn project_pipeline(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    rows: &[Vec<Value>],
    params: &[Value],
    alias_map: &HashMap<String, String>,
) -> Result<Projection> {
    // Expand items to (name, kind) where kind is either a slot index
    // (column passthrough, datalink-rendered) or an expression.
    enum Out {
        Slot(usize),
        Expr(Expr),
    }
    let mut columns = Vec::new();
    let mut outs = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in schema.columns.iter().enumerate() {
                    columns.push(c.name.clone());
                    outs.push(Out::Slot(i));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let t = t.to_ascii_uppercase();
                let mut any = false;
                for (i, c) in schema.columns.iter().enumerate() {
                    if c.table.as_deref() == Some(t.as_str()) {
                        columns.push(c.name.clone());
                        outs.push(Out::Slot(i));
                        any = true;
                    }
                }
                if !any {
                    return Err(DbError::Eval(format!("unknown table alias {t} in {t}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                // Column refs become slots so DATALINK rendering applies.
                match expr {
                    Expr::Column { table, name } => {
                        let i = schema.resolve(table.as_deref(), name)?;
                        outs.push(Out::Slot(i));
                    }
                    other => outs.push(Out::Expr(other.clone())),
                }
            }
        }
    }
    // Slot -> datalink spec mapping for token rendering.
    let mut dl_specs: HashMap<usize, crate::schema::DatalinkSpec> = HashMap::new();
    for (i, cref) in schema.columns.iter().enumerate() {
        if let Some(alias) = &cref.table {
            if let Some(real) = alias_map.get(alias) {
                if let Some(ts) = db.schema(real) {
                    if let Some(col) = ts.column(&cref.name) {
                        if let Some(spec) = &col.datalink {
                            dl_specs.insert(i, spec.clone());
                        }
                    }
                }
            }
        }
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    // ORDER BY keys are evaluated against the underlying rows; nothing
    // else reads them.
    let ordered = !sel.order_by.is_empty();
    let mut sort_ctx = Vec::with_capacity(if ordered { rows.len() } else { 0 });
    for row in rows {
        let ctx = row_ctx(db, schema, row, params);
        let mut out = Vec::with_capacity(outs.len());
        for o in &outs {
            match o {
                Out::Slot(i) => {
                    let v = row[*i].clone();
                    let v = match (&v, dl_specs.get(i)) {
                        (Value::Datalink(url), Some(spec)) => {
                            Value::Datalink(db.render_datalink(spec, url))
                        }
                        _ => v,
                    };
                    out.push(v);
                }
                Out::Expr(e) => out.push(ctx.eval(e)?),
            }
        }
        out_rows.push(out);
        if ordered {
            sort_ctx.push(SortCtx {
                row: row.clone(),
                aggs: HashMap::new(),
            });
        }
    }
    Ok((columns, out_rows, sort_ctx))
}

// ---- aggregation ----

/// Collect aggregate call sites from an expression, deduplicated by
/// [`agg_key`], in first-appearance order. Does not recurse into
/// aggregate arguments (nested aggregates are invalid SQL).
pub fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_fn(name) {
            if !out.iter().any(|x| agg_key(x) == agg_key(e)) {
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

fn aggregate_pipeline(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    rows: &[Vec<Value>],
    params: &[Value],
) -> Result<ResultSet> {
    // Discover aggregate call sites.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut agg_exprs);
        }
    }
    if let Some(h) = &sel.having {
        collect_aggs(h, &mut agg_exprs);
    }
    for ob in &sel.order_by {
        collect_aggs(&ob.expr, &mut agg_exprs);
    }

    // Group rows.
    struct Group {
        rep: Vec<Value>,
        states: Vec<AggState>,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut group_index: HashMap<Vec<u8>, usize> = HashMap::new();
    for row in rows {
        let ctx = row_ctx(db, schema, row, params);
        let key_vals: Vec<Value> = sel
            .group_by
            .iter()
            .map(|e| ctx.eval(e))
            .collect::<Result<_>>()?;
        let mut key = Vec::new();
        encode_row(&key_vals, &mut key);
        let gi = *group_index.entry(key).or_insert_with(|| {
            groups.push(Group {
                rep: row.clone(),
                states: (0..agg_exprs.len()).map(|_| AggState::default()).collect(),
            });
            groups.len() - 1
        });
        for (agg, st) in agg_exprs.iter().zip(&mut groups[gi].states) {
            let Expr::Function { name, args, star } = agg else {
                unreachable!("collect_aggs only collects functions");
            };
            if *star {
                st.fold(name, None)?;
            } else {
                st.fold(name, Some(&ctx.eval(&args[0])?))?;
            }
        }
    }
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && sel.group_by.is_empty() {
        groups.push(Group {
            rep: vec![Value::Null; schema.columns.len()],
            states: (0..agg_exprs.len()).map(|_| AggState::default()).collect(),
        });
    }

    let groups = groups
        .into_iter()
        .map(|g| {
            let aggs = agg_exprs
                .iter()
                .zip(&g.states)
                .map(|(agg, st)| {
                    let Expr::Function { name, star, .. } = agg else {
                        unreachable!("collect_aggs only collects functions");
                    };
                    (agg_key(agg), st.finish(name, *star))
                })
                .collect();
            (g.rep, aggs)
        })
        .collect();
    finish_groups(db, sel, schema, groups, params)
}

/// Finish an aggregate SELECT from its groups — each a representative
/// row (scalar parts of the statement evaluate against it under
/// `schema`) plus the finished aggregate values keyed by [`agg_key`]:
/// HAVING, the select list, then DISTINCT / ORDER BY / LIMIT. Shared by
/// the local pipeline and the federation's partial-aggregate merge, so
/// both apply the same alias-first ORDER BY rule.
pub fn finish_groups(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    groups: Vec<(Vec<Value>, HashMap<String, Value>)>,
    params: &[Value],
) -> Result<ResultSet> {
    let mut columns = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
            }
            _ => {
                return Err(DbError::Eval(
                    "wildcard not allowed with GROUP BY / aggregates".into(),
                ))
            }
        }
    }
    let mut out_rows = Vec::new();
    let mut sort_ctx = Vec::new();
    for (rep, aggs) in groups {
        // One evaluator for HAVING and the select list: an aggregate
        // call anywhere inside them reads the group's finished value.
        let ctx = EvalContext {
            aggs: Some(&aggs),
            ..row_ctx(db, schema, &rep, params)
        };
        if let Some(h) = &sel.having {
            if truth(&ctx.eval(h)?) != Some(true) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                out.push(ctx.eval(expr)?);
            }
        }
        out_rows.push(out);
        sort_ctx.push(SortCtx { row: rep, aggs });
    }
    if let Some(m) = db.metrics() {
        m.stage_aggregate.observe(out_rows.len() as f64);
    }
    finish_select(db, sel, schema, (columns, out_rows, sort_ctx), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Index;
    use crate::index::BPlusTree;
    use crate::plan::Tail;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::storage::HeapTable;
    use crate::value::SqlType;

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
            let mut seen = 0;
            let rows = fetch(&db, &view, &t, path, &mut seen, |_| Ok(true), |_, row| row);
            (rows, seen)
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
}
