//! The checked row writer: INSERT, UPDATE and DELETE through one
//! [`Database::write_row`], its constraint and conflict probes, and the
//! physical heap and index maintenance that replay shares.

use super::{Database, Table};
use crate::error::{DbError, Result};
use crate::exec;
use crate::expr::{Bound, EvalContext, RowSchema};
use crate::index::btree::record_key;
use crate::mvcc::{ReadView, TxnId};
use crate::schema::TableSchema;
use crate::storage::snapshot::check_record;
use crate::storage::RowId;
use crate::txn::WalRecord;
use crate::value::{cell_count, encode_row, next_cell, order_key, Value};

/// `row`'s key in columns `cols`, as a tree files it, written over `key`.
fn key_into<'k>(cols: &[usize], row: &[Value], key: &'k mut Vec<u8>) -> &'k [u8] {
    key.clear();
    cols.iter().for_each(|&i| order_key(&row[i], false, key));
    key
}

impl Table {
    /// Whether a row `visible` admits (every row, if `None`) holds `key`,
    /// an order key, in columns `cols` — the one probe of both FK checks.
    /// Equal is the index's equality, equal order keys: `1` is `1.0`,
    /// `-0.0` is `0.0`, NaN is NaN, a VARCHAR is the CLOB of its text. An index led by
    /// `cols` is walked under the key; otherwise every stored record is
    /// stepped through cell by cell — a damaged shape is its typed error,
    /// its text trusted as a heap's is — and the key of its cells `cols`
    /// compared. No row is decoded.
    fn holds_key(
        &self,
        cols: &[usize],
        key: &[u8],
        visible: Option<impl Fn(RowId) -> bool>,
    ) -> Result<bool> {
        let visible = |rid| visible.as_ref().is_none_or(|v| v(rid));
        if let Some(ix) = self
            .indexes
            .iter()
            .find(|ix| ix.col_indices.starts_with(cols))
        {
            let mut found = false;
            ix.tree.scan_from_key(key, |k, rids| {
                let under_key = k.0.starts_with(key);
                found = under_key && rids.iter().any(|&rid| visible(rid));
                under_key && !found
            });
            return Ok(found);
        }
        let (mut cells, mut stored) = (Vec::with_capacity(self.schema.columns.len()), Vec::new());
        for (rid, rec) in self.heap.records() {
            cells.clear();
            let mut pos = 0;
            for _ in 0..cell_count(rec, &mut pos)? {
                cells.push(next_cell(rec, &mut pos)?);
            }
            stored.clear();
            if cols.iter().all(|&c| c < cells.len()) {
                record_key(cols, &cells, &mut stored);
            }
            if stored == key && visible(rid) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Database {
    pub(super) fn run_insert(
        &mut self,
        txn: TxnId,
        table: &str,
        columns: &[String],
        rows: &[Vec<crate::sql::ast::Expr>],
        params: &[Value],
    ) -> Result<usize> {
        let tname = table.to_ascii_uppercase();
        let schema = self.schema_of(&tname)?;
        // Map insert columns to positions.
        let positions: Vec<usize> = if columns.is_empty() {
            (0..schema.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .ok_or_else(|| DbError::Catalog(format!("column {c} not found in {tname}")))
                })
                .collect::<Result<_>>()?
        };
        // Bound once for the statement, before any row is written; each
        // value evaluates against no row, and a literal moves into its
        // row instead of being copied.
        let none = RowSchema::default();
        let mut values = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for e in rows.iter().flatten() {
            values.push(none.bind(e, &self.functions, &[])?);
        }
        let mut values = values.into_iter();
        for exprs in rows {
            if exprs.len() != positions.len() {
                return Err(DbError::Type(format!(
                    "INSERT has {} values for {} columns",
                    exprs.len(),
                    positions.len()
                )));
            }
            let mut row = vec![Value::Null; schema.columns.len()];
            for (expr, &pos) in values.by_ref().take(exprs.len()).zip(&positions) {
                row[pos] = match expr {
                    Bound::Value(v) => v,
                    expr => EvalContext::new(&[], params).eval(&expr)?,
                };
            }
            self.insert_in(txn, tname.clone(), row)?;
        }
        Ok(rows.len())
    }

    /// A copy of `table`'s schema; an unknown table is a catalog error.
    fn schema_of(&self, table: &str) -> Result<TableSchema> {
        let schema = self.schema(table).cloned();
        schema.ok_or_else(|| DbError::Catalog(format!("table {table} does not exist")))
    }

    /// Insert one typed row, checked as an INSERT statement's rows are.
    /// It runs in the transaction SQL `BEGIN` opened, else in one of its
    /// own that has committed when this returns.
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        let table = table.to_ascii_uppercase();
        self.write_in(self.session, |db, t| db.insert_in(t, table, row))
    }

    fn insert_in(&mut self, txn: TxnId, table: String, row: Vec<Value>) -> Result<()> {
        self.write_row(txn, table, None, Some(row))?;
        self.writes += 1;
        Ok(())
    }

    /// The one checked row write in `txn`: an insert (`new` only), an
    /// update (both) or a delete (`old` only) of a row of `table`. Its
    /// checks run in one order: the new row's types, a write conflict on
    /// the old one, the new row's UNIQUE and FK keys, the old row's
    /// referencing children, then DATALINK unlink and link of every link
    /// that changed. Only then is the old version stamped, the new one
    /// inserted and the redo recorded.
    fn write_row(
        &mut self,
        txn: TxnId,
        table: String,
        old: Option<(RowId, Vec<Value>)>,
        new: Option<Vec<Value>>,
    ) -> Result<()> {
        let schema = self.schema_of(&table)?;
        let new = new.map(|row| self.check_row(&schema, row)).transpose()?;
        if let Some((rid, _)) = &old {
            self.check_write_conflict(&table, *rid, txn)?;
        }
        if let Some(row) = &new {
            self.check_unique(&table, row, old.as_ref().map(|(rid, _)| *rid), txn)?;
            self.check_fk_child(&schema, row, txn)?;
        }
        if let Some((_, row)) = &old {
            self.check_fk_parent(&table, &schema, row, new.as_deref(), txn)?;
        }
        fn url(cell: Option<&Value>) -> Option<&str> {
            match cell {
                Some(Value::Datalink(u)) => Some(u),
                _ => None,
            }
        }
        if !self.replaying {
            for (i, spec) in schema.datalink_columns() {
                let was = url(old.as_ref().map(|(_, row)| &row[i]));
                let now = url(new.as_ref().map(|row| &row[i]));
                if was == now {
                    continue;
                }
                self.claim_links(txn)?;
                let col = &schema.columns[i].name;
                if let Some(u) = was {
                    for obs in &self.observers {
                        obs.on_unlink(&table, col, spec, u)?;
                    }
                }
                if let Some(u) = now {
                    for obs in &self.observers {
                        obs.on_link(&table, col, spec, u)?;
                    }
                }
            }
        }
        // MVCC: the old version is only stamped — older read views keep
        // it until vacuum reclaims it after our commit — and the new row
        // goes in as a fresh version.
        if let Some((rid, _)) = &old {
            self.mvcc.stamp_delete(&table, *rid, txn);
        }
        let created = new.as_ref().map(|row| self.physical_insert(&table, row));
        if let Some(rid) = created {
            self.mvcc.note_insert(&table, rid, txn);
            if let Some(m) = &self.metrics {
                m.versions_created.inc();
            }
        }
        let tw = self.txns.get_mut(&txn).expect("write txn is active");
        tw.deleted
            .extend(old.as_ref().map(|(rid, _)| (table.clone(), *rid)));
        tw.created.extend(created.map(|rid| (table.clone(), rid)));
        tw.redo.push(match (old, new) {
            (None, Some(row)) => WalRecord::Insert { table, row },
            (Some((_, old)), Some(new)) => WalRecord::Update { table, old, new },
            (Some((_, row)), None) => WalRecord::Delete { table, row },
            (None, None) => unreachable!("a write has an old row, a new one or both"),
        });
        Ok(())
    }

    /// LinkObserver hooks carry no transaction id, so only one in-flight
    /// transaction may hold pending DATALINK operations at a time.
    fn claim_links(&mut self, txn: TxnId) -> Result<()> {
        if self.observers.is_empty() {
            return Ok(());
        }
        match self.link_owner {
            None => {
                self.link_owner = Some(txn);
                Ok(())
            }
            Some(owner) if owner == txn => Ok(()),
            Some(_) => Err(DbError::Txn(
                "another in-flight transaction holds pending DATALINK operations; \
                 commit or roll it back first"
                    .into(),
            )),
        }
    }

    pub(super) fn run_update(
        &mut self,
        txn: TxnId,
        table: &str,
        sets: &[(String, crate::sql::ast::Expr)],
        where_clause: Option<&crate::sql::ast::Expr>,
        params: &[Value],
    ) -> Result<usize> {
        let tname = table.to_ascii_uppercase();
        let schema = self.schema_of(&tname)?;
        // Bound once for the statement against the table's rows, before
        // any is read.
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let row_schema = RowSchema::for_table(&tname, &names);
        let mut set_pos = Vec::new();
        for (c, e) in sets {
            let pos = schema
                .column_index(c)
                .ok_or_else(|| DbError::Catalog(format!("column {c} not found in {tname}")))?;
            set_pos.push((pos, row_schema.bind(e, &self.functions, &[])?));
        }
        let view = self.view(Some(txn));
        let targets = exec::collect_matching(self, &view, &tname, where_clause, params)?;
        let affected = targets.len();
        for (rid, old_row) in targets {
            let mut new_row = old_row.clone();
            for (pos, e) in &set_pos {
                new_row[*pos] = EvalContext::new(&old_row, params).eval(e)?;
            }
            self.write_row(txn, tname.clone(), Some((rid, old_row)), Some(new_row))?;
        }
        Ok(affected)
    }

    pub(super) fn run_delete(
        &mut self,
        txn: TxnId,
        table: &str,
        where_clause: Option<&crate::sql::ast::Expr>,
        params: &[Value],
    ) -> Result<usize> {
        let tname = table.to_ascii_uppercase();
        self.schema_of(&tname)?;
        let view = self.view(Some(txn));
        let targets = exec::collect_matching(self, &view, &tname, where_clause, params)?;
        let affected = targets.len();
        for (rid, row) in targets {
            self.write_row(txn, tname.clone(), Some((rid, row)), None)?;
        }
        Ok(affected)
    }

    /// First-committer-wins gate for delete/update of `rid`: refuse when
    /// the row was created or delete-stamped by a concurrent transaction,
    /// or modified by a commit newer than this transaction's snapshot.
    fn check_write_conflict(&self, table: &str, rid: RowId, txn: TxnId) -> Result<()> {
        let Some(v) = self.mvcc.version(table, rid) else {
            return Ok(()); // frozen: visible to everyone, never contended
        };
        if let Some(x) = v.xmax {
            if x == txn {
                return Err(self.conflict(table, "row already deleted in this transaction"));
            }
            if self.mvcc.is_active(x) {
                return Err(self.conflict(table, "row deleted by a concurrent transaction"));
            }
            if self.mvcc.csn_of(x).is_some() {
                return Err(self.conflict(table, "row deleted by a later commit"));
            }
        }
        if v.xmin != txn {
            if self.mvcc.is_active(v.xmin) {
                return Err(self.conflict(table, "row created by a concurrent transaction"));
            }
            let snap = self.view(Some(txn)).csn;
            if self.mvcc.csn_of(v.xmin).is_some_and(|c| c > snap) {
                return Err(self.conflict(table, "row modified since this transaction's snapshot"));
            }
        }
        Ok(())
    }

    fn conflict(&self, table: &str, what: &str) -> DbError {
        if let Some(m) = &self.metrics {
            m.write_conflicts.inc();
        }
        DbError::Txn(format!(
            "write conflict on {table}: {what} (first committer wins)"
        ))
    }

    // ---- constraint checks ----

    pub(super) fn check_row(&self, schema: &TableSchema, row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != schema.columns.len() {
            return Err(DbError::Type(format!(
                "row has {} values, table {} has {} columns",
                row.len(),
                schema.name,
                schema.columns.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&schema.columns) {
            let v = v
                .coerce(col.ty)
                .map_err(|e| DbError::Type(format!("column {}: {e}", col.name)))?;
            if v.is_null() && col.not_null {
                return Err(DbError::Constraint(format!(
                    "column {}.{} may not be NULL",
                    schema.name, col.name
                )));
            }
            out.push(v);
        }
        Ok(out)
    }

    fn check_unique(
        &self,
        table: &str,
        row: &[Value],
        exclude: Option<RowId>,
        txn: TxnId,
    ) -> Result<()> {
        let t = self.tables.get(table).expect("caller validated table");
        let mut key = Vec::new();
        for ix in &t.indexes {
            if !ix.unique || ix.col_indices.iter().any(|&i| row[i].is_null()) {
                continue; // NULLs are exempt from uniqueness
            }
            for &hit in ix.tree.get_key(key_into(&ix.col_indices, row, &mut key)) {
                if Some(hit) == exclude {
                    continue;
                }
                // Classify the index hit against the version metadata:
                // dead versions don't collide, but rows touched by a
                // concurrent transaction are eager write conflicts (its
                // abort could resurrect the duplicate).
                let Some(v) = self.mvcc.version(table, hit) else {
                    return Err(self.duplicate(table, &ix.name)); // frozen = live
                };
                match v.xmax {
                    Some(x) if x == txn || self.mvcc.csn_of(x).is_some() => continue,
                    Some(_) => {
                        return Err(
                            self.conflict(table, "duplicate key held by a concurrent delete")
                        );
                    }
                    None => {
                        if v.xmin == txn || self.mvcc.csn_of(v.xmin).is_some() {
                            return Err(self.duplicate(table, &ix.name));
                        }
                        return Err(self.conflict(
                            table,
                            "duplicate key inserted by a concurrent transaction",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn duplicate(&self, table: &str, index: &str) -> DbError {
        DbError::Constraint(format!("duplicate key in unique index {index} of {table}"))
    }

    /// Child-side FK check: every FK key must be held by a row of the
    /// referenced table (NULLs exempt a key). Only rows visible to the
    /// writing transaction count.
    fn check_fk_child(&self, schema: &TableSchema, row: &[Value], txn: TxnId) -> Result<()> {
        let view = ReadView {
            txn: Some(txn),
            ..ReadView::latest()
        };
        let mut key = Vec::new();
        for fk in &schema.foreign_keys {
            let cols: Vec<usize> = fk
                .columns
                .iter()
                .map(|c| schema.column_index(c).expect("fk validated"))
                .collect();
            if cols.iter().any(|&i| row[i].is_null()) {
                continue;
            }
            let parent = self.tables.get(&fk.ref_table).ok_or_else(|| {
                DbError::Catalog(format!("fk target table {} missing", fk.ref_table))
            })?;
            let missing = |c| DbError::Catalog(format!("fk target column {c} missing"));
            let ref_idx: Vec<usize> = (fk.ref_columns.iter())
                .map(|c| parent.schema.column_index(c).ok_or_else(|| missing(c)))
                .collect::<Result<_>>()?;
            let key = key_into(&cols, row, &mut key);
            if !parent.holds_key(&ref_idx, key, self.row_visibility(&fk.ref_table, &view))? {
                return Err(DbError::Constraint(format!(
                    "foreign key violation: {}({}) -> {}({}) value not found",
                    schema.name,
                    fk.columns.join(","),
                    fk.ref_table,
                    fk.ref_columns.join(",")
                )));
            }
        }
        Ok(())
    }

    /// Parent-side FK check (RESTRICT): refuse deleting/changing a key
    /// that child rows visible to the writing transaction still reference.
    fn check_fk_parent(
        &self,
        table: &str,
        schema: &TableSchema,
        old_row: &[Value],
        new_row: Option<&[Value]>,
        txn: TxnId,
    ) -> Result<()> {
        let view = ReadView {
            txn: Some(txn),
            ..ReadView::latest()
        };
        let (mut key, mut new_key) = (Vec::new(), Vec::new());
        for (child_name, child) in &self.tables {
            for fk in &child.schema.foreign_keys {
                if fk.ref_table != table {
                    continue;
                }
                let ref_idx: Vec<usize> = fk
                    .ref_columns
                    .iter()
                    .filter_map(|c| schema.column_index(c))
                    .collect();
                if ref_idx.len() != fk.ref_columns.len()
                    || ref_idx.iter().any(|&i| old_row[i].is_null())
                {
                    continue;
                }
                // The key is unchanged when the index would file both
                // rows under one key.
                let key = key_into(&ref_idx, old_row, &mut key);
                if new_row.is_some_and(|new_row| key_into(&ref_idx, new_row, &mut new_key) == key) {
                    continue;
                }
                let child_idx: Vec<usize> = fk
                    .columns
                    .iter()
                    .map(|c| child.schema.column_index(c).expect("fk validated"))
                    .collect();
                if child.holds_key(&child_idx, key, self.row_visibility(child_name, &view))? {
                    return Err(DbError::Constraint(format!(
                        "cannot modify {table}: key referenced by {child_name}"
                    )));
                }
            }
        }
        Ok(())
    }

    // ---- physical operations (heap + index maintenance only) ----

    /// Insert `row` into the heap and its keys into every index.
    pub(super) fn physical_insert(&mut self, table: &str, row: &[Value]) -> RowId {
        let t = self.tables.get_mut(table).expect("caller validated table");
        let rid = t.heap.insert(row);
        let mut key = Vec::new();
        for ix in &mut t.indexes {
            ix.tree
                .insert_key(key_into(&ix.col_indices, row, &mut key), rid);
        }
        rid
    }

    /// Remove the row at `rid` and its index entries, whose keys are cut
    /// out of the stored record's cells. A record that is not a row of
    /// the table is left where it is.
    pub(super) fn physical_delete(&mut self, table: &str, rid: RowId) {
        let t = self.tables.get_mut(table).expect("caller validated table");
        let Some(rec) = t.heap.record(rid) else {
            return;
        };
        let mut cells = Vec::with_capacity(t.schema.columns.len());
        if check_record(&t.schema, rid, rec, |cell| cells.push(cell)).is_err() {
            return;
        }
        let mut key = Vec::new();
        for ix in &mut t.indexes {
            key.clear();
            record_key(&ix.col_indices, &cells, &mut key);
            ix.tree.remove_key(&key, rid);
        }
        t.heap.delete(rid);
    }

    /// Find the first live row equal to `row` (used by WAL replay, which
    /// finds the rows it deletes and updates by value, not by row id).
    /// Equal means equal *record bytes* — the encoding is canonical, and
    /// unlike `==` on values it finds a NaN. An index only narrows the
    /// records compared, to those filed under the row's key.
    pub(super) fn find_row_by_value(&self, table: &str, row: &[Value]) -> Option<RowId> {
        let t = self.tables.get(table)?;
        let mut want = Vec::new();
        encode_row(row, &mut want);
        match t.indexes.first() {
            Some(ix) if row.len() == t.schema.columns.len() => ix
                .tree
                .get_key(key_into(&ix.col_indices, row, &mut Vec::new()))
                .iter()
                .copied()
                .find(|&rid| t.heap.record(rid) == Some(&want[..])),
            _ => t
                .heap
                .records()
                .find(|(_, rec)| *rec == want)
                .map(|(rid, _)| rid),
        }
    }
}
