//! Multi-version concurrency control: versioned rows, snapshot read
//! views, and the commit-sequence-number (CSN) registry.
//!
//! The engine is single-threaded (the whole archive runs in virtual
//! time), so "concurrency" means *logically* concurrent transactions
//! interleaved on one thread: the portal's browse sessions hold read
//! views open while ingest and DATALINK linking commit underneath them.
//! A snapshot is a transaction that never writes, so there is one
//! registry of open views and one vacuum horizon. Each transaction is
//! identified by a [`TxnId`]; each commit is stamped with a
//! monotonically increasing [`Csn`]. A row version is visible to a
//! [`ReadView`] iff its creator committed at or before the view's CSN
//! ceiling (or is the view's own transaction) and its deleter did not.
//!
//! Version metadata lives *beside* the heap, not in the page format: a
//! per-table map from [`RowId`] to [`RowVersion`]. A row with **no**
//! entry is *frozen* — created by a transaction that committed before
//! every open view, deleted by nobody — which keeps the map tiny: the
//! vacuum pass removes dead versions (heap + indexes + entry) and
//! freezes entries older than the oldest open view, so in the steady
//! single-session state the map is empty and visibility checks cost one
//! empty-map probe per scan.
//!
//! Conflict detection is *first-updater-wins*, stamped eagerly at write
//! time: stamping a delete (or the delete half of an update) onto a
//! version another active transaction already stamped, or onto a
//! version committed after the writer's snapshot, fails with a write
//! conflict. In a single-threaded engine where a transaction's writes
//! are applied as its statements execute, this is observationally
//! equivalent to the first-*committer*-wins check classic snapshot
//! isolation runs at COMMIT: the first writer to reach the row always
//! also commits first or aborts.

use crate::storage::RowId;
use std::collections::BTreeMap;

/// Transaction identifier. `0` is reserved for [`FROZEN_TXN`].
pub type TxnId = u64;

/// Commit sequence number. `0` is the bootstrap commit (recovered /
/// frozen rows); real commits start at 1.
pub type Csn = u64;

/// The pseudo-transaction that owns frozen rows: committed at CSN 0,
/// before every possible view.
pub const FROZEN_TXN: TxnId = 0;

/// CSN ceiling meaning "read the latest committed state": the ceiling
/// of [`ReadView::latest`]. No transaction's view has it.
pub const LATEST_CSN: Csn = u64::MAX;

/// Creation/deletion stamps for one heap row version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowVersion {
    /// Transaction that created this version.
    pub xmin: TxnId,
    /// Transaction that deleted it (or replaced it, for updates).
    pub xmax: Option<TxnId>,
}

/// A visibility horizon: rows committed at or before `csn` (plus the
/// uncommitted writes of `txn`, if set) are visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadView {
    /// CSN ceiling ([`LATEST_CSN`] = everything committed so far).
    pub csn: Csn,
    /// Own transaction: its uncommitted writes are visible to itself.
    pub txn: Option<TxnId>,
}

impl ReadView {
    /// The latest-committed view: what a read outside any transaction
    /// sees, and what foreign-key checks see.
    pub fn latest() -> Self {
        ReadView {
            csn: LATEST_CSN,
            txn: None,
        }
    }
}

/// Handle for an open read-only snapshot: the id of a transaction that
/// never writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotId(pub TxnId);

/// What the vacuum pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Dead row versions physically reclaimed (heap + index entries).
    pub versions_removed: usize,
    /// Live versions whose stamps aged past every open view and were
    /// dropped from the version map (implicitly frozen).
    pub versions_frozen: usize,
}

/// The MVCC registries: transaction status (readers and writers alike)
/// and the per-table version map.
#[derive(Debug)]
pub struct MvccState {
    next_txn: TxnId,
    next_csn: Csn,
    /// Committed transactions still referenced by version entries.
    /// Vacuum prunes stamps at or below the horizon.
    committed: BTreeMap<TxnId, Csn>,
    /// Open views, readers' and writers', and the CSN ceiling of each:
    /// the one copy of it ([`MvccState::view_of`]).
    active: BTreeMap<TxnId, Csn>,
    /// table name -> RowId -> version stamps (missing entry = frozen).
    versions: BTreeMap<String, BTreeMap<RowId, RowVersion>>,
}

impl Default for MvccState {
    fn default() -> Self {
        Self::new()
    }
}

impl MvccState {
    /// Fresh state: no transactions, everything frozen.
    pub fn new() -> Self {
        MvccState {
            next_txn: 1,
            next_csn: 1,
            committed: BTreeMap::new(),
            active: BTreeMap::new(),
            versions: BTreeMap::new(),
        }
    }

    /// CSN of the most recent commit (0 if none since open).
    pub fn last_csn(&self) -> Csn {
        self.next_csn - 1
    }

    /// The read view of a hypothetical reader starting right now:
    /// everything committed up to the horizon, belonging to no
    /// transaction. Checkpoints write exactly this view, which is what
    /// lets them run under open views.
    pub fn committed_view(&self) -> ReadView {
        ReadView {
            csn: self.last_csn(),
            txn: None,
        }
    }

    /// Recovery saw a commit marker: future commits must order after it.
    pub fn observe_recovered_csn(&mut self, csn: Csn) {
        if csn != LATEST_CSN {
            self.next_csn = self.next_csn.max(csn + 1);
        }
    }

    // ---- transactions ----

    /// Start a transaction whose reads are pinned at the current commit
    /// horizon, [`MvccState::last_csn`].
    pub fn begin_txn(&mut self) -> TxnId {
        let id = self.next_txn;
        self.next_txn += 1;
        self.active.insert(id, self.last_csn());
        id
    }

    /// The read view of active transaction `txn`: what was committed when
    /// it began, plus its own writes.
    pub fn view_of(&self, txn: TxnId) -> Option<ReadView> {
        let csn = *self.active.get(&txn)?;
        Some(ReadView {
            csn,
            txn: Some(txn),
        })
    }

    /// Is `txn` active (started, neither committed nor aborted)?
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }

    /// Number of open views, readers' and writers'.
    pub(crate) fn open_views(&self) -> usize {
        self.active.len()
    }

    /// Commit `txn`, assigning the next CSN.
    pub fn commit(&mut self, txn: TxnId) -> Csn {
        self.active.remove(&txn);
        let csn = self.allocate_csn();
        self.committed.insert(txn, csn);
        csn
    }

    /// Allocate a CSN for a non-transactional commit unit (DDL).
    pub fn allocate_csn(&mut self) -> Csn {
        let csn = self.next_csn;
        self.next_csn += 1;
        csn
    }

    /// Forget `txn` without a commit stamp (rollback, or a read-only
    /// commit that left no versions behind).
    pub fn forget(&mut self, txn: TxnId) {
        self.active.remove(&txn);
    }

    /// Commit CSN of `txn` (`Some(0)` for the frozen pseudo-txn).
    pub fn csn_of(&self, txn: TxnId) -> Option<Csn> {
        if txn == FROZEN_TXN {
            return Some(0);
        }
        self.committed.get(&txn).copied()
    }

    // ---- visibility ----

    /// Does `view` see the work of `txn`?
    fn sees(&self, view: &ReadView, txn: TxnId) -> bool {
        view.txn == Some(txn) || self.csn_of(txn).is_some_and(|c| c <= view.csn)
    }

    /// Is the row at (`table`, `rid`) visible to `view`? Rows without a
    /// version entry are frozen: visible to everyone.
    pub fn visible(&self, table: &str, rid: RowId, view: &ReadView) -> bool {
        self.visible_in(self.table_versions(table), rid, view)
    }

    /// The version map for `table` (None = every row frozen). Scans
    /// grab this once so the per-row check ([`MvccState::visible_in`]) is a
    /// map probe, not a double lookup.
    pub fn table_versions(&self, table: &str) -> Option<&BTreeMap<RowId, RowVersion>> {
        self.versions.get(table).filter(|m| !m.is_empty())
    }

    /// [`MvccState::visible`] against a version map already taken with
    /// [`MvccState::table_versions`].
    pub fn visible_in(
        &self,
        versions: Option<&BTreeMap<RowId, RowVersion>>,
        rid: RowId,
        view: &ReadView,
    ) -> bool {
        match versions.and_then(|m| m.get(&rid)) {
            None => true,
            Some(v) => self.sees(view, v.xmin) && !v.xmax.is_some_and(|x| self.sees(view, x)),
        }
    }

    /// Version stamps for one row, if it has any.
    pub fn version(&self, table: &str, rid: RowId) -> Option<RowVersion> {
        self.versions.get(table).and_then(|m| m.get(&rid)).copied()
    }

    // ---- write stamping (callers run conflict checks first) ----

    /// Record that `txn` created the row at (`table`, `rid`).
    pub fn note_insert(&mut self, table: &str, rid: RowId, txn: TxnId) {
        self.versions.entry(table.to_string()).or_default().insert(
            rid,
            RowVersion {
                xmin: txn,
                xmax: None,
            },
        );
    }

    /// Stamp `txn` as the deleter of the row at (`table`, `rid`).
    pub fn stamp_delete(&mut self, table: &str, rid: RowId, txn: TxnId) {
        self.versions
            .entry(table.to_string())
            .or_default()
            .entry(rid)
            .or_insert(RowVersion {
                xmin: FROZEN_TXN,
                xmax: None,
            })
            .xmax = Some(txn);
    }

    /// Undo a delete stamp (rollback). No-op if the entry is gone.
    pub fn clear_delete(&mut self, table: &str, rid: RowId, txn: TxnId) {
        if let Some(v) = self.versions.get_mut(table).and_then(|m| m.get_mut(&rid)) {
            if v.xmax == Some(txn) {
                v.xmax = None;
            }
        }
    }

    /// Drop the version entry for a rolled-back insert.
    pub fn drop_version(&mut self, table: &str, rid: RowId) {
        if let Some(m) = self.versions.get_mut(table) {
            m.remove(&rid);
        }
    }

    /// Forget all versions of a dropped table.
    pub fn drop_table(&mut self, table: &str) {
        self.versions.remove(table);
    }

    /// The vacuum horizon: the oldest CSN any open view can demand.
    pub fn horizon(&self) -> Csn {
        let oldest = self.active.values().min();
        oldest.copied().unwrap_or_else(|| self.last_csn())
    }

    /// Sweep the version map against `horizon`: return the dead rows to
    /// reclaim physically (the caller owns heap + indexes), freeze
    /// entries older than every open view, and prune the committed-txn
    /// registry. Entries stamped by still-active transactions are kept.
    pub fn sweep(&mut self, horizon: Csn) -> (Vec<(String, RowId)>, usize) {
        let mut dead = Vec::new();
        let mut frozen = 0usize;
        for (table, map) in &mut self.versions {
            map.retain(|rid, v| {
                let xmin_csn = if v.xmin == FROZEN_TXN {
                    Some(0)
                } else {
                    self.committed.get(&v.xmin).copied()
                };
                let xmax_csn = v.xmax.and_then(|x| {
                    if x == FROZEN_TXN {
                        Some(0)
                    } else {
                        self.committed.get(&x).copied()
                    }
                });
                if let Some(c) = xmax_csn {
                    if c <= horizon {
                        // Dead to every open view: reclaim.
                        dead.push((table.clone(), *rid));
                        return false;
                    }
                }
                if let Some(c) = xmin_csn {
                    if c <= horizon {
                        if v.xmax.is_none() {
                            // Live and visible to every open view: the
                            // entry is equivalent to no entry.
                            frozen += 1;
                            return false;
                        }
                        // Keep the delete stamp but freeze the creator.
                        v.xmin = FROZEN_TXN;
                    }
                }
                true
            });
        }
        self.versions.retain(|_, m| !m.is_empty());
        // Every surviving stamp at or below the horizon was rewritten to
        // FROZEN_TXN above, so commit records up to the horizon are
        // unreferenced.
        self.committed.retain(|_, c| *c > horizon);
        (dead, frozen)
    }

    /// Total non-frozen version entries (telemetry / tests).
    pub fn version_entries(&self) -> usize {
        self.versions.values().map(|m| m.len()).sum()
    }

    /// Whether any non-frozen version entries exist at all (vacuum is a
    /// no-op otherwise).
    pub fn has_versions(&self) -> bool {
        self.versions.values().any(|m| !m.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_rows_visible_to_everyone() {
        let s = MvccState::new();
        let latest = ReadView::latest();
        let pinned = ReadView { csn: 0, txn: None };
        assert!(s.visible("T", RowId(1), &latest));
        assert!(s.visible("T", RowId(1), &pinned));
    }

    #[test]
    fn uncommitted_insert_visible_only_to_owner() {
        let mut s = MvccState::new();
        let t = s.begin_txn();
        s.note_insert("T", RowId(1), t);
        let own = s.view_of(t).unwrap();
        assert!(s.visible("T", RowId(1), &own));
        assert!(!s.visible("T", RowId(1), &ReadView::latest()));
        let csn = s.commit(t);
        assert!(s.visible("T", RowId(1), &ReadView::latest()));
        // A snapshot pinned before the commit still cannot see it.
        let before = ReadView {
            csn: csn - 1,
            txn: None,
        };
        assert!(!s.visible("T", RowId(1), &before));
    }

    #[test]
    fn delete_stamp_hides_row_after_commit_only() {
        let mut s = MvccState::new();
        let t = s.begin_txn();
        s.stamp_delete("T", RowId(7), t);
        let own = s.view_of(t).unwrap();
        assert!(!s.visible("T", RowId(7), &own), "own delete hides the row");
        assert!(
            s.visible("T", RowId(7), &ReadView::latest()),
            "others still see it"
        );
        let csn = s.commit(t);
        assert!(!s.visible("T", RowId(7), &ReadView::latest()));
        let before = ReadView {
            csn: csn - 1,
            txn: None,
        };
        assert!(s.visible("T", RowId(7), &before), "old snapshots keep it");
    }

    #[test]
    fn sweep_reclaims_dead_and_freezes_live() {
        let mut s = MvccState::new();
        let t1 = s.begin_txn();
        s.note_insert("T", RowId(1), t1);
        s.stamp_delete("T", RowId(2), t1);
        s.commit(t1);
        let (dead, frozen) = s.sweep(s.horizon());
        assert_eq!(dead, vec![("T".to_string(), RowId(2))]);
        assert_eq!(frozen, 1);
        assert_eq!(s.version_entries(), 0);
        assert!(s.visible("T", RowId(1), &ReadView::latest()));
    }

    #[test]
    fn sweep_respects_snapshot_horizon() {
        let mut s = MvccState::new();
        let snap = s.begin_txn(); // a reader, pinned at CSN 0
        let t1 = s.begin_txn();
        s.stamp_delete("T", RowId(2), t1);
        s.commit(t1);
        let (dead, _) = s.sweep(s.horizon());
        assert!(dead.is_empty(), "snapshot still reads the deleted row");
        let view = s.view_of(snap).unwrap();
        assert_eq!(view.csn, 0);
        assert!(s.visible("T", RowId(2), &view));
        s.forget(snap);
        let (dead, _) = s.sweep(s.horizon());
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn frozen_xmin_survives_commit_pruning() {
        // Row created by t1 (committed), delete-stamped by a still-active
        // t2; sweep must keep the row visible to latest even after the
        // committed map is pruned — the xmin freezes to FROZEN_TXN.
        let mut s = MvccState::new();
        let t1 = s.begin_txn();
        s.note_insert("T", RowId(3), t1);
        s.commit(t1);
        let t2 = s.begin_txn();
        s.stamp_delete("T", RowId(3), t2);
        let (dead, _) = s.sweep(s.horizon());
        assert!(dead.is_empty());
        assert!(
            s.visible("T", RowId(3), &ReadView::latest()),
            "uncommitted delete must not hide the row"
        );
        assert_eq!(s.version("T", RowId(3)).unwrap().xmin, FROZEN_TXN);
    }

    #[test]
    fn horizon_tracks_oldest_reader() {
        let mut s = MvccState::new();
        let t = s.begin_txn();
        s.note_insert("T", RowId(1), t);
        s.commit(t); // csn 1
        let s1 = s.begin_txn(); // a reader, pinned 1
        let t2 = s.begin_txn();
        s.note_insert("T", RowId(2), t2);
        s.commit(t2); // csn 2
        let s2 = s.begin_txn(); // a reader, pinned 2
        assert_eq!(s.horizon(), 1);
        s.forget(s1);
        assert_eq!(s.horizon(), 2);
        let pinned = s.begin_txn(); // pinned 2
        let t3 = s.begin_txn();
        s.commit(t3); // csn 3
        s.forget(s2);
        assert_eq!(s.horizon(), 2, "pinned-view txn holds the horizon");
        s.forget(pinned);
        assert_eq!(s.horizon(), 3);
    }
}
