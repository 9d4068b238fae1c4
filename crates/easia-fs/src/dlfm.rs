//! The DataLinker File Manager: per-host daemon state implementing the
//! SQL/MED side of link control.
//!
//! The DLFM tracks which files are under database control and with what
//! options. Link and unlink requests arrive during DML execution
//! ("prepare"); the database's commit/rollback decision resolves them —
//! SQL/MED *transaction consistency*. While a file is linked with
//! `INTEGRITY ALL` it cannot be renamed or deleted through the file
//! server; with `READ PERMISSION DB` it can only be read with a valid
//! DB-issued token; with `RECOVERY YES` the DLFM keeps a backup copy
//! taken at link time for coordinated point-in-time recovery.

use std::collections::BTreeMap;

/// Per-link option set, the DLFM-relevant subset of the column's
/// DATALINK options (carried over from DDL by the datalink layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkOptions {
    /// Linked files cannot be renamed/deleted (INTEGRITY ALL).
    pub integrity_all: bool,
    /// Reads require a DB token (READ PERMISSION DB).
    pub read_permission_db: bool,
    /// Writes are refused while linked (WRITE PERMISSION BLOCKED).
    pub write_permission_blocked: bool,
    /// Keep a backup copy at link time (RECOVERY YES).
    pub recovery: bool,
    /// On unlink: true = restore to owner (file kept), false = delete.
    pub on_unlink_restore: bool,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            integrity_all: true,
            read_permission_db: true,
            write_permission_blocked: true,
            recovery: true,
            on_unlink_restore: true,
        }
    }
}

/// State of a path known to the DLFM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkState {
    /// Link requested by an in-flight transaction.
    LinkPending {
        /// Options that will govern the link.
        options: LinkOptions,
        /// Owning `(table, column)` in the database.
        owner: (String, String),
    },
    /// Under database control.
    Linked {
        /// Options governing the link.
        options: LinkOptions,
        /// Owning `(table, column)`.
        owner: (String, String),
    },
    /// Unlink requested by an in-flight transaction (still enforced as
    /// linked until commit).
    UnlinkPending {
        /// Options of the existing link.
        options: LinkOptions,
        /// Owning `(table, column)`.
        owner: (String, String),
    },
}

impl LinkState {
    /// The options currently in force (pending links already enforce).
    pub fn options(&self) -> &LinkOptions {
        match self {
            LinkState::LinkPending { options, .. }
            | LinkState::Linked { options, .. }
            | LinkState::UnlinkPending { options, .. } => options,
        }
    }
}

/// Outcome the server must apply to the store when a commit resolves an
/// unlink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnlinkAction {
    /// Keep the file (ON UNLINK RESTORE).
    Keep(String),
    /// Delete the file (ON UNLINK DELETE).
    Delete(String),
}

/// The daemon state.
#[derive(Debug, Default)]
pub struct Dlfm {
    links: BTreeMap<String, LinkState>,
    /// Paths whose backup copy should be captured when the pending link
    /// commits (RECOVERY YES).
    stats_links: u64,
    stats_unlinks: u64,
}

impl Dlfm {
    /// Fresh daemon.
    pub fn new() -> Self {
        Dlfm::default()
    }

    /// Current state of a path, if any.
    pub fn state(&self, path: &str) -> Option<&LinkState> {
        self.links.get(path)
    }

    /// True when `path` is under (possibly pending) link control.
    pub fn is_controlled(&self, path: &str) -> bool {
        self.links.contains_key(path)
    }

    /// Record a pending link. Fails if the path is already controlled
    /// (a file may be linked by at most one DATALINK value).
    pub fn prepare_link(
        &mut self,
        path: &str,
        options: LinkOptions,
        owner: (String, String),
    ) -> Result<(), String> {
        match self.links.get(path) {
            None => {
                self.links
                    .insert(path.to_string(), LinkState::LinkPending { options, owner });
                Ok(())
            }
            Some(LinkState::UnlinkPending { .. }) => Err(format!(
                "{path}: unlink pending in the same transaction; relink after commit"
            )),
            Some(_) => Err(format!("{path}: already linked to the database")),
        }
    }

    /// Record a pending unlink of a linked file.
    pub fn prepare_unlink(&mut self, path: &str) -> Result<(), String> {
        match self.links.get(path).cloned() {
            Some(LinkState::Linked { options, owner }) => {
                self.links.insert(
                    path.to_string(),
                    LinkState::UnlinkPending { options, owner },
                );
                Ok(())
            }
            Some(LinkState::LinkPending { .. }) => {
                // Link and unlink in the same transaction cancel out.
                self.links.remove(path);
                Ok(())
            }
            Some(LinkState::UnlinkPending { .. }) => Err(format!("{path}: unlink already pending")),
            None => Err(format!("{path}: not linked")),
        }
    }

    /// Commit all pending operations. Returns `(newly_linked_recovery,
    /// unlink_actions)`: paths whose backup should be captured, and store
    /// actions for resolved unlinks. One in-place pass in path order:
    /// settled links are stepped over, never copied — this runs on every
    /// database commit, with every file ever linked in the map.
    pub fn commit(&mut self) -> (Vec<String>, Vec<UnlinkAction>) {
        let mut to_backup = Vec::new();
        let mut actions = Vec::new();
        let (mut linked, mut unlinked) = (0, 0);
        self.links.retain(|path, state| match state {
            LinkState::Linked { .. } => true,
            LinkState::LinkPending { options, owner } => {
                if options.recovery {
                    to_backup.push(path.clone());
                }
                linked += 1;
                let (options, owner) = (options.clone(), std::mem::take(owner));
                *state = LinkState::Linked { options, owner };
                true
            }
            LinkState::UnlinkPending { options, .. } => {
                unlinked += 1;
                actions.push(if options.on_unlink_restore {
                    UnlinkAction::Keep(path.clone())
                } else {
                    UnlinkAction::Delete(path.clone())
                });
                false
            }
        });
        self.stats_links += linked;
        self.stats_unlinks += unlinked;
        (to_backup, actions)
    }

    /// Roll back all pending operations: pending links vanish, pending
    /// unlinks revert to `Linked`.
    pub fn rollback(&mut self) {
        self.links.retain(|_, state| match state {
            LinkState::Linked { .. } => true,
            LinkState::LinkPending { .. } => false,
            LinkState::UnlinkPending { options, owner } => {
                let (options, owner) = (options.clone(), std::mem::take(owner));
                *state = LinkState::Linked { options, owner };
                true
            }
        });
    }

    /// Drop volatile pending state after a crash: pending links vanish
    /// (their transaction can no longer resolve them here) and pending
    /// unlinks revert to the durable `Linked` state. The committed link
    /// set — the DLFM's durable metadata — survives.
    pub fn drop_pending(&mut self) {
        self.rollback();
    }

    /// Recovery-mode link: establish `path` as `Linked` directly,
    /// bypassing the two-phase protocol. Used by the datalink manager's
    /// reconcile pass when replaying the database catalog after a crash.
    pub fn force_link(&mut self, path: &str, options: LinkOptions, owner: (String, String)) {
        self.links
            .insert(path.to_string(), LinkState::Linked { options, owner });
    }

    /// Recovery-mode unlink: remove `path` from control directly,
    /// returning its former state. The file itself is kept — orphan
    /// cleanup never destroys user data.
    pub fn force_unlink(&mut self, path: &str) -> Option<LinkState> {
        self.links.remove(path)
    }

    /// Lifetime counters `(links, unlinks)` for monitoring.
    pub fn stats(&self) -> (u64, u64) {
        (self.stats_links, self.stats_unlinks)
    }

    /// All controlled paths with their states (for admin UIs / tests).
    pub fn controlled_paths(&self) -> impl Iterator<Item = (&String, &LinkState)> {
        self.links.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner() -> (String, String) {
        ("RESULT_FILE".into(), "DOWNLOAD_RESULT".into())
    }

    #[test]
    fn link_commit_cycle() {
        let mut d = Dlfm::new();
        d.prepare_link("/f", LinkOptions::default(), owner())
            .unwrap();
        assert!(matches!(d.state("/f"), Some(LinkState::LinkPending { .. })));
        let (backup, actions) = d.commit();
        assert_eq!(backup, vec!["/f"]);
        assert!(actions.is_empty());
        assert!(matches!(d.state("/f"), Some(LinkState::Linked { .. })));
        assert_eq!(d.stats(), (1, 0));
    }

    #[test]
    fn link_rollback_cancels() {
        let mut d = Dlfm::new();
        d.prepare_link("/f", LinkOptions::default(), owner())
            .unwrap();
        d.rollback();
        assert!(d.state("/f").is_none());
        assert_eq!(d.stats(), (0, 0));
    }

    #[test]
    fn double_link_rejected() {
        let mut d = Dlfm::new();
        d.prepare_link("/f", LinkOptions::default(), owner())
            .unwrap();
        assert!(d
            .prepare_link("/f", LinkOptions::default(), owner())
            .is_err());
        d.commit();
        assert!(d
            .prepare_link("/f", LinkOptions::default(), owner())
            .is_err());
    }

    #[test]
    fn unlink_restore_vs_delete() {
        let mut d = Dlfm::new();
        let keep = LinkOptions {
            on_unlink_restore: true,
            ..LinkOptions::default()
        };
        let del = LinkOptions {
            on_unlink_restore: false,
            ..LinkOptions::default()
        };
        d.prepare_link("/keep", keep, owner()).unwrap();
        d.prepare_link("/del", del, owner()).unwrap();
        d.commit();
        d.prepare_unlink("/keep").unwrap();
        d.prepare_unlink("/del").unwrap();
        let (_, actions) = d.commit();
        assert!(actions.contains(&UnlinkAction::Keep("/keep".into())));
        assert!(actions.contains(&UnlinkAction::Delete("/del".into())));
        assert!(d.state("/keep").is_none());
        assert_eq!(d.stats(), (2, 2));
    }

    #[test]
    fn unlink_rollback_restores_link() {
        let mut d = Dlfm::new();
        d.prepare_link("/f", LinkOptions::default(), owner())
            .unwrap();
        d.commit();
        d.prepare_unlink("/f").unwrap();
        assert!(matches!(
            d.state("/f"),
            Some(LinkState::UnlinkPending { .. })
        ));
        d.rollback();
        assert!(matches!(d.state("/f"), Some(LinkState::Linked { .. })));
    }

    #[test]
    fn commit_resolves_pending_in_path_order_and_leaves_settled_links_alone() {
        let mut d = Dlfm::new();
        let settled = ("CODE_FILE".to_string(), "DOWNLOAD_CODE_FILE".to_string());
        d.prepare_link("/m", LinkOptions::default(), settled.clone())
            .unwrap();
        d.commit();
        d.prepare_link("/z", LinkOptions::default(), owner())
            .unwrap();
        d.prepare_link("/a", LinkOptions::default(), owner())
            .unwrap();
        d.prepare_unlink("/m").unwrap();
        d.rollback(); // "/a", "/z" vanish; "/m" is Linked again, owner intact
        let linked = |o: (String, String)| LinkState::Linked {
            options: LinkOptions::default(),
            owner: o,
        };
        assert_eq!(d.controlled_paths().count(), 1);
        assert_eq!(d.state("/m"), Some(&linked(settled.clone())));
        d.prepare_link("/z", LinkOptions::default(), owner())
            .unwrap();
        d.prepare_link("/a", LinkOptions::default(), owner())
            .unwrap();
        let (backup, actions) = d.commit();
        assert_eq!(backup, vec!["/a", "/z"]);
        assert!(actions.is_empty());
        assert_eq!(d.state("/a"), Some(&linked(owner())));
        assert_eq!(d.state("/m"), Some(&linked(settled)));
        assert_eq!(d.stats(), (3, 0));
    }

    #[test]
    fn link_then_unlink_same_txn_cancels() {
        let mut d = Dlfm::new();
        d.prepare_link("/f", LinkOptions::default(), owner())
            .unwrap();
        d.prepare_unlink("/f").unwrap();
        assert!(d.state("/f").is_none());
        let (backup, actions) = d.commit();
        assert!(backup.is_empty() && actions.is_empty());
    }

    #[test]
    fn unlink_of_unlinked_rejected() {
        let mut d = Dlfm::new();
        assert!(d.prepare_unlink("/f").is_err());
    }

    #[test]
    fn no_backup_without_recovery() {
        let mut d = Dlfm::new();
        let opts = LinkOptions {
            recovery: false,
            ..LinkOptions::default()
        };
        d.prepare_link("/f", opts, owner()).unwrap();
        let (backup, _) = d.commit();
        assert!(backup.is_empty());
    }
}
