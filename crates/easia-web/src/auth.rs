//! Users, sessions, and the role policy from the paper's demo slide:
//! guest users "cannot download datasets, cannot upload post-processing
//! codes, [and] are limited in the types of operations they can run".

use easia_crypto::hmac::hmac_sha256;
use easia_crypto::sha256::{hex, sha256};
use std::collections::BTreeMap;

/// User roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Full control incl. user management.
    Admin,
    /// Registered consortium member.
    Researcher,
    /// The `guest/guest` demo account.
    Guest,
}

impl Role {
    /// May download archived datasets (follow DATALINK tokens).
    pub fn can_download(&self) -> bool {
        !matches!(self, Role::Guest)
    }

    /// May upload post-processing code for server-side execution.
    pub fn can_upload_code(&self) -> bool {
        !matches!(self, Role::Guest)
    }

    /// May run operations not flagged `guest.access="true"`.
    pub fn can_run_restricted_ops(&self) -> bool {
        !matches!(self, Role::Guest)
    }

    /// May manage user accounts.
    pub fn can_manage_users(&self) -> bool {
        matches!(self, Role::Admin)
    }
}

/// A registered user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    /// Login name.
    pub username: String,
    /// Hex SHA-256 of `username:password` (salted by the username).
    pub password_hash: String,
    /// Role.
    pub role: Role,
}

fn hash_password(username: &str, password: &str) -> String {
    hex(&sha256(format!("{username}:{password}").as_bytes()))
}

/// The user registry (the paper's "web-based user management").
#[derive(Debug, Default)]
pub struct UserStore {
    users: BTreeMap<String, User>,
}

impl UserStore {
    /// Empty store.
    pub fn new() -> Self {
        UserStore::default()
    }

    /// Store preloaded with the demo's `guest/guest` account and an
    /// `admin` account.
    pub fn with_defaults() -> Self {
        let mut s = UserStore::new();
        s.add_user("guest", "guest", Role::Guest);
        s.add_user("admin", "hpcc-admin", Role::Admin);
        s
    }

    /// Create or replace a user.
    pub fn add_user(&mut self, username: &str, password: &str, role: Role) {
        self.users.insert(
            username.to_string(),
            User {
                username: username.to_string(),
                password_hash: hash_password(username, password),
                role,
            },
        );
    }

    /// Remove a user; returns true if present.
    pub fn remove_user(&mut self, username: &str) -> bool {
        self.users.remove(username).is_some()
    }

    /// Verify credentials; returns the user on success.
    pub fn authenticate(&self, username: &str, password: &str) -> Option<&User> {
        let u = self.users.get(username)?;
        if u.password_hash == hash_password(username, password) {
            Some(u)
        } else {
            None
        }
    }

    /// Look up a user by name.
    pub fn get(&self, username: &str) -> Option<&User> {
        self.users.get(username)
    }

    /// All users, sorted by name.
    pub fn list(&self) -> impl Iterator<Item = &User> {
        self.users.values()
    }
}

/// Active sessions: opaque token → (username, role, created_at).
///
/// Tokens are HMACs of a per-store key and a counter, so they are
/// unguessable without being random (keeping the archive fully
/// deterministic for experiments).
#[derive(Debug)]
pub struct SessionStore {
    key: Vec<u8>,
    counter: u64,
    sessions: BTreeMap<String, (String, Role, u64)>,
    /// Session lifetime in seconds of archive time.
    ttl_secs: u64,
}

impl SessionStore {
    /// New store with the given token key and session lifetime.
    pub fn new(key: &[u8], ttl_secs: u64) -> Self {
        SessionStore {
            key: key.to_vec(),
            counter: 0,
            sessions: BTreeMap::new(),
            ttl_secs,
        }
    }

    /// Open a session for a user at archive time `now`; returns the token.
    /// Every session whose lifetime has passed at `now` is forgotten.
    pub fn open(&mut self, user: &User, now: u64) -> String {
        let ttl = self.ttl_secs;
        self.sessions
            .retain(|_, (_, _, created)| live(*created, now, ttl));
        self.counter += 1;
        let token = hex(&hmac_sha256(
            &self.key,
            format!("session:{}:{}", user.username, self.counter).as_bytes(),
        ))[..32]
            .to_string();
        self.sessions
            .insert(token.clone(), (user.username.clone(), user.role, now));
        token
    }

    /// Resolve a session token at archive time `now`.
    pub fn resolve(&self, token: &str, now: u64) -> Option<(&str, Role)> {
        let (user, role, created) = self.sessions.get(token)?;
        if !live(*created, now, self.ttl_secs) {
            return None;
        }
        Some((user.as_str(), *role))
    }

    /// Close a session.
    pub fn close(&mut self, token: &str) -> bool {
        self.sessions.remove(token).is_some()
    }

    /// Number of sessions kept: every live one, and any that expired
    /// since the last [`open`](Self::open).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

/// A session opened at `created` is live at `now` for `ttl` seconds.
fn live(created: u64, now: u64, ttl: u64) -> bool {
    now.saturating_sub(created) <= ttl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_policy_matches_demo_slide() {
        let g = Role::Guest;
        assert!(!g.can_download());
        assert!(!g.can_upload_code());
        assert!(!g.can_run_restricted_ops());
        let r = Role::Researcher;
        assert!(r.can_download() && r.can_upload_code() && r.can_run_restricted_ops());
        assert!(!r.can_manage_users());
        assert!(Role::Admin.can_manage_users());
    }

    #[test]
    fn default_accounts() {
        let s = UserStore::with_defaults();
        let guest = s.authenticate("guest", "guest").unwrap();
        assert_eq!(guest.role, Role::Guest);
        assert!(s.authenticate("guest", "wrong").is_none());
        assert!(s.authenticate("nobody", "x").is_none());
    }

    #[test]
    fn password_hashes_are_salted_by_username() {
        let mut s = UserStore::new();
        s.add_user("a", "pw", Role::Researcher);
        s.add_user("b", "pw", Role::Researcher);
        assert_ne!(
            s.get("a").unwrap().password_hash,
            s.get("b").unwrap().password_hash
        );
    }

    #[test]
    fn user_management() {
        let mut s = UserStore::with_defaults();
        s.add_user("mark", "secret", Role::Researcher);
        assert_eq!(s.list().count(), 3);
        assert!(s.remove_user("mark"));
        assert!(!s.remove_user("mark"));
    }

    #[test]
    fn sessions_lifecycle() {
        let users = UserStore::with_defaults();
        let mut sess = SessionStore::new(b"key", 3600);
        let u = users.get("admin").unwrap();
        let t = sess.open(u, 100);
        assert_eq!(sess.resolve(&t, 200), Some(("admin", Role::Admin)));
        // Expiry.
        assert_eq!(sess.resolve(&t, 100 + 3601), None);
        // Close.
        assert!(sess.close(&t));
        assert_eq!(sess.resolve(&t, 200), None);
    }

    #[test]
    fn a_login_forgets_expired_sessions() {
        let users = UserStore::with_defaults();
        let mut sess = SessionStore::new(b"key", 3600);
        let u = users.get("guest").unwrap();
        let mut last = String::new();
        for i in 0..1_000 {
            last = sess.open(u, i * 3601);
        }
        assert_eq!(sess.len(), 1, "only the latest session is kept");
        // At the last second of its lifetime it is live, and the next
        // login keeps it.
        let now = 999 * 3601 + 3600;
        let admin = sess.open(users.get("admin").unwrap(), now);
        assert_eq!(sess.len(), 2);
        assert_eq!(sess.resolve(&last, now), Some(("guest", Role::Guest)));
        assert_eq!(sess.resolve(&admin, now), Some(("admin", Role::Admin)));
    }

    #[test]
    fn tokens_unique() {
        let users = UserStore::with_defaults();
        let mut sess = SessionStore::new(b"key", 3600);
        let u = users.get("guest").unwrap();
        let a = sess.open(u, 0);
        let b = sess.open(u, 0);
        assert_ne!(a, b);
    }
}
