//! The one cache: a bounded store of values stamped with the version
//! they were computed at.
//!
//! Each use keys an entry on the request that computed it and versions
//! it by what would make it wrong: a prefetched screen on `(sql,
//! params)` under the federation-wide
//! [write fingerprint](crate::Federation::write_fingerprint); a replica
//! of a small foreign partition on `(site, table)` under the site's
//! write counter as last seen in an `EMB1` batch header; an operation
//! result on `(dataset, operation, params)` under one constant version
//! (a DATALINK under INTEGRITY ALL cannot change behind its link).
//!
//! A lookup under a version is a hit, stale (the entry is dropped) or a
//! miss. The store knows nothing about age: a hit carries the simulated
//! instant it was stored, and the caller decides what that means. One
//! eviction rule: least recently used, by entry count. `put` and `get`
//! are uses, `take` removes, `peek` neither uses nor drops; so a store
//! only ever `put`, `peek`ed and `take`n evicts in insertion order.

use std::collections::BTreeMap;

/// A bounded, versioned store.
pub struct Cache<K, V> {
    entries: BTreeMap<K, Entry<V>>,
    capacity: usize,
    /// Use counter: an entry's `used` stamp orders the LRU.
    clock: u64,
    stats: CacheStats,
}

/// A stored value and its stamps.
#[derive(Debug)]
pub struct Entry<V> {
    /// What was cached.
    pub value: V,
    /// Simulated instant the value was stored.
    pub stored_at: f64,
    version: u64,
    used: u64,
}

/// What a lookup found.
#[derive(Debug, PartialEq)]
pub enum Lookup<T> {
    /// An entry stored under the version asked for.
    Hit(T),
    /// An entry stored under another version. `get` and `take` drop it.
    Stale,
    /// No entry under the key.
    Miss,
}

impl<T> Lookup<T> {
    /// Map a hit, keeping `Stale` and `Miss`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Lookup<U> {
        match self {
            Lookup::Hit(t) => Lookup::Hit(f(t)),
            Lookup::Stale => Lookup::Stale,
            Lookup::Miss => Lookup::Miss,
        }
    }
}

/// Lookup counts since the store was made (`get` and `take`; a stale
/// entry counts as a miss).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry at their version.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
}

impl<K: Ord, V> Cache<K, V> {
    /// An empty store holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Cache {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of stored entries, stale ones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup counts so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Store `value` under `key`, computed at `version`, at simulated
    /// instant `now`. It replaces any entry under `key`, and the least
    /// recently used entry goes when the store is over capacity.
    pub fn put(&mut self, key: K, version: u64, now: f64, value: V) {
        self.clock += 1;
        let entry = Entry {
            value,
            stored_at: now,
            version,
            used: self.clock,
        };
        self.entries.insert(key, entry);
        if self.entries.len() > self.capacity {
            let oldest = self.entries.values().map(|e| e.used).min();
            self.entries.retain(|_, e| Some(e.used) != oldest);
        }
    }

    /// The entry under `key` at `version`, marked as used.
    pub fn get(&mut self, key: &K, version: u64) -> Lookup<&Entry<V>> {
        self.check(key, version).map(|()| {
            self.clock += 1;
            let e = self.entries.get_mut(key).expect("checked");
            e.used = self.clock;
            &*e
        })
    }

    /// Remove and return the entry under `key` at `version`.
    pub fn take(&mut self, key: &K, version: u64) -> Lookup<Entry<V>> {
        let found = self.check(key, version);
        found.map(|()| self.entries.remove(key).expect("checked"))
    }

    /// What [`Cache::get`] would find, without using, dropping or
    /// counting anything.
    pub fn peek(&self, key: &K, version: u64) -> Lookup<&Entry<V>> {
        match self.entries.get(key) {
            Some(e) if e.version == version => Lookup::Hit(e),
            Some(_) => Lookup::Stale,
            None => Lookup::Miss,
        }
    }

    /// Keep only the entries `keep` accepts; returns how many went.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, e| keep(k, &e.value));
        before - self.entries.len()
    }

    /// Count a lookup and drop what it finds stale.
    fn check(&mut self, key: &K, version: u64) -> Lookup<()> {
        let found = self.peek(key, version).map(|_| ());
        match found {
            Lookup::Hit(()) => self.stats.hits += 1,
            Lookup::Stale => {
                self.stats.misses += 1;
                self.entries.remove(key);
            }
            Lookup::Miss => self.stats.misses += 1,
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_db::value::encode_row;
    use easia_db::Value;
    use std::collections::BTreeMap;

    /// A prefetch key: the statement and its parameters as one record.
    fn screen(sql: &str, params: &[Value]) -> (String, Vec<u8>) {
        let mut record = Vec::new();
        encode_row(params, &mut record);
        (sql.to_string(), record)
    }

    fn hit<V: Clone>(found: Lookup<&Entry<V>>) -> Option<V> {
        match found {
            Lookup::Hit(e) => Some(e.value.clone()),
            _ => None,
        }
    }

    // ---- prefetch: (sql, params) under the write fingerprint ----

    #[test]
    fn a_take_consumes_the_entry() {
        let mut c = Cache::new(16);
        c.put(screen("Q", &[]), 1, 0.0, 7);
        assert!(matches!(c.peek(&screen("Q", &[]), 1), Lookup::Hit(_)));
        assert_eq!(
            c.take(&screen("Q", &[]), 1).map(|e| e.value),
            Lookup::Hit(7)
        );
        assert_eq!(c.take(&screen("Q", &[]), 1).map(|e| e.value), Lookup::Miss);
    }

    #[test]
    fn another_version_is_stale_and_drops_the_entry() {
        let mut c = Cache::new(16);
        let q = screen("Q", &[Value::Int(1)]);
        c.put(q.clone(), 1, 0.0, 7);
        assert_eq!(
            c.peek(&q, 2).map(|_| ()),
            Lookup::Stale,
            "peek drops nothing"
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.take(&q, 2).map(|e| e.value), Lookup::Stale);
        assert_eq!(c.take(&q, 1).map(|e| e.value), Lookup::Miss);
    }

    #[test]
    fn params_distinguish_entries_and_capacity_evicts_the_oldest() {
        let mut c = Cache::new(2);
        for n in 1..=3 {
            c.put(screen("Q", &[Value::Int(n)]), 1, 0.0, n);
        }
        assert_eq!(c.len(), 2);
        let take = |c: &mut Cache<_, _>, n| c.take(&screen("Q", &[Value::Int(n)]), 1);
        assert_eq!(take(&mut c, 1).map(|e| e.value), Lookup::Miss);
        assert_eq!(take(&mut c, 3).map(|e| e.value), Lookup::Hit(3));
    }

    #[test]
    fn a_put_replaces_the_entry_under_its_key() {
        let mut c = Cache::new(4);
        c.put(screen("Q", &[]), 1, 0.0, 1);
        c.put(screen("Q", &[]), 2, 0.0, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.take(&screen("Q", &[]), 2).map(|e| e.value),
            Lookup::Hit(2)
        );
    }

    // ---- replicas: (site, table) under the site's write counter ----

    fn copy(site: &str, table: &str) -> (String, String) {
        (site.to_string(), table.to_string())
    }

    #[test]
    fn the_ttl_gates_a_fresh_serve_but_not_a_degraded_one() {
        let (ttl, counter) = (100.0, 7);
        let mut c = Cache::new(64);
        c.put(copy("cam", "SIM"), counter, 50.0, vec![1, 2, 3]);
        // The gather's rule: a hit no older than the TTL.
        let fresh = |c: &mut Cache<_, Vec<i32>>, now: f64| match c.get(&copy("cam", "SIM"), 7) {
            Lookup::Hit(e) => now - e.stored_at <= ttl,
            _ => false,
        };
        assert!(fresh(&mut c, 120.0), "within the TTL");
        assert!(!fresh(&mut c, 151.0), "expired");
        // The ladder's rule under Degraded: a hit of any age.
        assert_eq!(
            hit(c.get(&copy("cam", "SIM"), counter)),
            Some(vec![1, 2, 3])
        );
    }

    #[test]
    fn a_moved_counter_drops_only_that_sites_copies() {
        let mut c = Cache::new(64);
        c.put(copy("cam", "SIM"), 7, 0.0, 3);
        c.put(copy("cam", "FILES"), 7, 0.0, 1);
        c.put(copy("edin", "SIM"), 2, 0.0, 5);
        // Each site's copies are looked up under that site's counter.
        assert_eq!(hit(c.get(&copy("cam", "SIM"), 7)), Some(3));
        // cam wrote: both its copies are stale, edin's stays.
        assert_eq!(c.get(&copy("cam", "SIM"), 8).map(|_| ()), Lookup::Stale);
        assert_eq!(c.get(&copy("cam", "FILES"), 8).map(|_| ()), Lookup::Stale);
        assert_eq!(c.get(&copy("cam", "SIM"), 8).map(|_| ()), Lookup::Miss);
        assert_eq!(hit(c.get(&copy("edin", "SIM"), 2)), Some(5));
    }

    // ---- operation results: (dataset, operation, params) ----

    type OpKey = (String, String, BTreeMap<String, String>);

    fn op(dataset: &str, operation: &str, params: &[(&str, &str)]) -> OpKey {
        let params = params.iter().map(|(k, v)| (k.to_string(), v.to_string()));
        (dataset.into(), operation.into(), params.collect())
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = Cache::new(10);
        let k = op("http://fs1/d", "GetImage", &[("slice", "x0")]);
        assert_eq!(hit(c.get(&k, 0)), None);
        c.put(k.clone(), 0, 0.0, "img");
        assert_eq!(hit(c.get(&k, 0)), Some("img"));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn params_distinguish_results() {
        let mut c = Cache::new(10);
        c.put(op("d", "Op", &[("slice", "x0")]), 0, 0.0, "a");
        c.put(op("d", "Op", &[("slice", "x1")]), 0, 0.0, "b");
        assert_eq!(hit(c.get(&op("d", "Op", &[("slice", "x0")]), 0)), Some("a"));
        assert_eq!(hit(c.get(&op("d", "Op", &[("slice", "x1")]), 0)), Some("b"));
        assert_eq!(hit(c.get(&op("d", "Op", &[]), 0)), None);
    }

    #[test]
    fn a_get_saves_its_entry_from_eviction() {
        let mut c = Cache::new(2);
        c.put(op("d", "A", &[]), 0, 0.0, "a");
        c.put(op("d", "B", &[]), 0, 0.0, "b");
        // Touch A so B is the least recently used.
        assert_eq!(hit(c.get(&op("d", "A", &[]), 0)), Some("a"));
        c.put(op("d", "C", &[]), 0, 0.0, "c");
        assert_eq!(c.len(), 2);
        assert_eq!(hit(c.get(&op("d", "B", &[]), 0)), None, "B evicted");
        assert_eq!(hit(c.get(&op("d", "A", &[]), 0)), Some("a"));
    }

    #[test]
    fn dataset_invalidation_compares_the_dataset_exactly() {
        let mut c = Cache::new(10);
        c.put(op("http://fs1/d/a.edf", "A", &[]), 0, 0.0, "a");
        c.put(op("http://fs1/d/a.edf", "B", &[]), 0, 0.0, "b");
        c.put(op("http://fs1/d/a.edf2", "A", &[]), 0, 0.0, "c");
        let gone = c.retain(|(dataset, ..), _| dataset != "http://fs1/d/a.edf");
        assert_eq!(gone, 2);
        assert_eq!(hit(c.get(&op("http://fs1/d/a.edf", "A", &[]), 0)), None);
        assert_eq!(
            hit(c.get(&op("http://fs1/d/a.edf2", "A", &[]), 0)),
            Some("c")
        );
    }
}
