//! An in-memory B+tree mapping composite keys to [`RowId`]s.
//!
//! A key is the order key of its cells ([`order_key`]): bytes whose
//! `memcmp` is [`Value::total_cmp`] cell by cell, a key before every
//! longer key it leads, so the tree compares keys as slices, a bulk build
//! sorts them as bytes, and the keys under a prefix are those that start
//! with it. Duplicate keys are allowed (secondary indexes); each leaf
//! entry owns its key and its row ids, a lone one inline. Unique
//! enforcement is the caller's job. Every operation takes its key as
//! values, or as an order key (the `_key` forms); [`BPlusTree::scan_from`]
//! lends each key as a [`KeyRef`].
//!
//! The tree uses a conventional split-on-overflow insertion and
//! borrow/merge-free deletion (leaves may underflow; with the archive's
//! append-mostly workload this is a deliberate simplification — deletes
//! only shrink entry lists, and empty entries are removed from leaves).
//! A whole run of keys is indexed bottom-up instead
//! ([`BPlusTree::from_run`], the keys in order; [`BPlusTree::from_pairs`]
//! sorts them first): full nodes level by level. The node *shapes* differ
//! from what the same pairs inserted one by one would leave; every read
//! answers the same.

use crate::storage::RowId;
use crate::value::{order_key, order_key_cell, order_key_values, Value};

/// Maximum entries per node before a split.
const ORDER: usize = 32;

/// A key as a node owns it: an order key.
type Key = Box<[u8]>;

/// A key as the tree files it, its order key, lent.
#[derive(Debug, Clone, Copy)]
pub struct KeyRef<'a>(pub(crate) &'a [u8]);

impl KeyRef<'_> {
    /// The key's cells, each as a value [`Value::total_cmp`] finds equal
    /// to the one filed: a number reads back as a DOUBLE, text as a
    /// VARCHAR.
    pub fn values(self) -> Vec<Value> {
        order_key_values(self.0)
    }
}

/// The order key of `key`'s cells, all ascending.
pub(crate) fn key_of(key: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    key.iter().for_each(|v| order_key(v, false, &mut out));
    out
}

/// Append the order key of cells `cols` of a stored record, given as
/// its cells' tags and payloads, to `out`: a tree's key for the row,
/// made without decoding it.
pub(crate) fn record_key(cols: &[usize], cells: &[(u8, &[u8])], out: &mut Vec<u8>) {
    cols.iter()
        .for_each(|&i| order_key_cell(cells[i], false, out));
}

/// Sizes of the fewest groups of at most `max` that `n` items spread
/// evenly over: no group is left with a stub of a tail.
fn spread(n: usize, max: usize) -> impl Iterator<Item = usize> {
    let groups = n.div_ceil(max);
    (0..groups).map(move |g| n / groups + usize::from(g < n % groups))
}

/// Does `key` lead with `prefix`'s cells, under [`Value::total_cmp`]? What
/// `starts_with` answers of their order keys.
pub fn has_prefix(key: &[Value], prefix: &[Value]) -> bool {
    key.len() >= prefix.len() && key.iter().zip(prefix).all(|(k, p)| k.total_cmp(p).is_eq())
}

/// The row ids under one key, ascending, without repeats.
#[derive(Debug, Clone)]
enum Rows {
    One(RowId),
    /// Two or more, in a `Vec` that grows in place, boxed so that the
    /// many entries of one row stay two words.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<RowId>>),
}

impl Rows {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Rows::One(row) => std::slice::from_ref(row),
            Rows::Many(rows) => rows,
        }
    }

    /// Files `row`; false if it is already here.
    fn insert(&mut self, row: RowId) -> bool {
        let Err(at) = self.as_slice().binary_search(&row) else {
            return false;
        };
        match self {
            Rows::One(one) => {
                let mut rows = vec![*one; 2];
                rows[at] = row;
                *self = Rows::Many(Box::new(rows));
            }
            Rows::Many(rows) => rows.insert(at, row),
        }
        true
    }

    /// Drops `row`: `None` if it is not here, else whether none is left.
    fn remove(&mut self, row: RowId) -> Option<bool> {
        match self {
            Rows::One(one) => (*one == row).then_some(true),
            Rows::Many(rows) => {
                rows.remove(rows.binary_search(&row).ok()?);
                if let [one] = rows[..] {
                    *self = Rows::One(one);
                }
                Some(false)
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Leaf {
    /// Sorted by key; each entry owns the row ids for that exact key.
    entries: Vec<(Key, Rows)>,
}

#[derive(Debug, Clone)]
struct Internal {
    /// `keys[i]` separates `children[i]` (< key) from `children[i+1]` (>= key).
    keys: Vec<Key>,
    children: Vec<Node>,
}

impl Internal {
    /// The child whose subtree `key` falls in.
    fn child(&self, key: &[u8]) -> usize {
        self.keys.partition_point(|k| **k <= *key)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    Internal(Internal),
}

impl Default for Node {
    fn default() -> Self {
        Node::Leaf(Leaf::default())
    }
}

/// A B+tree index.
#[derive(Debug, Clone, Default)]
pub struct BPlusTree {
    root: Node,
    len: usize,
}

enum InsertResult {
    Done,
    /// Child split: promote `(separator, new_right_sibling)`.
    Split(Key, Node),
}

impl BPlusTree {
    /// New empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tree holding exactly `pairs` (keys as records, in any order,
    /// repeats allowed), read as inserting them one by one builds it:
    /// sorted, then built by [`BPlusTree::from_run`].
    pub fn from_pairs<K: AsRef<[u8]>>(mut pairs: Vec<(K, RowId)>) -> Self {
        pairs.sort_unstable_by(|a, b| (a.0.as_ref(), a.1).cmp(&(b.0.as_ref(), b.1)));
        pairs.dedup_by(|a, b| a.1 == b.1 && a.0.as_ref() == b.0.as_ref());
        Self::from_run(pairs.iter().map(|(key, row)| (key.as_ref(), *row)))
            .expect("a sorted run ascends")
    }

    /// The tree holding `run`, which must ascend: each key after the one
    /// before, or equal to it with a greater row id (else the error is the
    /// position of the first pair that does not). Equal keys share one
    /// entry, under the first of them. Built bottom-up. Every level is cut into the fewest nodes that
    /// hold it, filled evenly, so no node exceeds `ORDER` keys and none
    /// but a lone root falls under half of that (an internal node never
    /// has fewer than two children). A separator is the first key of the
    /// subtree to its right, as a split leaves it.
    pub fn from_run<'k, I>(run: I) -> Result<Self, usize>
    where
        I: IntoIterator<Item = (&'k [u8], RowId)>,
        I::IntoIter: Clone,
    {
        let mut run = run.into_iter();
        // Which pairs open an entry, checked on the way.
        let mut opens = Vec::with_capacity(run.size_hint().0);
        let mut last: Option<(&[u8], RowId)> = None;
        for (at, (key, row)) in run.clone().enumerate() {
            opens.push(match last {
                None => true,
                Some(last) if last.0 < key => true,
                Some(last) if last < (key, row) => false,
                Some(_) => return Err(at),
            });
            last = Some((key, row));
        }
        let distinct = opens.iter().filter(|&&opens| opens).count();
        let (len, mut at) = (opens.len(), 0);
        // Each node travels with the first key under it: the separator
        // its parent files it behind.
        let mut level: Vec<(Key, Node)> = spread(distinct, ORDER)
            .map(|size| {
                let mut entries = Vec::with_capacity(size);
                for _ in 0..size {
                    let rows = 1 + opens[at + 1..].iter().take_while(|&&o| !o).count();
                    let (key, row) = run.next().expect("one run element per row");
                    let more = run.by_ref().take(rows - 1).map(|(_, row)| row);
                    entries.push((
                        Key::from(key),
                        match rows {
                            1 => Rows::One(row),
                            _ => Rows::Many(Box::new([row].into_iter().chain(more).collect())),
                        },
                    ));
                    at += rows;
                }
                (entries[0].0.clone(), Node::Leaf(Leaf { entries }))
            })
            .collect();
        while level.len() > 1 {
            let sizes = spread(level.len(), ORDER + 1);
            let mut nodes = level.into_iter();
            level = sizes
                .map(|size| {
                    let (first_key, first) = nodes.next().expect("one node per child");
                    let mut keys = Vec::with_capacity(size - 1);
                    let mut children = Vec::with_capacity(size);
                    children.push(first);
                    for (sep, child) in nodes.by_ref().take(size - 1) {
                        keys.push(sep);
                        children.push(child);
                    }
                    (first_key, Node::Internal(Internal { keys, children }))
                })
                .collect();
        }
        Ok(match level.pop() {
            Some((_, root)) => BPlusTree { root, len },
            None => BPlusTree::new(),
        })
    }

    /// Rename every row id the tree files through `rename`, in place.
    /// The renaming must ascend — keep the row ids' order, as a heap's
    /// compaction does — so every key's rows stay sorted and the tree
    /// keeps its shape.
    pub fn rename_rows(&mut self, mut rename: impl FnMut(RowId) -> RowId) {
        fn walk(node: &mut Node, rename: &mut impl FnMut(RowId) -> RowId) {
            match node {
                Node::Leaf(leaf) => {
                    for (_, rows) in &mut leaf.entries {
                        match rows {
                            Rows::One(row) => *row = rename(*row),
                            Rows::Many(rows) => rows.iter_mut().for_each(|r| *r = rename(*r)),
                        }
                    }
                }
                Node::Internal(node) => {
                    for child in &mut node.children {
                        walk(child, rename);
                    }
                }
            }
        }
        walk(&mut self.root, &mut rename);
    }

    /// Total number of `(key, row)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a `(key, row)` pair. Duplicate keys accumulate rows;
    /// inserting the same `(key, row)` twice is a no-op.
    pub fn insert(&mut self, key: Vec<Value>, row: RowId) {
        self.insert_key(&key_of(&key), row)
    }

    /// [`BPlusTree::insert`] of an order key.
    pub fn insert_key(&mut self, key: &[u8], row: RowId) {
        let result = Self::insert_rec(&mut self.root, key, row, &mut self.len);
        if let InsertResult::Split(sep, right) = result {
            let old_root = std::mem::take(&mut self.root);
            self.root = Node::Internal(Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            });
        }
    }

    fn insert_rec(node: &mut Node, key: &[u8], row: RowId, len: &mut usize) -> InsertResult {
        match node {
            Node::Leaf(leaf) => {
                match leaf.entries.binary_search_by(|(k, _)| (**k).cmp(key)) {
                    Ok(i) => {
                        // Row lists stay sorted so duplicate checks are
                        // O(log k) even for heavily duplicated keys.
                        if leaf.entries[i].1.insert(row) {
                            *len += 1;
                        }
                        InsertResult::Done
                    }
                    Err(i) => {
                        leaf.entries.insert(i, (key.into(), Rows::One(row)));
                        *len += 1;
                        if leaf.entries.len() > ORDER {
                            let entries = leaf.entries.split_off(leaf.entries.len() / 2);
                            InsertResult::Split(entries[0].0.clone(), Node::Leaf(Leaf { entries }))
                        } else {
                            InsertResult::Done
                        }
                    }
                }
            }
            Node::Internal(int) => {
                let idx = int.child(key);
                match Self::insert_rec(&mut int.children[idx], key, row, len) {
                    InsertResult::Done => InsertResult::Done,
                    InsertResult::Split(sep, right) => {
                        int.keys.insert(idx, sep);
                        int.children.insert(idx + 1, right);
                        if int.keys.len() > ORDER {
                            let mid = int.keys.len() / 2;
                            let keys = int.keys.split_off(mid + 1);
                            let promoted = int.keys.pop().expect("the middle separator");
                            let children = int.children.split_off(mid + 1);
                            let right = Node::Internal(Internal { keys, children });
                            InsertResult::Split(promoted, right)
                        } else {
                            InsertResult::Done
                        }
                    }
                }
            }
        }
    }

    /// Remove a `(key, row)` pair; returns true if it was present.
    pub fn remove(&mut self, key: &[Value], row: RowId) -> bool {
        self.remove_key(&key_of(key), row)
    }

    /// [`BPlusTree::remove`] of an order key.
    pub fn remove_key(&mut self, key: &[u8], row: RowId) -> bool {
        let removed = Self::remove_rec(&mut self.root, key, row);
        self.len -= usize::from(removed);
        removed
    }

    fn remove_rec(node: &mut Node, key: &[u8], row: RowId) -> bool {
        match node {
            Node::Leaf(leaf) => {
                let Ok(i) = leaf.entries.binary_search_by(|(k, _)| (**k).cmp(key)) else {
                    return false;
                };
                let Some(emptied) = leaf.entries[i].1.remove(row) else {
                    return false;
                };
                if emptied {
                    leaf.entries.remove(i);
                }
                true
            }
            Node::Internal(int) => {
                let idx = int.child(key);
                Self::remove_rec(&mut int.children[idx], key, row)
            }
        }
    }

    /// All rows with exactly `key`.
    pub fn get(&self, key: &[Value]) -> Vec<RowId> {
        self.get_key(&key_of(key)).to_vec()
    }

    /// [`BPlusTree::get`] of an order key, lent.
    pub fn get_key(&self, key: &[u8]) -> &[RowId] {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return match leaf.entries.binary_search_by(|(k, _)| (**k).cmp(key)) {
                        Ok(i) => leaf.entries[i].1.as_slice(),
                        Err(_) => &[],
                    };
                }
                Node::Internal(int) => {
                    node = &int.children[int.child(key)];
                }
            }
        }
    }

    /// Visit `(key, rows)` in key order, starting at the first key that
    /// is `>= lo`, until `visit` returns false. `lo` may be shorter than
    /// the stored keys: a prefix sorts before every key it leads, so the
    /// walk starts at the first key under that prefix (the whole tree
    /// for an empty `lo`). Nothing is cloned; upper bounds are the
    /// visitor's to enforce by stopping.
    pub fn scan_from(&self, lo: &[Value], visit: impl FnMut(KeyRef<'_>, &[RowId]) -> bool) {
        self.scan_from_key(&key_of(lo), visit)
    }

    /// [`BPlusTree::scan_from`] from an order key.
    pub fn scan_from_key(&self, lo: &[u8], mut visit: impl FnMut(KeyRef<'_>, &[RowId]) -> bool) {
        Self::scan_rec(&self.root, Some(lo), &mut visit);
    }

    /// Returns false once the visitor has stopped the walk.
    fn scan_rec(
        node: &Node,
        mut lo: Option<&[u8]>,
        visit: &mut impl FnMut(KeyRef<'_>, &[RowId]) -> bool,
    ) -> bool {
        match node {
            Node::Leaf(leaf) => {
                let start = lo.map_or(0, |lo| leaf.entries.partition_point(|(k, _)| **k < *lo));
                leaf.entries[start..]
                    .iter()
                    .all(|(k, rows)| visit(KeyRef(k), rows.as_slice()))
            }
            Node::Internal(int) => {
                let start = lo.map_or(0, |lo| int.child(lo));
                for child in &int.children[start..] {
                    if !Self::scan_rec(child, lo, visit) {
                        return false;
                    }
                    // Every later child lies wholly above the bound.
                    lo = None;
                }
                true
            }
        }
    }

    /// Tree height (1 = a single leaf), for tests and stats.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(int) = node {
            h += 1;
            node = &int.children[0];
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// Keys as the tests write them: values.
    type Key = Vec<Value>;

    /// The order the tree keeps, over values: `Value::total_cmp` cell by
    /// cell, a key before every longer key it leads.
    fn value_cmp(a: &[Value], b: &[Value]) -> Ordering {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(a.len().cmp(&b.len()))
    }

    fn same_key(a: &[Value], b: &[Value]) -> bool {
        value_cmp(a, b) == Ordering::Equal
    }

    fn from_values(pairs: Vec<(Key, RowId)>) -> BPlusTree {
        BPlusTree::from_pairs(pairs.iter().map(|(k, r)| (key_of(k), *r)).collect())
    }

    fn k(i: i64) -> Key {
        vec![Value::Int(i)]
    }

    fn rid(i: u64) -> RowId {
        RowId(i)
    }

    /// What the cursor visits from `lo` up to and including `hi`.
    fn collect(t: &BPlusTree, lo: &[Value], hi: Option<&[Value]>) -> Vec<(Key, Vec<RowId>)> {
        let mut out = Vec::new();
        t.scan_from(lo, |k, rows| {
            let k = k.values();
            if hi.is_some_and(|hi| value_cmp(&k, hi) == Ordering::Greater) {
                return false;
            }
            out.push((k, rows.to_vec()));
            true
        });
        out
    }

    #[test]
    fn insert_and_get() {
        let mut t = BPlusTree::new();
        t.insert(k(5), rid(50));
        t.insert(k(3), rid(30));
        t.insert(k(8), rid(80));
        assert_eq!(t.get(&k(3)), vec![rid(30)]);
        assert_eq!(t.get(&k(5)), vec![rid(50)]);
        assert_eq!(t.get(&k(9)), Vec::<RowId>::new());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = BPlusTree::new();
        t.insert(k(1), rid(10));
        t.insert(k(1), rid(11));
        t.insert(k(1), rid(10)); // duplicate pair: no-op
        let mut rows = t.get(&k(1));
        rows.sort();
        assert_eq!(rows, vec![rid(10), rid(11)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_split_correctly() {
        let mut t = BPlusTree::new();
        let n = 5000i64;
        // Insert in a scrambled order.
        for i in 0..n {
            let key = (i * 2654435761u32 as i64) % n;
            t.insert(k(key), rid(key as u64));
        }
        assert!(t.height() >= 3, "tree should have split: h={}", t.height());
        for i in 0..n {
            assert_eq!(t.get(&k(i)), vec![rid(i as u64)], "key {i}");
        }
        // Full scan is sorted.
        let all = collect(&t, &[], None);
        assert_eq!(all.len(), n as usize);
        for w in all.windows(2) {
            assert_eq!(value_cmp(&w[0].0, &w[1].0), Ordering::Less);
        }
    }

    #[test]
    fn remove_entries() {
        let mut t = BPlusTree::new();
        for i in 0..100 {
            t.insert(k(i), rid(i as u64));
        }
        assert!(t.remove(&k(50), rid(50)));
        assert!(!t.remove(&k(50), rid(50)));
        assert!(!t.remove(&k(200), rid(1)));
        assert_eq!(t.get(&k(50)), Vec::<RowId>::new());
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn remove_one_of_duplicates() {
        let mut t = BPlusTree::new();
        t.insert(k(1), rid(10));
        t.insert(k(1), rid(11));
        assert!(t.remove(&k(1), rid(10)));
        assert_eq!(t.get(&k(1)), vec![rid(11)]);
    }

    #[test]
    fn range_queries() {
        let mut t = BPlusTree::new();
        for i in 0..200 {
            t.insert(k(i), rid(i as u64));
        }
        let r = collect(&t, &k(10), Some(&k(19)));
        assert_eq!(r.len(), 10);
        assert!(same_key(&r[0].0, &k(10)) && same_key(&r[9].0, &k(19)));
        assert_eq!(collect(&t, &[], Some(&k(4))).len(), 5);
        assert_eq!(collect(&t, &k(195), None).len(), 5);
        assert_eq!(collect(&t, &k(500), None).len(), 0);
    }

    #[test]
    fn cursor_seeks_between_keys_and_stops_early() {
        let mut t = BPlusTree::new();
        for i in (0..2000).step_by(2) {
            t.insert(k(i), rid(i as u64));
        }
        assert!(t.height() >= 3);
        // An absent lower bound lands on the next key, wherever in a
        // leaf (or on whichever side of a separator) that is.
        for lo in [-5, 1, 31, 63, 65, 999, 1997] {
            let mut seen = Vec::new();
            t.scan_from(&k(lo), |key, _| {
                seen.push(key.values().remove(0));
                seen.len() < 3
            });
            let first = (lo.max(0) + 1) / 2 * 2;
            // A number reads back as a DOUBLE.
            let want: Vec<Value> = (first..2000)
                .step_by(2)
                .take(3)
                .map(|i| Value::Double(i as f64))
                .collect();
            assert_eq!(seen, want, "lo {lo}");
        }
        let mut visits = 0;
        t.scan_from(&k(1999), |_, _| {
            visits += 1;
            true
        });
        assert_eq!(visits, 0, "past the last key");
    }

    #[test]
    fn cursor_short_bound_and_duplicates_across_splits() {
        // 40 groups of 50 two-column keys: every group spans leaves, and
        // every key holds two rows.
        let mut t = BPlusTree::new();
        for i in 0..2000i64 {
            let j = (i * 7919) % 2000; // scrambled insertion order
            let key = vec![Value::Str(format!("g{:02}", j / 50)), Value::Int(j % 50)];
            t.insert(key.clone(), rid(j as u64));
            t.insert(key, rid(10_000 + j as u64));
        }
        assert!(t.height() >= 3);
        for g in [0, 17, 39] {
            let lead = Value::Str(format!("g{g:02}"));
            // A one-column bound starts at the group's first key.
            let mut keys = Vec::new();
            t.scan_from(std::slice::from_ref(&lead), |key, rows| {
                let key = key.values();
                if !has_prefix(&key, std::slice::from_ref(&lead)) {
                    return false;
                }
                assert_eq!(
                    rows,
                    [
                        rid((g * 50) as u64 + keys.len() as u64),
                        rid(10_000 + (g * 50) as u64 + keys.len() as u64)
                    ]
                );
                keys.push(key[1].clone());
                true
            });
            assert_eq!(
                keys,
                (0..50).map(|i| Value::Double(i as f64)).collect::<Vec<_>>(),
                "group {g}"
            );
            // A bound inside the group starts mid-group.
            let mut first = None;
            t.scan_from(&[lead.clone(), Value::Int(48)], |key, _| {
                first = Some(key.values());
                false
            });
            assert_eq!(first, Some(vec![lead, Value::Double(48.0)]));
        }
    }

    #[test]
    fn composite_keys() {
        let mut t = BPlusTree::new();
        t.insert(vec![Value::Str("a".into()), Value::Int(2)], rid(1));
        t.insert(vec![Value::Str("a".into()), Value::Int(1)], rid(2));
        t.insert(vec![Value::Str("b".into()), Value::Int(0)], rid(3));
        let all = collect(&t, &[], None);
        assert_eq!(
            all.iter().map(|(_, r)| r[0]).collect::<Vec<_>>(),
            vec![rid(2), rid(1), rid(3)]
        );
    }

    #[test]
    fn null_keys_sort_first() {
        let mut t = BPlusTree::new();
        t.insert(vec![Value::Int(1)], rid(1));
        t.insert(vec![Value::Null], rid(0));
        let all = collect(&t, &[], None);
        assert_eq!(all[0].1, vec![rid(0)]);
    }

    /// Structural invariants, recursively: keys ascending inside a node
    /// and inside the bounds its ancestors' separators set (`lo`
    /// inclusive, `hi` exclusive), row lists ascending without repeats,
    /// no node over `ORDER`, no internal node under two children, every
    /// leaf at one depth. `packed` adds what a bulk build promises on
    /// top: every node but a lone root at least half full. Returns
    /// `(leaf depth, pairs)`.
    fn check_node(
        node: &Node,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        packed: bool,
        is_root: bool,
    ) -> (usize, usize) {
        let in_bounds = |k: &[u8]| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
        match node {
            Node::Leaf(leaf) => {
                assert!(leaf.entries.len() <= ORDER, "leaf over ORDER");
                if packed && !is_root {
                    assert!(leaf.entries.len() >= ORDER / 2, "leaf under half full");
                }
                for w in leaf.entries.windows(2) {
                    assert!(w[0].0 < w[1].0, "leaf keys");
                }
                let mut pairs = 0;
                for (k, rows) in &leaf.entries {
                    let rows = rows.as_slice();
                    assert!(in_bounds(k), "{k:?} outside {lo:?}..{hi:?}");
                    assert!(!rows.is_empty(), "empty entry kept");
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "row ids of {k:?}");
                    pairs += rows.len();
                }
                (1, pairs)
            }
            Node::Internal(int) => {
                assert_eq!(int.children.len(), int.keys.len() + 1);
                assert!(int.keys.len() <= ORDER, "internal node over ORDER");
                assert!(int.children.len() >= 2, "one-child internal node");
                if packed && !is_root {
                    assert!(int.children.len() > ORDER / 2, "under half full");
                }
                for w in int.keys.windows(2) {
                    assert!(w[0] < w[1], "separators");
                }
                assert!(int.keys.iter().all(|k| in_bounds(k)), "separator bounds");
                let (mut depth, mut pairs) = (None, 0);
                for (i, child) in int.children.iter().enumerate() {
                    let lo = if i == 0 {
                        lo
                    } else {
                        Some(&int.keys[i - 1][..])
                    };
                    let hi = int.keys.get(i).map(|k| &k[..]).or(hi);
                    let (d, n) = check_node(child, lo, hi, packed, false);
                    assert_eq!(*depth.get_or_insert(d), d, "leaves at one depth");
                    pairs += n;
                }
                (depth.expect("has children") + 1, pairs)
            }
        }
    }

    fn check(t: &BPlusTree, packed: bool) {
        let (depth, pairs) = check_node(&t.root, None, None, packed, true);
        assert_eq!(depth, t.height());
        assert_eq!(pairs, t.len());
    }

    /// Every read of `a` answers as the same read of `b`: `len`, the
    /// whole cursor walk (keys to the bit), walks from each probe, `get`.
    fn assert_same_reads(a: &BPlusTree, b: &BPlusTree, probes: &[Key]) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.is_empty(), b.is_empty());
        let (all_a, all_b) = (collect(a, &[], None), collect(b, &[], None));
        assert_eq!(all_a.len(), all_b.len());
        for (x, y) in all_a.iter().zip(&all_b) {
            assert!(same_key(&x.0, &y.0), "{:?} vs {:?}", x.0, y.0);
            assert_eq!(x.1, y.1, "rows of {:?}", x.0);
        }
        for probe in probes {
            assert_eq!(a.get(probe), b.get(probe), "get {probe:?}");
            for lo in [&probe[..], &probe[..1]] {
                let first = |t: &BPlusTree| {
                    let mut seen = Vec::new();
                    t.scan_from(lo, |k, rows| {
                        seen.push((k.values(), rows.to_vec()));
                        seen.len() < 3
                    });
                    seen
                };
                let (fa, fb) = (first(a), first(b));
                assert_eq!(fa.len(), fb.len(), "walk from {lo:?}");
                for (x, y) in fa.iter().zip(&fb) {
                    assert!(same_key(&x.0, &y.0) && x.1 == y.1, "walk from {lo:?}");
                }
            }
        }
    }

    /// Fisher–Yates (the vendored `rand` has no `seq`).
    fn shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
    }

    fn built_by_inserts(pairs: &[(Key, RowId)]) -> BPlusTree {
        let mut t = BPlusTree::new();
        for (key, row) in pairs {
            t.insert(key.clone(), *row);
        }
        t
    }

    /// Both trees take the same further inserts and removes and must go
    /// on answering alike (a bulk-built node splits like any other).
    fn mutate_both(
        rng: &mut rand::rngs::StdRng,
        a: &mut BPlusTree,
        b: &mut BPlusTree,
        pairs: &[(Key, RowId)],
        fresh: impl Fn(&mut rand::rngs::StdRng) -> (Key, RowId),
    ) {
        use rand::Rng;
        for _ in 0..300 {
            if pairs.is_empty() || rng.gen_bool(0.5) {
                let (key, row) = fresh(rng);
                a.insert(key.clone(), row);
                b.insert(key, row);
            } else {
                let (key, row) = &pairs[rng.gen_range(0..pairs.len())];
                assert_eq!(a.remove(key, *row), b.remove(key, *row));
            }
        }
    }

    #[test]
    fn bulk_build_equals_inserts_at_the_node_boundaries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let full_two_levels = ORDER * (ORDER + 1);
        for distinct in [
            0,
            1,
            2,
            ORDER - 1,
            ORDER,
            ORDER + 1,
            2 * ORDER + 1,
            full_two_levels,
            full_two_levels + 1,
            (ORDER + 1) * (ORDER + 1) + 1,
        ] {
            // Every key once, a fifth of them under a second row, a few
            // pairs given twice; scrambled.
            let mut pairs: Vec<(Key, RowId)> = (0..distinct as i64)
                .map(|i| (vec![Value::Int(i / 7), Value::Int(i % 7)], rid(i as u64)))
                .collect();
            for i in (0..distinct).step_by(5) {
                pairs.push((pairs[i].0.clone(), rid(100_000 + i as u64)));
            }
            for i in (0..distinct).step_by(11) {
                pairs.push(pairs[i].clone());
            }
            shuffle(&mut pairs, &mut rng);
            let mut bulk = from_values(pairs.clone());
            let mut grown = built_by_inserts(&pairs);
            check(&bulk, true);
            check(&grown, false);
            assert_eq!(bulk.len(), distinct + distinct.div_ceil(5));
            let mut probes: Vec<Key> = pairs.iter().map(|(k, _)| k.clone()).collect();
            probes.push(vec![Value::Int(-1), Value::Int(0)]);
            probes.push(vec![Value::Int(3), Value::Int(7)]);
            probes.push(vec![Value::Null, Value::Null]);
            assert_same_reads(&bulk, &grown, &probes);
            if distinct > ORDER {
                assert!(bulk.height() <= grown.height(), "packed is never taller");
            }
            mutate_both(&mut rng, &mut bulk, &mut grown, &pairs, |rng| {
                let i = rng.gen_range(-5..distinct as i64 + 5);
                (
                    vec![Value::Int(i / 7), Value::Int(i % 7)],
                    rid(rng.gen_range(0..4u64) * 100_000 + i.max(0) as u64),
                )
            });
            check(&bulk, false);
            check(&grown, false);
            assert_same_reads(&bulk, &grown, &probes);
        }
    }

    /// One or two columns from small domains, so that keys collide:
    /// NULLs, `Int`/`Double` twins that compare equal, NaNs with different
    /// bits, both zeros, strings.
    fn any_pair(rng: &mut rand::rngs::StdRng, domain: i64) -> (Key, RowId) {
        use rand::Rng;
        let cell = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..9) {
            0 => Value::Null,
            1 | 2 => Value::Int(rng.gen_range(0..domain)),
            3 => Value::Double(rng.gen_range(0..domain) as f64),
            4 => Value::Double(rng.gen_range(0..domain) as f64 + 0.5),
            5 => Value::Double([f64::NAN, -f64::NAN, 0.0, -0.0][rng.gen_range(0..4usize)]),
            6 => Value::Timestamp(rng.gen_range(0..domain)),
            _ => Value::Str(format!("k{:03}", rng.gen_range(0..domain))),
        };
        let width = rng.gen_range(1..3);
        (
            (0..width).map(|_| cell(rng)).collect(),
            rid(rng.gen_range(0..6)),
        )
    }

    mod differential {
        use super::*;
        use rand::{Rng, SeedableRng};

        proptest::proptest! {
            /// For any multiset of pairs the bulk build reads as the
            /// tree the same pairs grew by inserts, and keeps doing so
            /// under further inserts and removes.
            #[test]
            fn bulk_build_reads_as_the_insert_built_tree(seed in proptest::prelude::any::<u64>()) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let domain = [2, 12, 400][rng.gen_range(0..3usize)];
                let n = [0, 1, 40, 700, 3000][rng.gen_range(0..5usize)];
                let pairs: Vec<(Key, RowId)> =
                    (0..n).map(|_| any_pair(&mut rng, domain)).collect();
                let mut bulk = from_values(pairs.clone());
                let mut grown = built_by_inserts(&pairs);
                check(&bulk, true);
                check(&grown, false);
                let mut probes: Vec<Key> = pairs.iter().map(|(k, _)| k.clone()).collect();
                probes.extend((0..20).map(|_| any_pair(&mut rng, domain + 3).0));
                assert_same_reads(&bulk, &grown, &probes);
                mutate_both(&mut rng, &mut bulk, &mut grown, &pairs, |rng| {
                    any_pair(rng, domain + 3)
                });
                check(&bulk, false);
                check(&grown, false);
                assert_same_reads(&bulk, &grown, &probes);
            }
        }
    }

    #[test]
    fn nan_keys_file_in_one_place_however_the_index_was_built() {
        use rand::SeedableRng;
        let d = |x: f64| vec![Value::Double(x)];
        let mut pairs: Vec<(Key, RowId)> = (0..200)
            .map(|i| (d(i as f64 - 100.0), rid(i)))
            .chain((0..40).map(|i| (d(f64::from_bits(0x7ff8_0000_0000_0000 | i)), rid(1000 + i))))
            .chain([(d(-0.0), rid(2000)), (d(f64::INFINITY), rid(2001))])
            .chain([
                (vec![Value::Int(7)], rid(2002)),
                (vec![Value::Null], rid(2003)),
            ])
            .collect();
        let read = |t: &BPlusTree| -> Vec<(bool, Vec<RowId>)> {
            check(t, false);
            collect(t, &[], None)
                .into_iter()
                .map(|(k, rows)| (matches!(k[0], Value::Double(x) if x.is_nan()), rows))
                .collect()
        };
        let want = read(&from_values(pairs.clone()));
        // All forty NaNs share the last entry; 0.0 and -0.0 share one too.
        assert_eq!(want.len(), 1 + 200 + 1 + 1);
        assert_eq!(
            want.last().unwrap(),
            &(true, (1000..1040).map(rid).collect())
        );
        assert_eq!(want.iter().filter(|(nan, _)| *nan).count(), 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            shuffle(&mut pairs, &mut rng);
            assert_eq!(read(&built_by_inserts(&pairs)), want);
            assert_eq!(read(&from_values(pairs.clone())), want);
            let t = built_by_inserts(&pairs);
            assert_eq!(t.get(&d(f64::NAN)).len(), 40);
            assert_eq!(t.get(&d(0.0)), vec![rid(100), rid(2000)]);
        }
    }
}
