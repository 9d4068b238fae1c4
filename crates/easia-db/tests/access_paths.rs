//! Access paths against their oracle: the same table without indexes.
//!
//! "The index narrows, the filter decides" means an index may never
//! show in a statement's outcome. Two databases receive identical
//! statements; one table carries a unique, two composite and three
//! non-unique indexes, the other none, so every read and write of it is
//! a heap scan. Rows, errors and row order must agree for random
//! conjunctions of the QBE operators over NULLs, Int/Double mixes past
//! 2^53 (where index keys collapse to one `f64`), strings sharing
//! prefixes up to `char::MAX`, constants of the wrong type — beside an
//! open writer, and through UPDATE and DELETE.
//!
//! A JOIN narrows its base table a second way — WHERE conjuncts over the
//! base's own columns filter its rows before the join — and has a second
//! oracle: the same statement with the base bound as an in-memory
//! `exec::Relation`, which is always read whole and joined whole.
//!
//! The scan filters as it reads — one scratch row, only survivors copied
//! out — and has a third oracle: bind the predicate, decode every visible
//! row, then `EvalContext::eval` on each in order. Rows, the first error
//! and the executor's counters must be those of the materialising
//! reference.
//!
//! A name that does not resolve is none of these: it is the statement's
//! error before any row is read, on every path and over any rows.

use easia_db::exec::{run_select_over, Relation};
use easia_db::expr::{truth, EvalContext, RowSchema};
use easia_db::plan::{choose_access_path, AccessPath, Tail};
use easia_db::sql::ast::{Expr, JoinKind, SelectStmt, Stmt};
use easia_db::{Database, TxnId, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DDL: &str = "CREATE TABLE t (id INTEGER NOT NULL, g VARCHAR(8), s VARCHAR(16), \
                   n INTEGER, x DOUBLE, note VARCHAR(8))";
const INDEXES: [&str; 6] = [
    "CREATE UNIQUE INDEX ix_id ON t (id)",
    "CREATE INDEX ix_gs ON t (g, s)",
    "CREATE INDEX ix_s ON t (s)",
    "CREATE INDEX ix_n ON t (n)",
    "CREATE INDEX ix_xn ON t (x, n)",
    "CREATE INDEX ix_note ON t (note)",
];

const GROUPS: [&str; 3] = ["g1", "g2", "g\u{10FFFF}"];
const STEMS: [&str; 13] = [
    "",
    "a",
    "ab",
    "abc",
    "abd",
    "ab\u{10FFFF}",
    "ab\u{10FFFF}\u{10FFFF}",
    "ac",
    "b",
    "é",
    "éa",
    "ê",
    "a%",
];
const SUFFIXES: [&str; 5] = ["", "a", "z", "\u{10FFFF}", "_c"];
const TWO_53: i64 = 1 << 53;
const INTS: [i64; 10] = [-7, -1, 0, 1, 2, 3, 5, TWO_53, TWO_53 + 1, i64::MAX];
const DOUBLES: [f64; 8] = [-1.5, 0.0, 1.0, 2.0, 2.5, 3.0, TWO_53 as f64, 1e300];

/// What a statement did: its rows in order and affected count, or its
/// error text.
type Outcome = Result<(Vec<Vec<Value>>, usize), String>;

/// How often the generated statements reached each mechanism.
#[derive(Default, Debug)]
struct Coverage {
    full_key: usize,
    tail_all: usize,
    tail_range: usize,
    tail_prefix: usize,
    full_scan: usize,
    errors: usize,
    rows: usize,
}

struct Pair {
    indexed: Database,
    plain: Database,
    rng: StdRng,
    next_id: i64,
    seen: Coverage,
}

fn pick<T: Clone>(rng: &mut StdRng, pool: &[T]) -> T {
    pool[rng.gen_range(0..pool.len())].clone()
}

fn text(rng: &mut StdRng) -> String {
    format!("{}{}", pick(rng, &STEMS), pick(rng, &SUFFIXES))
}

fn number(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.5) {
        Value::Int(pick(rng, &INTS))
    } else {
        Value::Double(pick(rng, &DOUBLES))
    }
}

fn or_null(v: Value, rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.15) {
        Value::Null
    } else {
        v
    }
}

/// A LIKE pattern: a stored-looking string with wildcards put at the
/// front, the back, the middle, or nowhere; sometimes empty.
fn pattern(rng: &mut StdRng) -> String {
    let base = text(rng);
    let cut = base
        .char_indices()
        .map(|(i, _)| i)
        .nth(rng.gen_range(0..3))
        .unwrap_or(base.len());
    let (head, rest) = base.split_at(cut);
    match rng.gen_range(0..8) {
        0 => base,
        1 => format!("{base}%"),
        2 => format!("{head}%"),
        3 => format!("{head}_%"),
        4 => format!("{head}%{rest}"),
        5 => format!("%{rest}"),
        6 => format!("_{rest}"),
        _ => String::new(),
    }
}

impl Pair {
    fn new(seed: u64) -> Self {
        let mut indexed = Database::new_in_memory();
        let mut plain = Database::new_in_memory();
        indexed.execute(DDL).unwrap();
        plain.execute(DDL).unwrap();
        for ix in INDEXES {
            indexed.execute(ix).unwrap();
        }
        Pair {
            indexed,
            plain,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            seen: Coverage::default(),
        }
    }

    /// Run one statement on both databases (inside `txn` when given)
    /// and demand the same outcome.
    fn both(&mut self, txn: Option<(TxnId, TxnId)>, sql: &str, params: &[Value]) -> Outcome {
        let run = |db: &mut Database, txn: Option<TxnId>| -> Outcome {
            match txn {
                Some(t) => db.txn_execute(t, sql, params),
                None => db.execute_with_params(sql, params),
            }
            .map(|rs| (rs.rows, rs.affected))
            .map_err(|e| e.to_string())
        };
        self.note_path(sql, params);
        let with = run(&mut self.indexed, txn.map(|t| t.0));
        let without = run(&mut self.plain, txn.map(|t| t.1));
        assert_eq!(with, without, "{sql}\nparams {params:?}");
        match &with {
            Ok((rows, affected)) => self.seen.rows += rows.len() + affected,
            Err(_) => self.seen.errors += 1,
        }
        with
    }

    /// Record which path the indexed side takes for `sql` (none when its
    /// WHERE does not bind).
    fn note_path(&mut self, sql: &str, params: &[Value]) {
        let pred = match easia_db::sql::parse(sql).unwrap() {
            Stmt::Select(s) => s.where_clause,
            Stmt::Update { where_clause, .. } | Stmt::Delete { where_clause, .. } => where_clause,
            _ => return,
        };
        let table = self.indexed.table("T").unwrap();
        let seen = &mut self.seen;
        let Ok(path) = choose_access_path(&self.indexed, table, "T", pred.as_ref(), params) else {
            return;
        };
        match path {
            AccessPath::FullScan => seen.full_scan += 1,
            AccessPath::IndexRange {
                index_pos,
                eq,
                tail,
                ..
            } => match tail {
                Tail::All if eq.len() == table.indexes[index_pos].col_indices.len() => {
                    seen.full_key += 1
                }
                Tail::All => seen.tail_all += 1,
                Tail::Range { .. } => seen.tail_range += 1,
                Tail::Prefix(_) => seen.tail_prefix += 1,
            },
        }
    }

    fn insert(&mut self, txn: Option<(TxnId, TxnId)>) {
        let rng = &mut self.rng;
        let row = vec![
            Value::Int(self.next_id),
            or_null(Value::Str(pick(rng, &GROUPS).into()), rng),
            or_null(Value::Str(text(rng)), rng),
            or_null(Value::Int(pick(rng, &INTS)), rng),
            // An integer stored into the DOUBLE column is coerced.
            or_null(number(rng), rng),
            or_null(Value::Str(pick(rng, &["p", "q"]).into()), rng),
        ];
        self.next_id += 1;
        self.both(txn, "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", &row)
            .unwrap();
    }

    /// One restriction on one column, appending its constants to `params`.
    fn atom(&mut self, params: &mut Vec<Value>) -> String {
        let rng = &mut self.rng;
        let (col, stringy) = pick(
            rng,
            &[
                ("id", false),
                ("g", true),
                ("s", true),
                ("s", true),
                ("n", false),
                ("n", false),
                ("x", false),
                ("note", true),
            ],
        );
        // Mostly a constant of the column's family, sometimes of the
        // other one (which raises), sometimes NULL.
        let konst = |rng: &mut StdRng| match rng.gen_range(0..20) {
            0 => Value::Null,
            1 | 2 => {
                if stringy {
                    number(rng)
                } else {
                    Value::Str(text(rng))
                }
            }
            _ if col == "id" => Value::Int(rng.gen_range(0..self.next_id.max(1))),
            _ if col == "g" => Value::Str(pick(rng, &GROUPS).into()),
            _ if col == "note" => Value::Str(pick(rng, &["p", "q", "r"]).into()),
            _ if stringy => Value::Str(text(rng)),
            _ => number(rng),
        };
        match rng.gen_range(0..12) {
            0..=2 => {
                params.push(konst(rng));
                format!("{col} = ?")
            }
            3..=6 => {
                let op = pick(rng, &["<", "<=", ">", ">=", "<>"]);
                params.push(konst(rng));
                if rng.gen_bool(0.25) {
                    format!("? {op} {col}")
                } else {
                    format!("{col} {op} ?")
                }
            }
            7 => {
                params.push(konst(rng));
                params.push(konst(rng));
                let not = if rng.gen_bool(0.2) { "NOT " } else { "" };
                format!("{col} {not}BETWEEN ? AND ?")
            }
            8..=10 => {
                params.push(if rng.gen_bool(0.9) {
                    Value::Str(pattern(rng))
                } else {
                    konst(rng)
                });
                let not = if rng.gen_bool(0.15) { "NOT " } else { "" };
                format!("{col} {not}LIKE ?")
            }
            _ => format!("{col} IS NOT NULL"),
        }
    }

    /// A conjunction of one to three restrictions, now and then with an
    /// OR or a NOT the planner must leave to the filter.
    fn predicate(&mut self) -> (String, Vec<Value>) {
        let mut params = Vec::new();
        let mut parts = Vec::new();
        for _ in 0..self.rng.gen_range(1..4) {
            let a = self.atom(&mut params);
            parts.push(match self.rng.gen_range(0..12) {
                0 => format!("({a} OR {})", self.atom(&mut params)),
                1 => format!("NOT ({a})"),
                _ => a,
            });
        }
        (parts.join(" AND "), params)
    }

    fn select(&mut self, txn: Option<(TxnId, TxnId)>) {
        let (pred, params) = self.predicate();
        let limit = if self.rng.gen_bool(0.2) {
            " LIMIT 3"
        } else {
            ""
        };
        let _ = self.both(
            txn,
            &format!("SELECT * FROM t WHERE {pred}{limit}"),
            &params,
        );
    }

    /// UPDATE (of indexed columns) or DELETE under a random predicate.
    fn write(&mut self, txn: Option<(TxnId, TxnId)>) {
        let (pred, mut params) = self.predicate();
        let sql = if self.rng.gen_bool(0.6) {
            let set = [
                Value::Str(text(&mut self.rng)),
                Value::Int(pick(&mut self.rng, &INTS)),
            ];
            params.splice(0..0, set);
            format!("UPDATE t SET s = ?, n = ? WHERE {pred}")
        } else {
            format!("DELETE FROM t WHERE {pred}")
        };
        let _ = self.both(txn, &sql, &params);
    }

    fn same_table(&mut self, txn: Option<(TxnId, TxnId)>) {
        self.both(txn, "SELECT * FROM t", &[]).unwrap();
    }
}

fn run_case(seed: u64) -> Coverage {
    let mut p = Pair::new(seed);
    for _ in 0..p.rng.gen_range(30..150) {
        p.insert(None);
    }
    for _ in 0..16 {
        p.select(None);
    }
    // An open writer: its rows are in the indexes but visible to it alone.
    let (a, b) = (p.indexed.begin_txn(), p.plain.begin_txn());
    let txn = Some((a, b));
    for _ in 0..8 {
        match p.rng.gen_range(0..3) {
            0 => p.insert(txn),
            _ => p.write(txn),
        }
    }
    for _ in 0..8 {
        p.select(None);
        p.select(txn);
    }
    p.same_table(txn);
    p.same_table(None);
    if p.rng.gen_bool(0.5) {
        p.indexed.commit_txn(a).unwrap();
        p.plain.commit_txn(b).unwrap();
    } else {
        p.indexed.rollback_txn(a).unwrap();
        p.plain.rollback_txn(b).unwrap();
    }
    for _ in 0..6 {
        p.write(None);
        p.select(None);
    }
    if p.rng.gen_bool(0.5) {
        p.indexed.vacuum();
        p.plain.vacuum();
    }
    for _ in 0..6 {
        p.select(None);
    }
    p.same_table(None);
    p.seen
}

proptest! {
    #[test]
    fn indexed_and_unindexed_tables_agree(seed in any::<u64>()) {
        run_case(seed);
    }
}

/// The property above is only worth its name if the generator reaches
/// every kind of path, raises errors and returns rows.
#[test]
fn generator_reaches_every_path() {
    let mut total = Coverage::default();
    for seed in 0..24 {
        let c = run_case(seed);
        total.full_key += c.full_key;
        total.tail_all += c.tail_all;
        total.tail_range += c.tail_range;
        total.tail_prefix += c.tail_prefix;
        total.full_scan += c.full_scan;
        total.errors += c.errors;
        total.rows += c.rows;
    }
    for (what, n) in [
        ("full-key probes", total.full_key),
        ("equality-run walks", total.tail_all),
        ("range walks", total.tail_range),
        ("prefix walks", total.tail_prefix),
        ("full scans", total.full_scan),
        ("errors", total.errors),
    ] {
        assert!(n >= 40, "only {n} {what}: {total:?}");
    }
    assert!(total.rows > 10_000, "{total:?}");
}

/// The parent-side RESTRICT check probes a child index led by the FK
/// columns and falls back to the child heap without one: the same
/// script, inside one open transaction, must fare the same either way.
#[test]
fn parent_restrict_agrees_with_and_without_a_child_index() {
    let script = |b_type: &str, child_index: Option<&str>| -> Vec<Result<usize, String>> {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE p (a VARCHAR(4), b INTEGER, v INTEGER, PRIMARY KEY (a, b))")
            .unwrap();
        db.execute(&format!(
            "CREATE TABLE c (id INTEGER, a VARCHAR(4), b {b_type}, \
             FOREIGN KEY (a, b) REFERENCES p (a, b))"
        ))
        .unwrap();
        if let Some(ddl) = child_index {
            db.execute(ddl).unwrap();
        }
        db.execute("INSERT INTO p VALUES ('k', 1, 0), ('k', 2, 0), ('k', 3, 0), ('m', 1, 0)")
            .unwrap();
        // 100 children of ('k', 1) spread the key over index leaves;
        // ('k', 2) has one child, ('k', 3) and ('m', 1) none.
        for id in 0..100 {
            db.execute(&format!("INSERT INTO c VALUES ({id}, 'k', 1)"))
                .unwrap();
        }
        db.execute("INSERT INTO c VALUES (100, 'k', 2), (101, NULL, 1), (102, 'm', NULL)")
            .unwrap();
        let txn = db.begin_txn();
        [
            "DELETE FROM c WHERE id = 0", // the first entry under ('k', 1) is dead to this txn
            "DELETE FROM p WHERE a = 'k' AND b = 1", // 99 children left: refused
            "UPDATE p SET b = 9 WHERE a = 'k' AND b = 2", // key change, referenced: refused
            "UPDATE p SET v = 1 WHERE a = 'k' AND b = 2", // key unchanged: allowed
            "DELETE FROM p WHERE a = 'k' AND b = 3", // unreferenced: allowed
            "DELETE FROM c WHERE id = 100",
            "DELETE FROM p WHERE a = 'k' AND b = 2", // its only child is gone for this txn
            "INSERT INTO c VALUES (103, 'm', 1)",
            "DELETE FROM p WHERE a = 'm'", // referenced by this txn's own insert: refused
            "DELETE FROM c WHERE b = 1",
            "DELETE FROM p", // nothing references anything any more
        ]
        .iter()
        .map(|sql| {
            db.txn_execute(txn, sql, &[])
                .map(|rs| rs.affected)
                .map_err(|e| e.to_string())
        })
        .collect()
    };
    let heap = script("INTEGER", None);
    let refused =
        |r: &Result<usize, String>| r.as_ref().is_err_and(|e| e.contains("referenced by C"));
    let shape: Vec<bool> = heap.iter().map(refused).collect();
    assert_eq!(
        shape,
        [false, true, true, false, false, false, false, false, true, false, false],
        "{heap:?}"
    );
    assert!(heap.iter().all(|r| r.is_ok() || refused(r)), "{heap:?}");
    // A DOUBLE child column files 1.0 under the parent's integer 1, and
    // both FK checks compare keys as the index does, index or not: the
    // children hold their parents exactly as INTEGER ones do.
    let inexact = script("DOUBLE", None);
    assert_eq!(inexact, heap);
    for ddl in [
        "CREATE INDEX ix_fk ON c (a, b)",
        "CREATE INDEX ix_fk_id ON c (a, b, id)",
        "CREATE INDEX ix_other_order ON c (b, a)",
    ] {
        assert_eq!(script("INTEGER", Some(ddl)), heap, "{ddl}");
        assert_eq!(script("DOUBLE", Some(ddl)), inexact, "{ddl}");
    }
}

/// A child whose INTEGER key is its DOUBLE parent's under the index's
/// equality (`1` is `1.0`) is accepted, and then holds that parent:
/// neither a DELETE nor a key-changing UPDATE may orphan it, with or
/// without an index on the child's column.
#[test]
fn a_parent_cannot_orphan_a_child_of_another_numeric_kind() {
    for child_index in [None, Some("CREATE INDEX ix_c_r ON c (r)")] {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE p (k DOUBLE PRIMARY KEY)").unwrap();
        db.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, r INTEGER REFERENCES p (k))")
            .unwrap();
        if let Some(ddl) = child_index {
            db.execute(ddl).unwrap();
        }
        db.execute("INSERT INTO p VALUES (1.0)").unwrap();
        db.execute("INSERT INTO c VALUES (1, 1)").unwrap();
        for sql in ["DELETE FROM p", "UPDATE p SET k = 2.0"] {
            let err = db.execute(sql).map_err(|e| e.to_string());
            assert!(
                err.as_ref().is_err_and(|e| e.contains("referenced by C")),
                "{child_index:?} {sql}: {err:?}"
            );
        }
        let parents = db.execute("SELECT k FROM p").unwrap().rows;
        assert_eq!(parents, [[Value::Double(1.0)]], "{child_index:?}");
    }
}

/// A JOIN's WHERE runs over joined rows and its ON over every pairing:
/// narrowing the base table must not swallow what either would raise.
#[test]
fn joins_keep_their_rows_and_errors() {
    let mut p = Pair::new(7);
    for _ in 0..60 {
        p.insert(None);
    }
    // No index on `u` on either side: only the base table's path differs.
    let u = "CREATE TABLE u (id INTEGER, k INTEGER, label VARCHAR(8))";
    p.indexed.execute(u).unwrap();
    p.plain.execute(u).unwrap();
    for (i, k) in INTS.iter().enumerate() {
        let row = [Value::Int(i as i64), Value::Int(*k), Value::Str("p".into())];
        p.both(None, "INSERT INTO u VALUES (?, ?, ?)", &row)
            .unwrap();
    }
    let from = "SELECT a.id, b.k FROM t a JOIN u b";
    for (tail, raises) in [
        ("ON a.n = b.k WHERE a.id < 20", false),
        (
            "ON a.n = b.k WHERE a.id < 20 AND k >= 0 AND note = label",
            false,
        ),
        ("ON a.n = b.k WHERE a.s LIKE 'ab%' AND b.label = 'p'", false),
        // No row has a.id = -5, yet each of these raises on the rows
        // an index walk for it would skip.
        ("ON a.s = b.k WHERE a.id = -5", true),
        ("ON a.n = b.k WHERE b.label > 3 AND a.id = -5", true),
        ("ON a.n = b.k WHERE id = -5", true),
    ] {
        let sql = format!("{from} {tail}");
        assert_eq!(p.both(None, &sql, &[]).is_err(), raises, "{sql}");
    }
    // A name no leg has raises before any row is read, not on the rows
    // an index walk would skip.
    let sql = format!("{from} ON a.n = b.k WHERE b.nope = 1 AND a.id = -5");
    let err = p.both(None, &sql, &[]).unwrap_err();
    assert_eq!(err, "evaluation error: unknown column B.NOPE");
    // LEFT JOIN pads the legs with NULL, which no operator refuses.
    let padded = "SELECT a.id, b.k FROM t a LEFT JOIN u b ON a.n = b.k + 100 \
                  WHERE a.id BETWEEN 3 AND 9 AND b.label IS NULL";
    assert_eq!(p.both(None, padded, &[]).unwrap().0.len(), 7);

    // An index on the joined table walks only the pairings whose keys
    // match — here none — so it may not hide the error an ON conjunct
    // raises on the others.
    for sql in [
        "CREATE TABLE ka (id INTEGER, n INTEGER)",
        "CREATE TABLE kb (k INTEGER, label VARCHAR(8))",
        "INSERT INTO ka VALUES (1, 100), (2, 200)",
        "INSERT INTO kb VALUES (1, 'p'), (2, 'q')",
    ] {
        p.both(None, sql, &[]).unwrap();
    }
    p.indexed.execute("CREATE INDEX ix_kbk ON kb (k)").unwrap();
    for join in ["JOIN", "LEFT JOIN"] {
        let sql = format!("SELECT a.id FROM ka a {join} kb b ON b.label > 5 AND a.n = b.k");
        let err = p.both(None, &sql, &[]).unwrap_err();
        assert_eq!(
            err, "type error: cannot compare VARCHAR with INTEGER",
            "{sql}"
        );
    }
}

/// A probe meets a run of left rows with one key once: each row of the
/// run meets the rows the first found, while a key of other bytes probes
/// again — `0.0` beside `-0.0`, `1` beside `1.0`, NULL beside NULL. The
/// left rows are a relation, which holds integers and doubles in one
/// column; the probed leg is a DOUBLE column with an index on one side
/// and none on the other. Rows, their order and the padding of a LEFT
/// JOIN must agree.
#[test]
fn a_probe_reuses_its_rows_only_for_a_key_of_the_same_bytes() {
    let mut p = Pair::new(5);
    for sql in [
        "CREATE TABLE r (k DOUBLE, label VARCHAR(8))",
        "INSERT INTO r VALUES (0.0, 'zero'), (-0.0, 'nzero'), (1.0, 'one'), \
         (1, 'int one'), (2.5, 'half'), (NULL, 'none'), (7.5, 'odd')",
    ] {
        p.both(None, sql, &[]).unwrap();
    }
    p.indexed.execute("CREATE INDEX ix_rk ON r (k)").unwrap();
    let keys = [
        Value::Int(1),
        Value::Int(1),
        Value::Double(1.0),
        Value::Double(1.0),
        Value::Int(1),
        Value::Null,
        Value::Null,
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(-0.0),
        Value::Double(0.0),
        Value::Double(2.5),
        Value::Double(2.5),
        Value::Int(9),
        Value::Int(9),
        Value::Null,
        Value::Double(1.0),
        Value::Double(7.5),
    ];
    let rows: Vec<Vec<Value>> = (0..)
        .zip(&keys)
        .map(|(i, k)| vec![Value::Int(i), k.clone()])
        .collect();
    let left = [Relation::from_rows(
        "L",
        vec!["ID".into(), "K".into()],
        &rows,
    )];
    for sql in [
        "SELECT a.id, a.k, b.label, b.k FROM l a LEFT JOIN r b ON a.k = b.k",
        "SELECT a.id, b.label FROM l a JOIN r b ON b.k = a.k",
        "SELECT a.id, b.label FROM l a LEFT JOIN r b ON a.k = b.k AND b.label <> 'one'",
        "SELECT b.label, a.id FROM l a LEFT JOIN r b ON a.k = b.k WHERE b.k IS NULL",
    ] {
        let sel = select_of(sql);
        let run = |db: &Database| {
            run_select_over(db, &db.read_view(), &sel, &[], &left)
                .map(|rs| rs.rows)
                .map_err(|e| e.to_string())
        };
        let probed = run(&p.indexed);
        assert_eq!(probed, run(&p.plain), "{sql}");
        assert!(!probed.unwrap().is_empty(), "{sql}");
    }
    // Each zero finds both zeros, each one both ones.
    let sel = select_of("SELECT a.id FROM l a JOIN r b ON a.k = b.k");
    let view = p.indexed.read_view();
    let joined = run_select_over(&p.indexed, &view, &sel, &[], &left).unwrap();
    assert_eq!(joined.rows.len(), 2 * 6 + 2 * 4 + 2 + 1);
}

/// Rows reaching the join stage, summed over every statement so far.
fn joined_rows(db: &Database) -> f64 {
    db.metrics().expect("metrics attached").stage_join.sum()
}

/// The pre-join filter against its oracle: each JOIN statement runs
/// with `t` read from the catalogue (indexes, pre-join filter) and with
/// `t` bound as a relation holding the same rows. Rows, their order and
/// error text must agree; the catalogue side must also have joined
/// fewer rows often enough that the filter is known to be reached.
#[test]
fn joins_agree_with_the_base_bound_as_a_relation() {
    let mut p = Pair::new(16);
    for _ in 0..80 {
        p.insert(None);
    }
    let registry = easia_obs::Registry::new();
    p.indexed.attach_metrics(&registry);
    // `u` is joined by nested loop, `v` (same rows) by index probe; `w`
    // shares the name `id` with `t`.
    for ddl in [
        "CREATE TABLE u (uid INTEGER, k INTEGER, label VARCHAR(8))",
        "CREATE TABLE v (uid INTEGER, k INTEGER, label VARCHAR(8))",
        "CREATE INDEX ix_vk ON v (k)",
        "CREATE TABLE w (id INTEGER, k INTEGER)",
    ] {
        p.indexed.execute(ddl).unwrap();
    }
    for (i, k) in INTS.iter().enumerate() {
        let label = ["p", "q"][i % 2];
        for table in ["u", "v"] {
            p.indexed
                .execute_with_params(
                    &format!("INSERT INTO {table} VALUES (?, ?, ?)"),
                    &[
                        Value::Int(i as i64),
                        Value::Int(*k),
                        Value::Str(label.into()),
                    ],
                )
                .unwrap();
        }
        p.indexed
            .execute_with_params(
                "INSERT INTO w VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*k)],
            )
            .unwrap();
    }
    let base = p.indexed.execute("SELECT * FROM t").unwrap();
    let as_relation = [Relation::from_rows("T", base.columns, &base.rows)];

    let mut narrowed = 0;
    let mut errors = 0;
    let mut rows_seen = 0;
    let mut agree = |db: &Database, sql: &str, params: &[Value]| -> Result<usize, String> {
        let Stmt::Select(sel) = easia_db::sql::parse(sql).unwrap() else {
            unreachable!("{sql}");
        };
        let view = db.read_view();
        let run = |relations: &[Relation]| {
            let before = joined_rows(db);
            let out = run_select_over(db, &view, &sel, params, relations)
                .map(|rs| rs.rows)
                .map_err(|e| e.to_string());
            (out, joined_rows(db) - before)
        };
        let (catalogue, joined) = run(&[]);
        let (relation, joined_whole) = run(&as_relation);
        assert_eq!(catalogue, relation, "{sql}\nparams {params:?}");
        assert!(joined <= joined_whole, "{sql}");
        narrowed += usize::from(joined < joined_whole);
        match &catalogue {
            Ok(rows) => rows_seen += rows.len(),
            Err(_) => errors += 1,
        }
        catalogue.map(|rows| rows.len())
    };

    // Each kind of conjunct by hand, INNER and LEFT, probed and not.
    let int = Value::Int;
    for join in ["JOIN", "LEFT JOIN"] {
        for leg in ["u", "v"] {
            let from = format!("SELECT a.id, a.s, b.uid, b.label FROM t a {join} {leg} b");
            for (tail, params, raises) in [
                // Base-only conjuncts, one of them unqualified.
                ("ON a.n = b.k WHERE a.id < 20", vec![], false),
                (
                    "ON a.n = b.k WHERE a.s LIKE 'ab%' AND note = 'p'",
                    vec![],
                    false,
                ),
                (
                    "ON a.n = b.k WHERE a.id BETWEEN ? AND ?",
                    vec![int(3), int(40)],
                    false,
                ),
                ("ON a.n = b.k WHERE a.g IS NULL", vec![], false),
                // Right-leg and mixed conjuncts beside them.
                ("ON a.n = b.k WHERE b.label = 'p'", vec![], false),
                (
                    "ON a.n = b.k WHERE a.id < 30 AND b.label = 'q'",
                    vec![],
                    false,
                ),
                (
                    "ON a.n = b.k WHERE a.id < 30 AND b.label IS NULL",
                    vec![],
                    false,
                ),
                (
                    "ON a.n = b.k WHERE a.note = b.label AND a.id > 5",
                    vec![],
                    false,
                ),
                (
                    "ON a.n = b.k WHERE (a.id < 9 OR b.uid = 2) AND a.id < 50",
                    vec![],
                    false,
                ),
                // Constant conjuncts.
                ("ON a.n = b.k WHERE 1 = 1 AND a.id < 12", vec![], false),
                ("ON a.n = b.k WHERE 1 = 0", vec![], false),
                (
                    "ON a.n = b.k WHERE ? = 2 AND a.id < 12",
                    vec![int(2)],
                    false,
                ),
                ("ON a.n = b.k WHERE NULL = 1", vec![], false),
                // A WHERE that is not total: nothing narrows, the row
                // the filter would have dropped still raises.
                (
                    "ON a.n = b.k WHERE a.n LIKE 'x%' AND a.id = -5",
                    vec![],
                    true,
                ),
                ("ON a.n = b.k WHERE a.s > 3 AND a.id = -5", vec![], true),
                ("ON a.n = b.k WHERE b.label > 3 AND a.id = -5", vec![], true),
                ("ON a.n = b.k WHERE a.id < ? AND a.n = 3", vec![], true),
                // A name that does not resolve: raised before any row is
                // read, on both sides alike.
                ("ON a.n = b.k WHERE b.nope = 1 AND a.id = -5", vec![], true),
                // An ON that is not total.
                ("ON a.s > b.k WHERE a.id = -5", vec![], true),
                ("ON a.n = b.k + 100 WHERE a.id < 9", vec![], false),
            ] {
                let sql = format!("{from} {tail}");
                let out = agree(&p.indexed, &sql, &params);
                assert_eq!(out.is_err(), raises, "{sql}: {out:?}");
                if tail.contains("nope") {
                    assert_eq!(out, Err("evaluation error: unknown column B.NOPE".into()));
                }
            }
        }
        // `id` names a column of both legs: the statement raises, also
        // when no joined row is left to evaluate it on.
        let ambiguous = "evaluation error: ambiguous column reference ID".to_string();
        for pred in ["id < 5", "id < 5 AND 1 = 0"] {
            let sql = format!("SELECT a.s FROM t a {join} w b ON a.n = b.k WHERE {pred}");
            assert_eq!(
                agree(&p.indexed, &sql, &[]),
                Err(ambiguous.clone()),
                "{sql}"
            );
        }
    }
    // Two legs: the second ON sees the first leg's padding.
    let two = "SELECT a.id, b.uid, c.uid FROM t a LEFT JOIN u b ON a.n = b.k \
               JOIN v c ON c.k = a.n WHERE a.id < 40 AND c.label = 'p'";
    agree(&p.indexed, two, &[]).unwrap();

    // Random conjunctions over the base's columns (raising ones
    // included) beside a right-leg conjunct, ordered and limited.
    for round in 0..120 {
        let (pred, params) = p.predicate();
        let join = ["JOIN", "LEFT JOIN"][round % 2];
        let leg = ["u", "v"][round / 2 % 2];
        let extra = [
            "",
            " AND b.label = 'p'",
            " AND b.uid IS NULL",
            " AND note = b.label",
        ][round / 4 % 4];
        let rest = ["", " ORDER BY a.id DESC", " LIMIT 5"][round % 3];
        let sql = format!(
            "SELECT a.id, a.s, b.uid FROM t a {join} {leg} b ON a.n = b.k WHERE {pred}{extra}{rest}"
        );
        let _ = agree(&p.indexed, &sql, &params);
    }
    assert!(
        narrowed >= 60,
        "the pre-join filter narrowed only {narrowed} joins"
    );
    assert!(errors >= 20, "only {errors} statements raised");
    assert!(rows_seen >= 500, "only {rows_seen} rows returned");
}

// ---- the streaming filter against decode-first-evaluate-after ----

/// The executor's read counters: `rows_scanned`, `heap_scans`,
/// `index_scans`, then count and sum of the scan and filter stages.
fn reads(db: &Database) -> [f64; 7] {
    let m = db.metrics().expect("metrics attached");
    [
        m.rows_scanned.get(),
        m.heap_scans.get(),
        m.index_scans.get(),
        m.stage_scan.count() as f64,
        m.stage_scan.sum(),
        m.stage_filter.count() as f64,
        m.stage_filter.sum(),
    ]
}

/// What a statement whose base scan met `candidates` rows must have
/// moved: one scan of its kind booked in full, and the filter stage
/// observed (with the rows it kept) only if the statement got that far.
fn moved(candidates: usize, index: bool, kept: Option<usize>) -> [f64; 7] {
    let (c, probe) = (candidates as f64, f64::from(u8::from(index)));
    let filtered = f64::from(u8::from(kept.is_some()));
    let kept = kept.unwrap_or(0) as f64;
    [c, 1.0 - probe, probe, 1.0, c, filtered, kept]
}

fn since(db: &Database, before: [f64; 7]) -> [f64; 7] {
    let now = reads(db);
    std::array::from_fn(|i| now[i] - before[i])
}

/// How many of `visible` (the rows of `t` a view sees) the path chosen
/// for `pred` on `db` visits, and whether it is an index walk; `None`
/// when `pred` does not bind, and the statement reads nothing.
fn candidates(
    db: &Database,
    visible: &[Vec<Value>],
    pred: &Expr,
    params: &[Value],
) -> Option<(usize, bool)> {
    let table = db.table("T").unwrap();
    let AccessPath::IndexRange {
        index_pos,
        eq,
        tail,
        ..
    } = choose_access_path(db, table, "T", Some(pred), params).ok()?
    else {
        return Some((visible.len(), false));
    };
    let cols = &table.indexes[index_pos].col_indices;
    let below = |v: &Value| {
        tail.lower_bound()
            .is_some_and(|lo| v.total_cmp(&lo) == std::cmp::Ordering::Less)
    };
    let on_path = |row: &&Vec<Value>| {
        let run = eq
            .iter()
            .zip(cols)
            .all(|(v, &c)| row[c].total_cmp(v) == std::cmp::Ordering::Equal);
        let next = cols.get(eq.len()).map(|&c| &row[c]);
        run && next.is_none_or(|v| !below(v) && tail.admits(v))
    };
    Some((visible.iter().filter(on_path).count(), true))
}

/// The statement's error when one of `exprs`, in order, does not bind
/// against `schema`: what the executor raises before it reads a row.
fn unbound(db: &Database, schema: &RowSchema, exprs: &[&Expr]) -> Result<(), String> {
    for e in exprs {
        schema
            .bind(e, db.functions(), &[])
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The materialising reference: `pred` is bound against `schema` (a
/// name it does not resolve is the error, whatever the rows), then
/// `rows` are all there before the first is looked at; `pred` is
/// evaluated on each in order by the owning evaluator, and the first
/// error ends it.
fn filter_after(
    db: &Database,
    schema: &RowSchema,
    rows: Vec<Vec<Value>>,
    pred: &Expr,
    params: &[Value],
) -> Result<Vec<Vec<Value>>, String> {
    let pred = schema
        .bind(pred, db.functions(), &[])
        .map_err(|e| e.to_string())?;
    let mut kept = Vec::new();
    for row in rows {
        let ctx = EvalContext::new(&row, params);
        if truth(&ctx.eval(&pred).map_err(|e| e.to_string())?) == Some(true) {
            kept.push(row);
        }
    }
    Ok(kept)
}

/// `SELECT * FROM t a [LEFT] JOIN <leg> b ON .. WHERE ..` by the book,
/// over the legs' rows `left` and `right` joined as `schema`: every
/// pairing of whole rows through ON, padding for LEFT, then the WHERE
/// over the joined rows.
fn join_after(
    db: &Database,
    schema: &RowSchema,
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    sel: &SelectStmt,
    params: &[Value],
) -> Result<Vec<Vec<Value>>, String> {
    let join = &sel.joins[0];
    let mut joined = Vec::new();
    for l in left {
        let pairings: Vec<Vec<Value>> = right.iter().map(|r| [&l[..], r].concat()).collect();
        let matched = filter_after(db, schema, pairings, &join.on, params)?;
        if matched.is_empty() && join.kind == JoinKind::Left {
            let mut padded = l.clone();
            padded.resize(schema.columns.len(), Value::Null);
            joined.push(padded);
        }
        joined.extend(matched);
    }
    filter_after(
        db,
        schema,
        joined,
        sel.where_clause.as_ref().unwrap(),
        params,
    )
}

fn select_of(sql: &str) -> SelectStmt {
    match easia_db::sql::parse(sql).unwrap() {
        Stmt::Select(sel) => sel,
        other => unreachable!("{other:?}"),
    }
}

/// What the checks below saw, so the test can demand they saw enough.
#[derive(Default, Debug)]
struct Seen {
    raised: usize,
    index_walks: usize,
    returned: usize,
}

/// One single-table statement, inside `view`'s transaction or outside
/// any: indexed table, un-indexed table and (outside) the same rows as
/// a relation must all give the reference's answer and book the scan the
/// reference implies — also when the predicate raises part-way.
fn check_select(
    p: &mut Pair,
    view: Option<(TxnId, TxnId)>,
    pred: &str,
    params: &[Value],
    limit: &str,
    seen: &mut Seen,
) {
    let all = p.both(view, "SELECT * FROM t", &[]).unwrap().0;
    let columns: Vec<String> = p
        .indexed
        .table("T")
        .unwrap()
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let sql = format!("SELECT * FROM t WHERE {pred}{limit}");
    let sel = select_of(&sql);
    let pred = sel.where_clause.as_ref().unwrap();
    let schema = RowSchema::for_table("T", &columns);
    let kept = filter_after(&p.plain, &schema, all.clone(), pred, params);
    let expected = kept.clone().map(|mut rows| {
        rows.truncate(sel.limit.unwrap_or(usize::MAX));
        rows
    });
    let kept = kept.ok().map(|rows| rows.len());
    // The scan each side books: none for a statement that did not bind.
    let path = candidates(&p.indexed, &all, pred, params);
    let scan = |whole: bool| match path {
        Some(_) if whole => moved(all.len(), false, kept),
        Some((on_path, index)) => moved(on_path, index, kept),
        None => [0.0; 7],
    };
    let index = path.is_some_and(|(_, index)| index);
    assert!(
        expected.is_ok() || !index,
        "{sql}: a raising predicate narrowed"
    );

    let (before_ix, before_plain) = (reads(&p.indexed), reads(&p.plain));
    let got = p.both(view, &sql, params).map(|(rows, _)| rows);
    assert_eq!(got, expected, "{sql}\nparams {params:?}");
    assert_eq!(since(&p.indexed, before_ix), scan(false), "{sql}");
    assert_eq!(since(&p.plain, before_plain), scan(true), "{sql}");

    if view.is_none() {
        let relation = [Relation::from_rows("T", columns, &all)];
        let before = reads(&p.indexed);
        let over = run_select_over(&p.indexed, &p.indexed.read_view(), &sel, params, &relation)
            .map(|rs| rs.rows)
            .map_err(|e| e.to_string());
        assert_eq!(over, expected, "{sql} over a relation");
        assert_eq!(since(&p.indexed, before), scan(true), "{sql}");
    }
    seen.raised += usize::from(expected.is_err());
    seen.index_walks += usize::from(index);
    seen.returned += expected.map_or(0, |rows| rows.len());
}

/// One two-table statement against [`join_after`], with `t` read from
/// the catalogue (both databases) and bound as a relation.
fn check_join(
    p: &mut Pair,
    kind: &str,
    leg: &str,
    on: &str,
    pred: &str,
    params: &[Value],
    seen: &mut Seen,
) {
    let t = p.indexed.execute("SELECT * FROM t").unwrap();
    let right = p.indexed.execute(&format!("SELECT * FROM {leg}")).unwrap();
    let sql = format!("SELECT * FROM t a {kind} {leg} b ON {on} WHERE {pred}");
    let sel = select_of(&sql);
    // Names first — the ON's, then the WHERE's — then the rows.
    let schema =
        RowSchema::for_table("A", &t.columns).join(&RowSchema::for_table("B", &right.columns));
    let binds = unbound(
        &p.plain,
        &schema,
        &[&sel.joins[0].on, sel.where_clause.as_ref().unwrap()],
    );
    let expected = binds
        .clone()
        .and_then(|()| join_after(&p.plain, &schema, &t.rows, &right.rows, &sel, params));
    let before = reads(&p.plain);
    let got = p.both(None, &sql, params).map(|(rows, _)| rows);
    assert_eq!(got, expected, "{sql}\nparams {params:?}");
    // The un-indexed base is read whole, the right leg is not a booked
    // scan, and the filter stage is observed only by a statement that
    // got through it; a statement that did not bind reads nothing.
    let kept = expected.as_ref().ok().map(|rows| rows.len());
    let scanned = match binds {
        Ok(()) => moved(t.rows.len(), false, kept),
        Err(_) => [0.0; 7],
    };
    assert_eq!(since(&p.plain, before), scanned, "{sql}");
    let relation = [Relation::from_rows("T", t.columns, &t.rows)];
    let over = run_select_over(&p.indexed, &p.indexed.read_view(), &sel, params, &relation)
        .map(|rs| rs.rows)
        .map_err(|e| e.to_string());
    assert_eq!(over, expected, "{sql} over a relation");
    seen.raised += usize::from(expected.is_err());
    seen.returned += expected.map_or(0, |rows| rows.len());
}

/// Error phases: every row is filtered before any is projected, grouped
/// or sorted, and every row is projected before any ORDER BY key is
/// asked for. A select item, an aggregate argument, a grouping key or
/// an ORDER BY key that raises on an early row therefore loses to a
/// WHERE that raises on a later one (row 60 divides by zero), and an
/// ORDER BY key raising early loses to a select item raising late. Each
/// phase raises its own message, so the winner is in the error text.
fn check_phases(p: &mut Pair, view: Option<(TxnId, TxnId)>, seen: &mut Seen) {
    let late = "id / (id - 60) > 1";
    let where_err = p
        .both(view, &format!("SELECT * FROM t WHERE {late}"), &[])
        .unwrap_err();
    assert!(where_err.contains("division by zero"), "{where_err}");
    let all = p.both(view, "SELECT * FROM t", &[]).unwrap().0;
    let columns: Vec<String> = ["ID", "G", "S", "N", "X", "NOTE"].map(String::from).into();
    // (statement with `{w}` for its WHERE, what raises early without one)
    for (shape, early) in [
        ("SELECT id, ABS(s) FROM t WHERE {w}", "ABS expects a number"),
        (
            "SELECT SUM(ROUND(g)) FROM t WHERE {w}",
            "ROUND expects a number",
        ),
        (
            "SELECT g, COUNT(*) FROM t WHERE {w} GROUP BY g, ABS(s)",
            "ABS expects a number",
        ),
        (
            "SELECT g, MAX(n) FROM t WHERE {w} GROUP BY g ORDER BY UPPER(MAX(n))",
            "expected a string argument",
        ),
        (
            "SELECT id FROM t WHERE {w} ORDER BY UPPER(n)",
            "expected a string argument",
        ),
        (
            "SELECT id, n FROM t WHERE {w} ORDER BY n DESC, UPPER(n) LIMIT 3",
            "expected a string argument",
        ),
        (
            "SELECT DISTINCT g, ABS(s) FROM t WHERE {w} ORDER BY UPPER(n) LIMIT 2",
            "ABS expects a number",
        ),
        (
            "SELECT id / (id - 60) FROM t WHERE {w} ORDER BY UPPER(n)",
            "division by zero",
        ),
    ] {
        for (pred, want) in [(late, where_err.as_str()), ("id >= 0", early)] {
            let sql = shape.replace("{w}", pred);
            let err = p.both(view, &sql, &[]).unwrap_err();
            assert!(err.contains(want), "{sql}: {err}");
            if view.is_none() {
                let relation = [Relation::from_rows("T", columns.clone(), &all)];
                let over = run_select_over(
                    &p.indexed,
                    &p.indexed.read_view(),
                    &select_of(&sql),
                    &[],
                    &relation,
                )
                .map(|rs| rs.rows)
                .map_err(|e| e.to_string());
                assert_eq!(over, Err(err), "{sql} over a relation");
            }
            seen.raised += 1;
        }
    }
}

#[test]
fn the_streaming_filter_is_decode_first_evaluate_after() {
    let mut seen = Seen::default();
    for seed in [3, 19, 42] {
        let mut p = Pair::new(seed);
        let (ri, rp) = (easia_obs::Registry::new(), easia_obs::Registry::new());
        p.indexed.attach_metrics(&ri);
        p.plain.attach_metrics(&rp);
        for _ in 0..70 {
            p.insert(None);
        }
        // Another session's open transaction. Row 3 is gone for it and
        // still there for everyone else; row `own` exists for it alone;
        // rows 7..10 have moved to the end of its heap order.
        let (a, b) = (p.indexed.begin_txn(), p.plain.begin_txn());
        let txn = Some((a, b));
        let own = p.next_id;
        for _ in 0..6 {
            p.insert(txn);
        }
        p.both(txn, "DELETE FROM t WHERE id = 3", &[]).unwrap();
        p.both(txn, "UPDATE t SET n = 1 WHERE id > 6 AND id < 10", &[])
            .unwrap();

        for view in [None, txn] {
            // Generated conjunctions: total ones narrow on the indexed
            // side, constants of the wrong family raise part-way.
            for round in 0..40 {
                let (pred, params) = p.predicate();
                let limit = ["", "", " LIMIT 3"][round % 3];
                check_select(&mut p, view, &pred, &params, limit, &mut seen);
            }
            // Predicates that are not total, each raising on particular
            // rows: which row raises first is in the error text. A name
            // that does not resolve raises before any row, whatever the
            // rest of the predicate would have done.
            let on_row_3 = "id / (id - 3) > 1".to_string();
            let on_own_row = format!("id / (id - {own}) > 1");
            let by_row = format!(
                "(id <> 5 OR 'a' > n) AND (id <> 3 OR id / (id - 3) > 1) \
                 AND (id <> {own} OR nope = 1)"
            );
            for pred in [
                on_row_3.as_str(),
                &on_own_row,
                &by_row,
                "'a' > n",
                "n > 2 AND 'a' > n",
                "nope = 1",
                "t.id = 1 AND zz.id = 1",
                "id < 0 AND nope = 1",
                "id = 4 OR nope = 1",
            ] {
                check_select(&mut p, view, pred, &[], "", &mut seen);
            }
            // The deleted row raises for those who still see it, the
            // inserted one for its writer, neither for the other side.
            let raises = |p: &mut Pair, pred: &str| {
                p.both(view, &format!("SELECT * FROM t WHERE {pred}"), &[])
                    .is_err()
            };
            assert_eq!(raises(&mut p, &on_row_3), view.is_none());
            assert_eq!(raises(&mut p, &on_own_row), view.is_some());
            check_phases(&mut p, view, &mut seen);
        }

        // A table whose only rows belong to the open transaction: to
        // everyone else it is empty, and an empty scan evaluates nothing
        // — but a name that does not resolve raises before the scan, so
        // it raises for everyone, and over an empty relation too.
        p.both(None, "CREATE TABLE e (k INTEGER, s VARCHAR(8))", &[])
            .unwrap();
        p.both(txn, "INSERT INTO e VALUES (1, 'x')", &[]).unwrap();
        let unknown = "SELECT * FROM e WHERE nope = 1";
        let raised = "evaluation error: unknown column NOPE".to_string();
        let before = reads(&p.indexed);
        assert_eq!(p.both(None, unknown, &[]), Err(raised.clone()));
        assert_eq!(p.both(txn, unknown, &[]), Err(raised.clone()));
        let empty = [Relation::from_rows("E", vec!["K".into(), "S".into()], &[])];
        let over = run_select_over(
            &p.indexed,
            &p.indexed.read_view(),
            &select_of(unknown),
            &[],
            &empty,
        );
        assert_eq!(
            over.map(|rs| rs.rows).map_err(|e| e.to_string()),
            Err(raised)
        );
        assert_eq!(since(&p.indexed, before), [0.0; 7], "nothing was read");

        p.indexed.commit_txn(a).unwrap();
        p.plain.commit_txn(b).unwrap();

        // JOINs: `u` is met by nested loop, `v` (same rows, indexed on
        // `k`) by index probe; `w` shares the name `id` with `t`.
        for ddl in [
            "CREATE TABLE u (uid INTEGER, k INTEGER, label VARCHAR(8))",
            "CREATE TABLE v (uid INTEGER, k INTEGER, label VARCHAR(8))",
            "CREATE INDEX ix_vk ON v (k)",
            "CREATE TABLE w (id INTEGER, k INTEGER)",
        ] {
            p.both(None, ddl, &[]).unwrap();
        }
        for (i, k) in INTS.iter().enumerate() {
            let label = Value::Str(["p", "q"][i % 2].into());
            let row = [Value::Int(i as i64), Value::Int(*k), label];
            p.both(None, "INSERT INTO u VALUES (?, ?, ?)", &row)
                .unwrap();
            p.both(None, "INSERT INTO v VALUES (?, ?, ?)", &row)
                .unwrap();
            p.both(None, "INSERT INTO w VALUES (?, ?)", &row[..2])
                .unwrap();
        }
        for round in 0..40 {
            let (pred, params) = p.predicate();
            let kind = ["JOIN", "LEFT JOIN"][round % 2];
            let leg = ["u", "v"][round / 2 % 2];
            let extra = [
                "",
                " AND b.label = 'p'",
                " AND b.uid IS NULL",
                " AND note = b.label",
            ][round / 4 % 4];
            check_join(
                &mut p,
                kind,
                leg,
                "a.n = b.k",
                &format!("{pred}{extra}"),
                &params,
                &mut seen,
            );
        }
        for kind in ["JOIN", "LEFT JOIN"] {
            for (leg, on, pred) in [
                ("u", "a.n = b.k", "a.id / (a.id - 3) > 1"),
                ("v", "a.n = b.k", "a.id < 30 AND 'a' > a.n"),
                ("u", "a.n = b.k", "b.nope = 1 AND a.id = -5"),
                ("w", "a.n = b.k", "id < 5"),
                ("w", "a.n = b.k", "a.id < 5 AND k = 1"),
                ("u", "a.s > b.k", "a.id = -5"),
                ("u", "a.n = b.k + 100", "a.id < 9 AND b.uid IS NULL"),
                ("v", "b.k = a.n", "a.s LIKE 'ab%' AND b.label = 'p'"),
                // An ON conjunct or key that raises on pairings the index
                // would not return: the probe may not skip them.
                ("u", "b.label > 5 AND a.n = b.k", "a.id < 30"),
                ("v", "b.label > 5 AND a.n = b.k", "a.id < 30"),
                ("v", "a.n = b.k AND b.label > 5", "a.id < 30"),
                ("v", "b.uid < 0 AND b.k = a.id / (a.id - 5)", "a.id < 30"),
                // A key the indexed column cannot be compared with meets
                // the whole leg, as the nested loop would.
                ("u", "a.s = b.k", "a.id < 30"),
                ("v", "a.s = b.k", "a.id < 30"),
            ] {
                check_join(&mut p, kind, leg, on, pred, &[], &mut seen);
            }
        }
    }
    assert!(seen.raised >= 60, "{seen:?}");
    assert!(seen.index_walks >= 60, "{seen:?}");
    assert!(seen.returned >= 2_000, "{seen:?}");
}

/// Every kind of statement error is raised before any row is read: the
/// same text over an empty table, a 1,000-row table, a table whose index
/// the WHERE would walk and the rows bound as a relation, and not one
/// row scanned. INSERT and UPDATE write nothing.
#[test]
fn statement_errors_are_raised_before_any_row_is_read() {
    let mut db = Database::new_in_memory();
    let registry = easia_obs::Registry::new();
    db.attach_metrics(&registry);
    for ddl in [
        "CREATE TABLE e (id INTEGER, s VARCHAR(8))",
        "CREATE TABLE k (id INTEGER, s VARCHAR(8))",
        "CREATE TABLE x (id INTEGER, s VARCHAR(8))",
        "CREATE INDEX ix_id ON x (id)",
    ] {
        db.execute(ddl).unwrap();
    }
    for id in 0..1_000 {
        let row = [Value::Int(id), Value::Str(format!("s{}", id % 7))];
        for table in ["k", "x"] {
            db.execute_with_params(&format!("INSERT INTO {table} VALUES (?, ?)"), &row)
                .unwrap();
        }
    }
    let rows = db.execute("SELECT * FROM k").unwrap();
    let relation = [Relation::from_rows("R", rows.columns, &rows.rows)];
    let scanned = |db: &Database| db.metrics().unwrap().rows_scanned.get();
    let index_scans = |db: &Database| db.metrics().unwrap().index_scans.get();
    // Without its error the statement walks the index.
    let before = index_scans(&db);
    db.execute("SELECT id FROM x WHERE id = 7").unwrap();
    assert_eq!(index_scans(&db) - before, 1.0);

    let unknown = "evaluation error: unknown column NOPE";
    for (shape, raised) in [
        ("SELECT id FROM {t} WHERE id = 7 AND nope = 1", unknown),
        ("SELECT id FROM {t} WHERE id = 7 OR nope = 1", unknown),
        ("SELECT nope FROM {t} WHERE id = 7", unknown),
        ("SELECT id + nope FROM {t} WHERE id = 7", unknown),
        (
            "SELECT COUNT(*) FROM {t} WHERE id = 7 GROUP BY nope",
            unknown,
        ),
        ("SELECT SUM(nope) FROM {t} WHERE id = 7", unknown),
        (
            "SELECT s, COUNT(*) FROM {t} WHERE id = 7 GROUP BY s HAVING nope > 1",
            unknown,
        ),
        ("SELECT id FROM {t} WHERE id = 7 ORDER BY nope", unknown),
        (
            "SELECT a.id FROM {t} a JOIN k b ON a.id = b.nope WHERE a.id = 7",
            "evaluation error: unknown column B.NOPE",
        ),
        (
            "SELECT a.id FROM {t} a LEFT JOIN k b ON a.id = b.id WHERE id = 7",
            "evaluation error: ambiguous column reference ID",
        ),
        (
            "SELECT NO_SUCH(id) FROM {t} WHERE id = 7",
            "evaluation error: unknown function NO_SUCH",
        ),
        (
            "SELECT id FROM {t} WHERE id = 7 AND COUNT(*) > 1",
            "evaluation error: COUNT(*) is only valid as an aggregate",
        ),
        (
            "SELECT SUM() FROM {t} WHERE id = 7",
            "evaluation error: SUM expects 1 argument(s), got 0",
        ),
        (
            "SELECT q.* FROM {t} WHERE id = 7",
            "evaluation error: unknown table alias Q in Q.*",
        ),
        (
            "SELECT * FROM {t} WHERE id = 7 GROUP BY s",
            "evaluation error: wildcard not allowed with GROUP BY / aggregates",
        ),
        (
            "SELECT a.id FROM {t} a JOIN k b ON a.id = b.id JOIN nowhere c ON c.id = a.id \
             WHERE a.id = 7",
            "catalog error: table NOWHERE does not exist",
        ),
    ] {
        let mut got = Vec::new();
        for t in ["e", "k", "x"] {
            let before = scanned(&db);
            let out = db
                .execute(&shape.replace("{t}", t))
                .map_err(|e| e.to_string());
            got.push((t, out.map(|rs| rs.rows), scanned(&db) - before));
        }
        let sel = select_of(&shape.replace("{t}", "r"));
        let before = scanned(&db);
        let over = run_select_over(&db, &db.read_view(), &sel, &[], &relation);
        let over = over.map(|rs| rs.rows).map_err(|e| e.to_string());
        got.push(("relation", over, scanned(&db) - before));
        for (source, out, rows) in got {
            assert_eq!(out, Err(raised.to_string()), "{shape} over {source}");
            assert_eq!(rows, 0.0, "{shape} over {source} read a row");
        }
    }
    // INSERT values and UPDATE assignments: the same rule, nothing written.
    for (shape, raised) in [
        ("INSERT INTO {t} VALUES (1, 'a'), (nope, 'b')", unknown),
        ("UPDATE {t} SET s = nope WHERE id = 7", unknown),
        ("UPDATE {t} SET s = LOWER(nope) WHERE id < 0", unknown),
        (
            "UPDATE {t} SET s = NO_SUCH(s) WHERE id = 7",
            "evaluation error: unknown function NO_SUCH",
        ),
    ] {
        for t in ["e", "k", "x"] {
            let sql = shape.replace("{t}", t);
            let content = db.execute(&format!("SELECT * FROM {t}")).unwrap().rows;
            let before = scanned(&db);
            let err = db.execute(&sql).unwrap_err().to_string();
            assert_eq!(
                (err.as_str(), scanned(&db) - before),
                (raised, 0.0),
                "{sql}"
            );
            assert_eq!(
                db.execute(&format!("SELECT * FROM {t}")).unwrap().rows,
                content
            );
        }
    }
}

// ---- the sieve against a base that never sieves ----

/// A total WHERE's restrictions reject a full scan's records on their
/// bytes, before any cell is decoded; a relation is never sieved. So
/// each statement runs against the catalogue table `s` (no index: every
/// read is a full scan under the sieve) and against the same rows bound
/// as a relation, and must agree on rows, order and error text — for
/// each restriction kind on each column type, NULL cells, ±0.0, an
/// INTEGER column held against DOUBLE constants, a stored NaN (which
/// still raises), WHEREs that are not total, and JOIN bases. The sieve's
/// walk stops early — at the last restricted cell, or at the first
/// refusal once no later cell the WHERE reads can hold a NaN — so `w`
/// restricts a column after a CLOB, its last column, and, under an
/// index walk, any column; two restrictions where only the later one
/// refuses; and a NaN read after the refusing cell.
#[test]
fn the_sieve_agrees_with_the_base_bound_as_a_relation() {
    let mut db = Database::new_in_memory();
    for ddl in [
        "CREATE TABLE s (id INTEGER, t VARCHAR(16), n INTEGER, x DOUBLE, c CLOB)",
        "CREATE TABLE z (id INTEGER, t VARCHAR(16), x DOUBLE)",
        "CREATE TABLE u (k INTEGER, label VARCHAR(8))",
        "CREATE TABLE w (id INTEGER, c CLOB, t VARCHAR(16), x DOUBLE, n INTEGER)",
        "CREATE INDEX ix_w_id ON w (id)",
    ] {
        db.execute(ddl).unwrap();
    }
    let texts = [
        "",
        "a",
        "ab",
        "abc",
        "abd",
        "ac",
        "a_c",
        "b",
        "é",
        "éa",
        "ab\u{10FFFF}",
    ];
    let ints = [-7, 0, 1, 2, 3, 5, TWO_53, TWO_53 + 1];
    let doubles = [-1.5, -0.0, 0.0, 1.0, 1.5, 2.0, 2.5, TWO_53 as f64];
    let mut rng = StdRng::seed_from_u64(27);
    for id in 0..120 {
        let row = [
            Value::Int(id),
            or_null(Value::Str(pick(&mut rng, &texts).into()), &mut rng),
            or_null(Value::Int(pick(&mut rng, &ints)), &mut rng),
            or_null(Value::Double(pick(&mut rng, &doubles)), &mut rng),
            or_null(
                Value::Str(format!("doc {}", rng.gen_range(0..40))),
                &mut rng,
            ),
        ];
        db.execute_with_params("INSERT INTO s VALUES (?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    // A NaN whose row every LIKE 'a%' below refuses, one whose text is
    // NULL, and rows around them.
    for (id, t, x) in [
        (1, Value::Str("ab".into()), Value::Double(1.0)),
        (2, Value::Str("zz".into()), Value::Double(f64::NAN)),
        (3, Value::Str("ac".into()), Value::Double(-0.0)),
        (4, Value::Null, Value::Double(f64::NAN)),
        (5, Value::Str("a".into()), Value::Double(7.0)),
    ] {
        db.execute_with_params("INSERT INTO z VALUES (?, ?, ?)", &[Value::Int(id), t, x])
            .unwrap();
    }
    // `w`: ids 0..80, a NaN at ids 40 and 41, whose t and n are NULL:
    // every restriction on either refuses them.
    for id in 0..80 {
        let nan = matches!(id, 40 | 41);
        let or_nan = |v: Value, rng: &mut StdRng| match nan {
            true => Value::Null,
            false => or_null(v, rng),
        };
        let x = match nan {
            true => Value::Double(f64::NAN),
            false => or_null(Value::Double(pick(&mut rng, &doubles)), &mut rng),
        };
        let row = [
            Value::Int(id),
            or_null(
                Value::Clob(format!("doc {}", rng.gen_range(0..40))),
                &mut rng,
            ),
            or_nan(Value::Str(pick(&mut rng, &texts).into()), &mut rng),
            x,
            or_nan(Value::Int(pick(&mut rng, &ints)), &mut rng),
        ];
        db.execute_with_params("INSERT INTO w VALUES (?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    for k in [-7, 0, 1, 2, 3, 5] {
        let row = [Value::Int(k), Value::Str(format!("k{k}"))];
        db.execute_with_params("INSERT INTO u VALUES (?, ?)", &row)
            .unwrap();
    }
    let mut relation = |table: &str| {
        let rs = db.execute(&format!("SELECT * FROM {table}")).unwrap();
        Relation::from_rows(&table.to_ascii_uppercase(), rs.columns, &rs.rows)
    };
    let bases = [relation("s"), relation("z"), relation("w")];
    let (mut returned, mut raised) = (0, 0);
    let mut agree = |sql: &str, params: &[Value]| {
        let sel = select_of(sql);
        let view = db.read_view();
        let run = |relations: &[Relation]| {
            run_select_over(&db, &view, &sel, params, relations)
                .map(|rs| rs.rows)
                .map_err(|e| e.to_string())
        };
        let sieved = run(&[]);
        assert_eq!(sieved, run(&bases), "{sql}\nparams {params:?}");
        match &sieved {
            Ok(rows) => returned += rows.len(),
            Err(_) => raised += 1,
        }
        sieved
    };

    let preds = [
        // VARCHAR: each comparison, either way round, and BETWEEN.
        "t = 'ab'",
        "t < 'ab'",
        "t <= 'abc'",
        "t > 'ab'",
        "t >= 'abc'",
        "'b' > t",
        "'ab' <= t",
        "t BETWEEN 'a' AND 'ab\u{10FFFF}'",
        "t BETWEEN 'b' AND 'a'",
        // LIKE: a prefix up to `_`, no wildcard, a `%` inside, NOT LIKE.
        "t LIKE 'ab%'",
        "t LIKE 'a_c%'",
        "t LIKE 'a_%'",
        "t LIKE 'abc'",
        "t LIKE 'a%c'",
        "t LIKE 'é%'",
        "t NOT LIKE 'ab%'",
        // INTEGER, and INTEGER against DOUBLE constants (past 2^53 too).
        "n = 3",
        "n < 2",
        "n >= 2",
        "3 <= n",
        "n BETWEEN 0 AND 5",
        "n < 2.5",
        "n >= 2.0",
        "n = 3.0",
        "n BETWEEN 1.5 AND 3.5",
        "n > 9007199254740992.0",
        "n >= 9007199254740992.0",
        "n = 9007199254740993",
        // DOUBLE, ±0.0 among the cells.
        "x = 0",
        "x = -0.0",
        "x < 0",
        "x <= 0",
        "x >= 0.0",
        "x > -0.0",
        "x BETWEEN -0.0 AND 1",
        "x = 1.5",
        "x < 2",
        "2.5 <= x",
        "x > 1",
        // CLOB, either way round.
        "c = 'doc 11'",
        "c < 'doc 3'",
        "c >= 'doc 25'",
        "'doc 2' > c",
        "c BETWEEN 'doc 1' AND 'doc 2'",
        "c LIKE 'doc 1%'",
        // Several restrictions, and conjuncts that restrict nothing.
        "t LIKE 'a%' AND n >= 2 AND x < 3",
        "t >= 'ab' AND t < 'ac' AND c > 'doc'",
        "(t = 'a' OR n = 1) AND x >= 0",
        "n = NULL",
        "t LIKE ? AND n > ?",
        "x IS NULL AND t LIKE 'a%'",
        // Not total: nothing is sieved, and the rows raise.
        "t LIKE 'ab%' AND n > 'x'",
        "t = 5",
        "n LIKE 'a%'",
        "t LIKE 'ab%' AND n / 0 = 1",
    ];
    let params = [Value::Str("ab%".into()), Value::Int(0)];
    for pred in preds {
        let p: &[Value] = if pred.contains('?') { &params } else { &[] };
        for rest in ["", " LIMIT 3", " ORDER BY id DESC"] {
            let _ = agree(&format!("SELECT * FROM s WHERE {pred}{rest}"), p);
        }
        // A JOIN base is sieved by its own conjuncts: the names are
        // `s`'s alone.
        for join in ["JOIN", "LEFT JOIN"] {
            let sql =
                format!("SELECT a.id, a.t, b.label FROM s a {join} u b ON a.n = b.k WHERE {pred}");
            let _ = agree(&sql, p);
        }
    }
    // A stored NaN raises in every comparison: a row the sieve refuses
    // on its text is kept when the WHERE reads a NaN beside it. (Under a
    // JOIN the pre-join filter drops such a row whenever another of its
    // own conjuncts is false: DESIGN.md's inherited NaN limit.)
    for pred in [
        "x <> 5 AND t LIKE 'a%'",
        "t LIKE 'a%' AND x > 0",
        "x = 1 AND t = 'ab'",
        "t >= 'a' AND t < 'b' AND x < 100",
    ] {
        let single = agree(&format!("SELECT * FROM z WHERE {pred}"), &[]);
        assert_eq!(
            single,
            Err("type error: cannot compare DOUBLE with INTEGER".into()),
            "{pred}"
        );
    }
    // The walk stops at the last restricted cell, or after a refusal:
    // a column after a CLOB, the last column, two restrictions of which
    // the later one refuses, each over a full scan of `w` and, with
    // `id` bound, under a walk of its index that is sieved the same way.
    let cannot_compare = Err("type error: cannot compare DOUBLE with INTEGER".to_string());
    let walks = [
        ("", ""),
        ("id BETWEEN 10 AND 39 AND ", " LIMIT 5"),
        ("id >= 42 AND ", " ORDER BY id DESC"),
    ];
    for pred in [
        "t LIKE 'a%'",
        "t = 'ab'",
        "t >= 'b'",
        "c LIKE 'doc 1%' AND t < 'b'",
        "n = 2",
        "n BETWEEN 0 AND 3",
        "n >= 9007199254740992.0",
        "t >= '' AND n = 3",
        "c >= 'doc' AND t LIKE 'ab%'",
        "t LIKE 'a%' AND n < 2.5",
        "x >= -1 AND n = 1",
    ] {
        for (index, rest) in walks {
            let sql = format!("SELECT * FROM w WHERE {index}{pred}{rest}");
            let _ = agree(&sql, &[]);
            let _ = agree(&sql.replace("SELECT *", "SELECT id, n"), &[]);
        }
    }
    let index_walk = db.table("W").and_then(|w| {
        let pred = select_of("SELECT * FROM w WHERE id >= 42 AND n = 2").where_clause;
        choose_access_path(&db, w, "W", pred.as_ref(), &[]).ok()
    });
    assert!(
        matches!(index_walk, Some(AccessPath::IndexRange { .. })),
        "{index_walk:?}"
    );
    // A NaN read after the refusing cell keeps its row, whose WHERE
    // raises: on the full scan, and under an index walk that reaches it.
    for sql in [
        "SELECT * FROM w WHERE t LIKE 'zz%' AND x > 0",
        "SELECT * FROM w WHERE t = 'b' AND x < 100",
        "SELECT * FROM w WHERE id BETWEEN 30 AND 50 AND t LIKE 'zz%' AND x > 0",
        "SELECT id FROM z WHERE x < 100 AND id = 1",
    ] {
        assert_eq!(agree(sql, &[]), cannot_compare, "{sql}");
    }
    // One the walk does not reach, or whose x the WHERE does not read,
    // raises nothing.
    for sql in [
        "SELECT * FROM w WHERE id < 40 AND t LIKE 'zz%' AND x > 0",
        "SELECT * FROM w WHERE id >= 40 AND t LIKE 'zz%'",
    ] {
        assert_eq!(agree(sql, &[]), Ok(vec![]), "{sql}");
    }
    let unread = agree("SELECT id FROM z WHERE t LIKE 'a%'", &[]);
    assert_eq!(
        unread,
        Ok(vec![
            vec![Value::Int(1)],
            vec![Value::Int(3)],
            vec![Value::Int(5)]
        ])
    );
    assert!(returned >= 3_000, "only {returned} rows returned");
    assert!(raised >= 20, "only {raised} statements raised");
}

/// A restricting conjunct on one of `decided_table`'s columns, its own
/// column, as generated: a comparison either way round, strict or
/// inclusive, a BETWEEN, or a LIKE of each pattern shape the sieve meets
/// — `'lit%'` (decided), `'lit_%'`, `'lit%x'`, `'lit'` and `'%'`.
fn restriction(rng: &mut StdRng, col: &str, kind: &str) -> String {
    let op = pick(rng, &["=", "<", "<=", ">", ">="]);
    let flipped = |op: &str| {
        match op {
            "<" => ">",
            "<=" => ">=",
            ">" => "<",
            ">=" => "<=",
            other => other,
        }
        .to_string()
    };
    let konst = match kind {
        "text" => format!(
            "'{}'",
            pick(rng, &["", "a", "ab", "ab_", "abc", "ac", "b", "é"])
        ),
        _ => pick(
            rng,
            &[
                "-1",
                "0",
                "1",
                "2",
                "2.5",
                "-0.0",
                "0.0",
                "1.0",
                "9007199254740992",
                "9007199254740993",
                "9007199254740992.0",
                "9007199254740993.0",
            ],
        )
        .to_string(),
    };
    match rng.gen_range(0..6) {
        0 => format!("{konst} {} {col}", flipped(op)),
        1 => {
            let other = match kind {
                "text" => format!("'{}'", pick(rng, &["ab", "abd", "b", "é"])),
                _ => pick(rng, &["1", "2.5", "9007199254740993"]).to_string(),
            };
            format!("{col} BETWEEN {konst} AND {other}")
        }
        2 | 3 if kind == "text" => {
            let lit = pick(rng, &["a", "ab", "abc", "é"]);
            let pattern = pick(rng, &["{}%", "{}_%", "{}%c", "{}", "%"]).replace("{}", lit);
            format!("{col} LIKE '{pattern}'")
        }
        _ => format!("{col} {op} {konst}"),
    }
}

/// The sieve decides the conjuncts its tests decide exactly — typed
/// `col = c`, bounds with their strictness, `LIKE 'lit%'` — and a row it
/// decides is filtered by the other conjuncts alone. So every statement
/// must read as it does over the same rows as a relation, which is never
/// sieved and evaluates every conjunct: generated conjunctions of
/// strict and inclusive bounds, INTEGER columns held against DOUBLE
/// constants (`2^53` beside `2^53 + 1`), the same text as VARCHAR, CLOB
/// and DATALINK under every LIKE shape, NULLs, ±0.0, and a second table
/// whose DOUBLE column holds stored NaNs (which must still raise); and
/// the table without NaNs as the base of an INNER and a LEFT JOIN.
#[test]
fn decided_conjuncts_agree_with_the_relation_oracle() {
    let mut db = Database::new_in_memory();
    for ddl in [
        "CREATE TABLE d (id INTEGER, n INTEGER, x DOUBLE, v VARCHAR(16), c CLOB, \
         l DATALINK LINKTYPE URL NO FILE LINK CONTROL)",
        "CREATE TABLE dn (id INTEGER, n INTEGER, x DOUBLE, v VARCHAR(16), c CLOB, \
         l DATALINK LINKTYPE URL NO FILE LINK CONTROL)",
        "CREATE TABLE u (k INTEGER, label VARCHAR(8))",
    ] {
        db.execute(ddl).unwrap();
    }
    let texts = [
        "", "a", "ab", "abc", "abd", "ac", "ab_c", "abcc", "b", "é", "éa",
    ];
    let ints = [-1, 0, 1, 2, 3, TWO_53, TWO_53 + 1];
    let doubles = [-1.5, -0.0, 0.0, 1.0, 2.0, 2.5, TWO_53 as f64];
    let mut rng = StdRng::seed_from_u64(50);
    for id in 0..90 {
        let t = or_null(Value::Str(pick(&mut rng, &texts).into()), &mut rng);
        let row = [
            Value::Int(id),
            or_null(Value::Int(pick(&mut rng, &ints)), &mut rng),
            or_null(Value::Double(pick(&mut rng, &doubles)), &mut rng),
            t.clone(),
            t.clone(),
            t,
        ];
        for table in ["d", "dn"] {
            let sql = format!("INSERT INTO {table} VALUES (?, ?, ?, ?, ?, ?)");
            db.execute_with_params(&sql, &row).unwrap();
        }
    }
    // Two NaNs: one in a row every text restriction refuses, one beside
    // text most of them keep.
    for (id, t) in [(90, "zz"), (91, "ab")] {
        let row = [
            Value::Int(id),
            Value::Int(1),
            Value::Double(f64::NAN),
            Value::Str(t.into()),
            Value::Str(t.into()),
            Value::Str(t.into()),
        ];
        db.execute_with_params("INSERT INTO dn VALUES (?, ?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    for k in [-1, 0, 1, 2, 3] {
        let row = [Value::Int(k), Value::Str(format!("k{k}"))];
        db.execute_with_params("INSERT INTO u VALUES (?, ?)", &row)
            .unwrap();
    }
    let mut relation = |table: &str| {
        let rs = db.execute(&format!("SELECT * FROM {table}")).unwrap();
        Relation::from_rows(&table.to_ascii_uppercase(), rs.columns, &rs.rows)
    };
    let bases = [relation("d"), relation("dn")];
    let (mut returned, mut raised, mut statements) = (0, 0, 0);
    let columns = [
        ("n", "number"),
        ("x", "number"),
        ("v", "text"),
        ("c", "text"),
        ("l", "text"),
    ];
    for _ in 0..700 {
        let mut conjuncts = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let (col, kind) = pick(&mut rng, &columns);
            conjuncts.push(match rng.gen_range(0..8) {
                0 => pick(&mut rng, &["n <> 1", "x IS NULL", "(n = 1 OR x > 0)"]).to_string(),
                _ => restriction(&mut rng, col, kind),
            });
        }
        let pred = conjuncts.join(" AND ");
        let table = pick(&mut rng, &["d", "dn"]);
        let tail = pick(&mut rng, &["", " ORDER BY id DESC LIMIT 4"]);
        let items = pick(&mut rng, &["*", "id, v", "COUNT(*)"]);
        let tail = if items == "COUNT(*)" { "" } else { tail };
        let join = pick(&mut rng, &["JOIN", "LEFT JOIN"]);
        for sql in [
            format!("SELECT {items} FROM {table} WHERE {pred}{tail}"),
            // A JOIN base's own conjuncts filter it before the join, which
            // drops a NaN row another of them refuses (DESIGN.md's
            // inherited NaN limit): its base is the table without NaNs.
            format!("SELECT a.id, a.v, b.label FROM d a {join} u b ON a.n = b.k WHERE {pred}"),
        ] {
            let sel = select_of(&sql);
            let view = db.read_view();
            // Rows as their debug text, so that a stored NaN equals itself.
            let run = |relations: &[Relation]| {
                run_select_over(&db, &view, &sel, &[], relations)
                    .map(|rs| (rs.rows.len(), format!("{:?}", rs.rows)))
                    .map_err(|e| e.to_string())
            };
            let sieved = run(&[]);
            assert_eq!(sieved, run(&bases), "{sql}");
            statements += 1;
            match sieved {
                Ok((rows, _)) => returned += rows,
                Err(_) => raised += 1,
            }
        }
    }
    assert!(returned >= 5_000, "only {returned} rows returned");
    assert!(
        raised >= 50,
        "only {raised} of {statements} statements raised"
    );
}
