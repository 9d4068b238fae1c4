//! The executor transcript: a seeded matrix of SELECTs over tables
//! holding NULLs, ties, ±0.0, NaNs, INTEGER and DOUBLE side by side, a
//! CLOB and a DATALINK (rendered by a token-splicing observer), with
//! each statement's columns and rows or its error text, and what the
//! executor's stage histograms and counters observed for it. It pins
//! what a statement returns, in which order, which error wins when rows
//! would raise in different phases (WHERE, projection, grouping, HAVING,
//! ORDER BY), and what `easia_db_stage_rows` counts: every aggregate
//! with and without GROUP BY, HAVING, ORDER BY on aggregates, output
//! aliases and unprojected columns, DISTINCT alone and with ORDER BY and
//! LIMIT, LIMIT 0 and past the end, JOINs with GROUP BY, and a second
//! pass of every fourth statement with the main table bound as an
//! in-memory `exec::Relation`.
//!
//! `golden/select.txt` was written by `regenerate` at the commit before
//! the executor bound each statement once and streamed its rows into
//! one sink; the lines that group ±0.0 and NaN were regenerated by the
//! commit that canonicalised group keys, and the entries of statements
//! whose error moved to bind time (raised before any row is read, so no
//! stage observes a row) by the commit that made names resolve once, at
//! bind — by nothing else. Rerun it only for an intended change:
//! `cargo test -p easia-db --test select_golden -- --ignored regenerate`.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::{Database, DatalinkSpec, DbError, LinkObserver, Value};
use easia_obs::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/select.txt");

/// Splices a token into every DATALINK a SELECT projects, as the
/// datalink manager does, so the transcript shows which cells were
/// rendered.
struct Tokens;

impl LinkObserver for Tokens {
    fn on_link(&self, _: &str, _: &str, _: &DatalinkSpec, _: &str) -> Result<(), DbError> {
        Ok(())
    }
    fn on_unlink(&self, _: &str, _: &str, _: &DatalinkSpec, _: &str) -> Result<(), DbError> {
        Ok(())
    }
    fn on_commit(&self) {}
    fn on_rollback(&self) {}
    fn render_datalink(&self, _: &DatalinkSpec, url: &str) -> Option<String> {
        Some(format!("{url};tok"))
    }
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// `m` (48 seeded rows plus two zeros written as SQL), `a` (the JOIN
/// leg, indexed on its key) and `z` (signed zeros and NaNs).
fn fixture() -> Database {
    let mut db = Database::new_in_memory();
    db.add_observer(Rc::new(Tokens));
    for ddl in [
        "CREATE TABLE m (id INTEGER PRIMARY KEY, grp VARCHAR(8), n INTEGER, x DOUBLE, \
         s VARCHAR(16), doc CLOB, link DATALINK LINKTYPE URL NO FILE LINK CONTROL)",
        "CREATE INDEX ix_n ON m (n)",
        "CREATE TABLE a (gid VARCHAR(8), label VARCHAR(8), w INTEGER)",
        "CREATE INDEX ix_gid ON a (gid)",
        "CREATE TABLE z (k INTEGER, x DOUBLE)",
    ] {
        db.execute(ddl).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(25);
    let null = Value::Null;
    for id in 0..48 {
        let grp = match rng.gen_range(0..5) {
            0 => null.clone(),
            g => Value::Str(format!("g{}", g.min(3))),
        };
        let n = match rng.gen_range(0..9) {
            0 => null.clone(),
            i => Value::Int([-1, 0, 1, 2, 3, 3, 7, 7][i - 1]),
        };
        // An integer stored into the DOUBLE column is coerced.
        let x = match rng.gen_range(0..9) {
            0 => null.clone(),
            1 => Value::Double(0.0),
            2 => Value::Double(-0.0),
            3 => Value::Double(1.5),
            4 => Value::Int(2),
            5 => Value::Double(2.0),
            6 => Value::Double(-3.25),
            7 => Value::Double(1e300),
            _ => Value::Int(-1),
        };
        let s = match rng.gen_range(0..6) {
            0 => null.clone(),
            i => Value::Str(["a", "b", "ab", "Ab", "b"][i - 1].into()),
        };
        let doc = match rng.gen_range(0..4) {
            0 => null.clone(),
            i => Value::Str(format!("doc {} of {id}", i * 11)),
        };
        let link = match rng.gen_range(0..3) {
            0 => null.clone(),
            i => Value::Str(format!("http://fs{i}/data/run{}.edf", id % 7)),
        };
        db.execute_with_params(
            "INSERT INTO m VALUES (?, ?, ?, ?, ?, ?, ?)",
            &[Value::Int(id), grp, n, x, s, doc, link],
        )
        .unwrap();
    }
    db.execute("INSERT INTO m VALUES (48, 'g1', 0, 0.0 - 0.0, 'a', 'zero', NULL)")
        .unwrap();
    db.execute("INSERT INTO m VALUES (49, 'g2', 0, -0.0, 'a', 'minus zero', NULL)")
        .unwrap();
    db.execute(
        "INSERT INTO a VALUES ('g1', 'one', 1), ('g2', 'two', 2), ('g2', 'deux', 3), \
         ('g4', 'four', 7), (NULL, 'none', 0)",
    )
    .unwrap();
    let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_beef)];
    let mut k = 0;
    for x in [0.0, -0.0, nans[0], 1.0, nans[1], -0.0, nans[2], 0.0] {
        k += 1;
        db.execute_with_params(
            "INSERT INTO z VALUES (?, ?)",
            &[Value::Int(k), Value::Double(x)],
        )
        .unwrap();
    }
    db.execute("INSERT INTO z VALUES (9, 0.0 - 0.0), (10, NULL)")
        .unwrap();
    db
}

/// Statements written out: one of each shape the generator below
/// reaches only by chance.
const FIXED: &[&str] = &[
    // Every aggregate, global and grouped.
    "SELECT COUNT(*), COUNT(n), COUNT(x), COUNT(link), COUNT(doc) FROM m",
    "SELECT SUM(n), SUM(x), AVG(n), AVG(x), MIN(s), MAX(s), MIN(x), MAX(x) FROM m",
    "SELECT MIN(doc), MAX(doc), MIN(link), MAX(link), MIN(n), MAX(n) FROM m",
    "SELECT grp, COUNT(*), COUNT(n), SUM(n), AVG(n), MIN(x), MAX(x) FROM m GROUP BY grp",
    "SELECT grp, SUM(x), AVG(x), MIN(s), MAX(s), COUNT(link) FROM m GROUP BY grp ORDER BY grp",
    "SELECT n, COUNT(*) FROM m GROUP BY n ORDER BY n DESC",
    "SELECT grp, n, COUNT(*) AS c FROM m GROUP BY grp, n ORDER BY c DESC, grp, n",
    "SELECT COUNT(*) FROM m WHERE id < 0",
    "SELECT grp, COUNT(*) FROM m WHERE id < 0 GROUP BY grp",
    "SELECT SUM(n), MIN(s), AVG(x) FROM m WHERE id < 0",
    // Aggregates inside expressions, HAVING, ORDER BY over aggregates.
    "SELECT grp, COALESCE(SUM(n), 0) AS total, COUNT(*) + MIN(n) FROM m GROUP BY grp ORDER BY total",
    "SELECT grp, AVG(n) * 2 FROM m GROUP BY grp HAVING COUNT(*) BETWEEN 2 AND 20 ORDER BY AVG(n) DESC",
    "SELECT grp FROM m GROUP BY grp HAVING MAX(x) > 1 ORDER BY MIN(id)",
    "SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY COUNT(*) DESC LIMIT 2",
    "SELECT grp, COUNT(*) FROM m GROUP BY grp HAVING SUM(n) >= 0 ORDER BY 2",
    "SELECT n + 1 AS k, COUNT(*) FROM m GROUP BY n + 1 ORDER BY k",
    "SELECT COALESCE(n, x), COUNT(*) FROM m GROUP BY COALESCE(n, x)",
    "SELECT grp, id FROM m GROUP BY grp",
    "SELECT * FROM m GROUP BY grp",
    "SELECT m.* FROM m GROUP BY grp",
    "SELECT COUNT(*) FROM m GROUP BY grp + n",
    "SELECT SUM(COUNT(*)) FROM m",
    "SELECT grp, COUNT(*) FROM m GROUP BY grp HAVING nope > 1",
    "SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY nope",
    // Signed zeros and NaNs: grouping, DISTINCT, equality, order.
    "SELECT x, COUNT(*) FROM m GROUP BY x ORDER BY x",
    "SELECT DISTINCT x FROM m",
    "SELECT COUNT(*) FROM m WHERE x = 0",
    "SELECT x, COUNT(*) FROM z GROUP BY x",
    "SELECT x, MIN(k), MAX(k) FROM z GROUP BY x ORDER BY x",
    "SELECT x, COUNT(*) FROM z GROUP BY x ORDER BY COUNT(*) DESC LIMIT 2",
    "SELECT DISTINCT x FROM z",
    "SELECT DISTINCT x FROM z ORDER BY x DESC",
    "SELECT DISTINCT x FROM z LIMIT 2",
    "SELECT k, x FROM z ORDER BY x, k",
    "SELECT k, x FROM z ORDER BY x DESC, k DESC LIMIT 4",
    "SELECT COUNT(*) FROM z WHERE x = 0",
    "SELECT COUNT(*) FROM z WHERE k > 1 AND x IS NULL",
    // DISTINCT, ORDER BY, LIMIT.
    "SELECT DISTINCT grp FROM m",
    "SELECT DISTINCT grp, n FROM m ORDER BY n DESC, grp LIMIT 5",
    "SELECT DISTINCT s FROM m ORDER BY s LIMIT 0",
    "SELECT DISTINCT n FROM m ORDER BY id",
    "SELECT DISTINCT n FROM m ORDER BY 1 / n",
    "SELECT id, x AS v FROM m ORDER BY v, id LIMIT 1000",
    "SELECT id FROM m ORDER BY x DESC, id LIMIT 10",
    "SELECT id, link FROM m ORDER BY link, id LIMIT 7",
    "SELECT link AS l, doc FROM m WHERE link IS NOT NULL ORDER BY l DESC, id LIMIT 5",
    "SELECT * FROM m ORDER BY n, s LIMIT 6",
    "SELECT m.*, n * 2 FROM m WHERE id < 4",
    "SELECT q.* FROM m",
    "SELECT nope FROM m WHERE id < 0",
    "SELECT nope + 1 FROM m WHERE id < 0",
    "SELECT id FROM m WHERE id < 0 ORDER BY nope",
    "SELECT id FROM m ORDER BY COUNT(*)",
    "SELECT id FROM m ORDER BY MAX(n)",
    "SELECT id FROM m WHERE COUNT(*) > 1",
    "SELECT 1 + 2, 'x' || 'y'",
    "SELECT * ",
    // Which phase's error wins: each phase raises its own message —
    // the WHERE `division by zero` on row 30, a select item, an
    // aggregate argument or an ORDER BY key on an early row.
    "SELECT id, ABS(s) FROM m WHERE id / (id - 30) > 0",
    "SELECT id FROM m WHERE id / (id - 30) > 0 ORDER BY UPPER(n)",
    "SELECT SUM(ROUND(s)) FROM m WHERE id / (id - 30) > 0",
    "SELECT grp, COUNT(*) FROM m WHERE id / (id - 30) > 0 GROUP BY grp ORDER BY UPPER(grp + 1)",
    "SELECT grp, SUM(ROUND(s)) FROM m WHERE id / (id - 30) > 0 GROUP BY grp",
    "SELECT id / (id - 20) FROM m ORDER BY UPPER(n)",
    "SELECT id / (id - 20) FROM m ORDER BY UPPER(n) LIMIT 3",
    "SELECT ABS(s) FROM m ORDER BY id / (id - 5)",
    "SELECT DISTINCT ABS(s) FROM m ORDER BY id / (id - 5) LIMIT 2",
    "SELECT id FROM m ORDER BY id / (id - 45), UPPER(n) LIMIT 2",
    "SELECT id, n FROM m ORDER BY UPPER(n) DESC LIMIT 0",
    "SELECT grp, SUM(ROUND(s)) FROM m GROUP BY grp HAVING 1 / (COUNT(*) - 3) > 0",
    "SELECT grp, SUM(id / (id - 7)) FROM m GROUP BY ABS(grp)",
    "SELECT grp, ABS(MIN(s)) FROM m GROUP BY grp HAVING 1 / (COUNT(*) - 3) > 0",
    "SELECT grp, 1 / (COUNT(*) - 9) FROM m GROUP BY grp HAVING 1 / (COUNT(*) - 3) > 0",
    "SELECT grp, 1 / (COUNT(*) - 9) FROM m GROUP BY grp ORDER BY UPPER(MIN(n))",
    "SELECT grp, COUNT(*) FROM m GROUP BY grp ORDER BY UPPER(MIN(n)) LIMIT 1",
    "SELECT * FROM m GROUP BY ROUND(s)",
    "SELECT * FROM m GROUP BY id / (id - 9)",
    "SELECT id / (id - 40), nope FROM m",
    "SELECT id FROM m WHERE nope = 1",
    "SELECT id FROM m WHERE id < 0 AND nope = 1",
    "SELECT id FROM m WHERE id = 4 OR nope = 1",
    "SELECT m.id FROM m WHERE zz.id = 1",
    // JOINs, with and without GROUP BY.
    "SELECT m.id, a.label, a.w FROM m JOIN a ON m.grp = a.gid ORDER BY m.id, a.label",
    "SELECT m.id, a.label FROM m LEFT JOIN a ON m.grp = a.gid WHERE m.id < 12",
    "SELECT a.label, COUNT(*), SUM(m.n), MAX(m.x) FROM m JOIN a ON m.grp = a.gid GROUP BY a.label",
    "SELECT a.label, COUNT(m.id) FROM a LEFT JOIN m ON m.grp = a.gid GROUP BY a.label ORDER BY a.label",
    "SELECT gid, COUNT(*) AS c FROM m JOIN a ON m.grp = a.gid GROUP BY gid HAVING c > 3",
    "SELECT gid, COUNT(*) FROM m JOIN a ON m.grp = a.gid GROUP BY gid HAVING COUNT(*) > 3",
    "SELECT DISTINCT a.label FROM m JOIN a ON m.n = a.w ORDER BY a.label DESC",
    "SELECT m.id, a.w FROM m JOIN a ON m.n = a.w WHERE m.id / (m.id - 30) > 0 ORDER BY m.id",
    "SELECT m.id, a.w FROM m JOIN a ON 1 / (a.w - 3) > 0 AND m.grp = a.gid",
    "SELECT m.id FROM m JOIN a ON m.grp = a.gid WHERE w > 1 ORDER BY link LIMIT 4",
    "SELECT m.link, a.label FROM m JOIN a ON m.grp = a.gid WHERE m.link IS NOT NULL LIMIT 3",
];

const ITEMS: &[&str] = &[
    "*",
    "m.*",
    "id",
    "grp",
    "n",
    "x",
    "s",
    "doc",
    "link",
    "n + x",
    "n * 2",
    "UPPER(s)",
    "LENGTH(doc)",
    "COALESCE(n, x)",
    "x AS v",
    "link AS l",
    "s || grp",
    "-x AS negx",
];
const ATOMS: &[&str] = &[
    "n > 1",
    "n = 3",
    "x = 0",
    "x < 1",
    "x >= 2",
    "s LIKE 'a%'",
    "s LIKE '%b'",
    "grp = 'g1'",
    "grp IS NULL",
    "n IS NOT NULL",
    "x BETWEEN -1 AND 2",
    "s IN ('a', 'b')",
    "id < 20",
    "id >= 30",
    "NOT (n = 0)",
    "link LIKE 'http://fs1%'",
    "doc IS NULL",
];
const RAISING_ATOMS: &[&str] = &["'a' > n", "nope = 1", "x > 'b'"];
const ORDER_KEYS: &[&str] = &[
    "id",
    "n",
    "x",
    "s",
    "grp",
    "v",
    "l",
    "negx",
    "n + x",
    "LENGTH(doc)",
    "COALESCE(n, x)",
    "link",
];
const GROUP_KEYS: &[&str] = &["grp", "n", "x", "s", "COALESCE(n, x)", "grp + n", "link"];
const AGGS: &[&str] = &[
    "COUNT(*)",
    "COUNT(n)",
    "COUNT(x)",
    "COUNT(link)",
    "SUM(n)",
    "SUM(x)",
    "AVG(n)",
    "AVG(x)",
    "MIN(s)",
    "MAX(s)",
    "MIN(x)",
    "MAX(x)",
    "MAX(n)",
    "SUM(n + x)",
    "COALESCE(SUM(n), 0)",
    "MIN(doc)",
    "MAX(link)",
    "AVG(n) * 2",
    "COUNT(*) + MIN(n)",
];
const HAVINGS: &[&str] = &[
    "COUNT(*) > 1",
    "SUM(n) >= 0",
    "AVG(x) IS NOT NULL",
    "MIN(s) < 'b'",
    "COUNT(*) BETWEEN 2 AND 10",
    "MAX(x) > 1",
];
const AGG_ORDER_KEYS: &[&str] = &["COUNT(*)", "c", "SUM(n)", "MIN(x)", "id", "MAX(s)"];
const LIMITS: &[&str] = &[
    "",
    "",
    "",
    " LIMIT 0",
    " LIMIT 3",
    " LIMIT 10",
    " LIMIT 1000",
];

fn desc(rng: &mut StdRng) -> &'static str {
    if rng.gen_bool(0.4) {
        " DESC"
    } else {
        ""
    }
}

/// One to `max` entries of `pool`, comma-separated.
fn some(rng: &mut StdRng, pool: &[&str], max: usize) -> Vec<String> {
    (0..rng.gen_range(1..max + 1))
        .map(|_| pick(rng, pool).to_string())
        .collect()
}

/// A WHERE clause (or nothing); now and then one that raises, on every
/// row or on the row whose id is `k`.
fn where_clause(rng: &mut StdRng, raiser: &str) -> String {
    if rng.gen_bool(0.3) {
        return String::new();
    }
    let mut atoms = some(rng, ATOMS, 2);
    if rng.gen_bool(0.15) {
        let bad = if rng.gen_bool(0.5) {
            format!("{raiser} > 0")
        } else {
            pick(rng, RAISING_ATOMS).to_string()
        };
        atoms.insert(rng.gen_range(0..atoms.len() + 1), bad);
    }
    let glue = if rng.gen_bool(0.8) { " AND " } else { " OR " };
    format!(" WHERE {}", atoms.join(glue))
}

fn projection(rng: &mut StdRng, raiser: &str) -> String {
    let mut items = some(rng, ITEMS, 3);
    if rng.gen_bool(0.1) {
        let bad = pick(rng, &[raiser, "ABS(s)", "ROUND(doc)"]);
        items.push(format!("{bad} AS r"));
    }
    let distinct = if rng.gen_bool(0.25) { "DISTINCT " } else { "" };
    let mut sql = format!("SELECT {distinct}{} FROM m", items.join(", "));
    sql += &where_clause(rng, raiser);
    if rng.gen_bool(0.6) {
        let mut keys = some(rng, ORDER_KEYS, 2);
        if rng.gen_bool(0.1) {
            keys.push(pick(rng, &[raiser, "UPPER(n)", "LENGTH(x)"]).to_string());
        }
        let keys: Vec<String> = keys.into_iter().map(|k| k + desc(rng)).collect();
        sql += &format!(" ORDER BY {}", keys.join(", "));
    }
    sql + pick(rng, LIMITS)
}

fn aggregate(rng: &mut StdRng, raiser: &str) -> String {
    let groups: Vec<String> = match rng.gen_range(0..4) {
        0 => vec![],
        3 => some(rng, GROUP_KEYS, 2),
        _ => vec![pick(rng, GROUP_KEYS).to_string()],
    };
    let mut items = groups.clone();
    for (i, agg) in some(rng, AGGS, 3).into_iter().enumerate() {
        items.push(if i == 0 && rng.gen_bool(0.5) {
            format!("{agg} AS c")
        } else {
            agg
        });
    }
    match rng.gen_range(0..12) {
        0 => items.push(format!("SUM({})", pick(rng, &[raiser, "ROUND(s)"]))),
        1 => items.push("1 / (COUNT(*) - 2)".into()),
        2 => items.push("id".into()),
        _ => {}
    }
    let distinct = if rng.gen_bool(0.1) { "DISTINCT " } else { "" };
    let mut sql = format!("SELECT {distinct}{} FROM m", items.join(", "));
    sql += &where_clause(rng, raiser);
    if !groups.is_empty() {
        sql += &format!(" GROUP BY {}", groups.join(", "));
    }
    if rng.gen_bool(0.3) {
        let having = if rng.gen_bool(0.1) {
            "1 / (COUNT(*) - 2) > 0"
        } else {
            pick(rng, HAVINGS)
        };
        sql += &format!(" HAVING {having}");
    }
    if rng.gen_bool(0.6) {
        let mut keys = groups.clone();
        keys.push(pick(rng, AGG_ORDER_KEYS).to_string());
        if rng.gen_bool(0.08) {
            keys.push("1 / (COUNT(*) - 3)".into());
        }
        let keys: Vec<String> = keys.into_iter().map(|k| k + desc(rng)).collect();
        sql += &format!(" ORDER BY {}", keys.join(", "));
    }
    sql + pick(rng, LIMITS)
}

fn join(rng: &mut StdRng) -> String {
    let kind = pick(rng, &["JOIN", "LEFT JOIN"]);
    let on = pick(
        rng,
        &[
            "m.grp = a.gid",
            "a.gid = m.grp AND a.w > 1",
            "m.n = a.w",
            "m.grp = a.gid OR m.n = a.w",
        ],
    );
    let filter = pick(
        rng,
        &[
            "",
            " WHERE m.id < 25",
            " WHERE a.label IS NULL",
            " WHERE m.x >= 0 AND a.w > 0",
            " WHERE label LIKE 't%' OR n = 7",
            " WHERE w / (m.id - 11) > 0",
        ],
    );
    let tail = if rng.gen_bool(0.5) {
        let items = pick(
            rng,
            &[
                "m.id, a.label",
                "m.id, m.link, a.w",
                "a.*, m.n",
                "DISTINCT a.label, m.grp",
                "m.x, a.gid",
            ],
        );
        let order = pick(
            rng,
            &[
                "",
                " ORDER BY m.id, a.label",
                " ORDER BY a.w DESC, m.id",
                " ORDER BY label, m.x, m.id",
            ],
        );
        return format!(
            "SELECT {items} FROM m {kind} a ON {on}{filter}{order}{}",
            pick(rng, LIMITS)
        );
    } else {
        pick(
            rng,
            &[
                " GROUP BY a.label ORDER BY a.label",
                " GROUP BY a.label HAVING COUNT(*) > 2 ORDER BY COUNT(*) DESC, a.label",
                " GROUP BY a.label, m.grp ORDER BY 1, 2",
                " GROUP BY m.grp ORDER BY SUM(a.w) DESC",
            ],
        )
    };
    let items = if tail.contains("m.grp ORDER BY SUM") {
        "m.grp, SUM(a.w), COUNT(a.label)"
    } else if tail.contains("a.label, m.grp") {
        "a.label, m.grp, COUNT(*), MIN(m.x)"
    } else {
        "a.label, COUNT(*), SUM(m.n), AVG(m.x)"
    };
    format!("SELECT {items} FROM m {kind} a ON {on}{filter}{tail}")
}

/// Table-less SELECTs obeying the clauses after their select list: the
/// WHERE and LIMIT drop the one row, ORDER BY binds its key. Kept after
/// the generated statements, so that no earlier section moves.
const TABLELESS: [&str; 3] = [
    "SELECT 1 WHERE 1 = 0",
    "SELECT 1 LIMIT 0",
    "SELECT 1 AS a ORDER BY b",
];

/// The fixed statements, then 320 drawn from a seeded generator, then
/// the table-less ones.
fn statements() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(2025);
    let mut all: Vec<String> = FIXED.iter().map(|s| s.to_string()).collect();
    for _ in 0..320 {
        let raiser = format!("id / (id - {})", rng.gen_range(0..50));
        all.push(match rng.gen_range(0..10) {
            0..=3 => projection(&mut rng, &raiser),
            4..=7 => aggregate(&mut rng, &raiser),
            _ => join(&mut rng),
        });
    }
    all.extend(TABLELESS.iter().map(|s| s.to_string()));
    all
}

/// `(count, sum)` of each stage histogram, then rows scanned and rows
/// returned.
fn observed(db: &Database) -> [f64; 12] {
    let m = db.metrics().expect("metrics attached");
    let stages = [
        &m.stage_scan,
        &m.stage_join,
        &m.stage_filter,
        &m.stage_aggregate,
        &m.stage_sort,
    ];
    let mut out = [0.0; 12];
    for (i, h) in stages.iter().enumerate() {
        out[2 * i] = h.count() as f64;
        out[2 * i + 1] = h.sum();
    }
    out[10] = m.rows_scanned.get();
    out[11] = m.rows_returned.get();
    out
}

fn transcribe(
    out: &mut String,
    db: &mut Database,
    run: impl FnOnce(&mut Database) -> Result<easia_db::ResultSet, DbError>,
) {
    let before = observed(db);
    let res = run(db);
    let after = observed(db);
    match res {
        Ok(rs) => {
            let _ = writeln!(out, "columns: {:?}", rs.columns);
            for row in &rs.rows {
                let _ = writeln!(out, "row: {row:?}");
            }
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let mut stages = String::new();
    for (i, name) in ["scan", "join", "filter", "aggregate", "sort"]
        .iter()
        .enumerate()
    {
        if d[2 * i] != 0.0 {
            let _ = write!(stages, " {name}={}/{}", d[2 * i], d[2 * i + 1]);
        }
    }
    let _ = writeln!(out, "stages:{stages} scanned={} returned={}", d[10], d[11]);
}

fn transcript() -> String {
    let mut db = fixture();
    let registry = Registry::new();
    db.attach_metrics(&registry);
    let whole = db.execute("SELECT * FROM m").unwrap();
    let relation = [Relation::from_rows("M", whole.columns, &whole.rows)];
    let mut out = String::new();
    for (i, sql) in statements().iter().enumerate() {
        let _ = writeln!(out, "\n=== {i}\nsql: {sql}");
        transcribe(&mut out, &mut db, |db| db.execute_with_params(sql, &[]));
        // The executor bound the main table as a relation, every fourth
        // statement.
        if i % 4 == 0 {
            let _ = writeln!(out, "over a relation:");
            transcribe(&mut out, &mut db, |db| {
                let Stmt::Select(sel) = easia_db::sql::parse(sql)? else {
                    unreachable!("{sql}");
                };
                run_select_over(db, &db.read_view(), &sel, &[], &relation)
            });
        }
    }
    out
}

#[test]
fn select_matches_the_parent_commit() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let now = transcript();
    for (want, got) in golden.split("\n=== ").zip(now.split("\n=== ")) {
        assert_eq!(got, want, "section differs from the golden transcript");
    }
    assert_eq!(now, golden);
    // The transcript really exercises what it claims to.
    let sections = golden.matches("\n=== ").count();
    assert!(sections >= 300, "{sections} statements");
    let errors = golden.matches("\nerror: ").count();
    assert!(errors >= 40, "{errors} errors");
    for needle in [
        "division by zero",
        "unknown column NOPE",
        "cannot compare",
        "wildcard not allowed with GROUP BY",
        ";tok",
        "Double(-0.0)",
        "Double(NaN)",
        " join=",
        " aggregate=",
        " sort=",
        "over a relation:",
    ] {
        assert!(golden.contains(needle), "golden lacks {needle}");
    }
}

#[test]
#[ignore = "rewrites the golden transcript; see the module comment"]
fn regenerate() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, transcript()).unwrap();
}
