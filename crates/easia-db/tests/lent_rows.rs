//! Differential property of how a SELECT's rows leave the executor.
//!
//! Every result row leaves as an `encode_row` record lent to a reader.
//! A row is projected out of the records it was read from — a scan's
//! record, or each JOIN leg's — the cells a select list passes through
//! copied as bytes (a LEFT JOIN's padding written as NULL cells),
//! expression items and DATALINK renderings encoded from values; a
//! group's row has every cell written from its value. DISTINCT keys each
//! record by its cells, and ORDER BY keeps the records, each row's order
//! key beside its record in one arena, and lends each sorted record as
//! it is. Four readings of one statement must agree, rows and order or
//! error text: `Database::execute`, which decodes the lent records into
//! a result set; `Database::execute_each`, its lent records collected
//! through `Records::push_bytes` and decoded after; the same statement
//! over an in-memory `exec::Relation` holding the table's rows, which is
//! read through the same scan but never sieved nor probed, and has no
//! DATALINK spec; and the statement with the table joined to a table of
//! one row, so that a scan's row becomes a joined one, its cells copied
//! by the join's span copy instead of the scan's.
//!
//! Those four share one DISTINCT, ORDER BY and LIMIT path, so a fifth
//! reading, the oracle, does not: the generated statement without
//! DISTINCT, ORDER BY or LIMIT, its sort keys appended to the select
//! list, decoded into values, then deduplicated (doubles equal as
//! `Value::total_cmp` finds them, kinds apart), stable-sorted on the
//! appended cells with `Value::total_cmp`, cut to the LIMIT and stripped
//! of the key cells here in the test. A key cell written raw into
//! DISTINCT's key (so that `-0.0` is not `0.0`) fails it.
//!
//! The table holds a cell of every kind — INTEGER, DOUBLE (±0.0, NaN),
//! VARCHAR, CLOB, BLOB, BOOLEAN, TIMESTAMP and a DATALINK with a spec,
//! rendered on its way out — with NULLs and ties. The single-table
//! statements' select lists reorder, repeat or drop columns or mix
//! expressions with columns; ORDER BY an output column, a dropped column
//! or an expression, ascending or descending; LIMIT, DISTINCT, a WHERE
//! the sieve or an index serves, and a `1/0` or an `n / (n - 3)` held as
//! a row error in the select list or a key. Beside them: a JOIN and a
//! LEFT JOIN to an indexed table that matches some rows several times
//! and others never (its DOUBLEs ±0.0 and NaNs of both signs, for
//! DISTINCT), GROUP BY with HAVING, ORDER BY and LIMIT, and a table-less
//! SELECT.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::value::{decode_row, Records};
use easia_db::{Database, Value};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Ordering;

const DDL: &str = "CREATE TABLE k (id INTEGER PRIMARY KEY, n INTEGER, x DOUBLE, \
                   s VARCHAR(24), doc CLOB, b BLOB, f BOOLEAN, ts TIMESTAMP, \
                   link DATALINK LINKTYPE URL NO FILE LINK CONTROL)";

/// Select items: bare columns, aliases, expressions and row errors.
const ITEMS: &[&str] = &[
    "k.*",
    "id",
    "n",
    "x",
    "s",
    "doc",
    "b",
    "f",
    "ts",
    "link",
    "x AS v",
    "n + 1 AS np",
    "s || '!' AS bang",
    "-x AS nx",
    "n / (n - 3) AS q",
    "1/0 AS boom",
];

/// ORDER BY keys: output names where projected, dropped columns
/// otherwise, and expressions.
const KEYS: &[&str] = &[
    "id",
    "n",
    "x",
    "s",
    "doc",
    "b",
    "f",
    "ts",
    "link",
    "v",
    "np",
    "n * 2",
    "-x",
    "s || doc",
    "n / (n - 3)",
];

/// Select items of the joined table `m`.
const M_ITEMS: &[&str] = &["m.*", "mn", "tag", "w", "w * 2 AS w2", "tag || s AS ts2"];

/// ORDER BY keys of a join.
const M_KEYS: &[&str] = &["id", "mn", "tag", "w", "s", "x", "w2", "n + mn"];

/// Group keys, aggregate items, HAVINGs and ORDER BY keys of a GROUP BY.
const GROUP_KEYS: &[&str] = &["n", "s", "x", "f", "link"];
const AGGS: &[&str] = &[
    "COUNT(*) AS c",
    "COUNT(doc)",
    "SUM(n) AS sn",
    "MIN(s)",
    "MAX(x) AS mx",
    "AVG(x)",
    "MIN(id) / (COUNT(*) - 7) AS q",
];
const HAVINGS: &[&str] = &[
    "",
    " HAVING COUNT(*) > 7",
    " HAVING MIN(id) < 3",
    " HAVING SUM(n) / (COUNT(*) - 8) > 0",
];
const GROUP_ORDERS: &[&str] = &["c", "MIN(id)", "mx", "sn", "q", "COUNT(doc)"];

const WHERES: &[&str] = &[
    "",
    " WHERE n > 1",
    " WHERE s LIKE 'a%'",
    " WHERE x >= 0",
    " WHERE id < 20",
    " WHERE link IS NOT NULL",
];

thread_local! {
    static FIXTURE: RefCell<(Database, Relation)> = RefCell::new(fixture());
}

/// The table and, as a relation, its rows.
fn fixture() -> (Database, Relation) {
    {
        let mut db = Database::new_in_memory();
        db.execute(DDL).unwrap();
        db.execute("CREATE TABLE one (u INTEGER)").unwrap();
        db.execute("INSERT INTO one VALUES (1)").unwrap();
        // `k.n` is NULL or 0..=3: 0 and 1 meet several rows, 2 and NULL
        // none.
        db.execute("CREATE TABLE m (mn INTEGER, tag VARCHAR(8), w DOUBLE)")
            .unwrap();
        db.execute("CREATE INDEX ix_m ON m (mn)").unwrap();
        for (mn, tag, w) in [
            (0, "a", 0.0),
            (0, "b", -0.0),
            (1, "a", f64::NAN),
            (1, "c", 1.5),
            (1, "a", -f64::NAN),
            (3, "d", 0.0),
            (7, "e", 2.0),
        ] {
            db.execute_with_params(
                "INSERT INTO m VALUES (?, ?, ?)",
                &[Value::Int(mn), Value::Str(tag.into()), Value::Double(w)],
            )
            .unwrap();
        }
        db.execute("INSERT INTO m VALUES (3, NULL, NULL)").unwrap();
        for id in 0..40i64 {
            let pick = |m: i64| (id * 7 + m * 3) % 5;
            let n = match pick(1) {
                0 => Value::Null,
                p => Value::Int(p - 1),
            };
            let x = match pick(2) {
                0 => Value::Null,
                1 => Value::Double(-0.0),
                2 => Value::Double(f64::NAN),
                3 => Value::Double(0.0),
                _ => Value::Double((id % 4) as f64 - 1.5),
            };
            let s = match id % 6 {
                0 => Value::Null,
                i => Value::Str(
                    ["a", "ab", "abcdefghijklmnopq", "abcdefghijklmnopz", "b"][i as usize - 1]
                        .into(),
                ),
            };
            let doc = match id % 3 {
                0 => Value::Null,
                i => Value::Clob(format!("doc {i}")),
            };
            let b = match id % 4 {
                0 => Value::Null,
                i => Value::Blob(vec![i as u8; i as usize]),
            };
            let f = match id % 3 {
                0 => Value::Null,
                i => Value::Bool(i == 1),
            };
            let ts = Value::Timestamp(1_000 + id % 5);
            let link = match id % 4 {
                0 => Value::Null,
                i => Value::Str(format!("http://fs{i}/data/run{}.edf", id % 3)),
            };
            db.execute_with_params(
                "INSERT INTO k VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                &[Value::Int(id), n, x, s, doc, b, f, ts, link],
            )
            .unwrap();
        }
        let all = db.execute("SELECT * FROM k").unwrap();
        let relation = Relation::from_rows("K", all.columns, &all.rows);
        (db, relation)
    }
}

/// Rows as text: a NaN is itself and `-0.0` is not `0.0`.
fn shown(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|row| format!("{row:?}")).collect()
}

/// The four readings of `sql`, each as its rows or its error text.
fn readings(sql: &str) -> [Result<Vec<String>, String>; 4] {
    FIXTURE.with_borrow_mut(|(db, relation)| readings_of(db, relation, sql))
}

fn readings_of(
    db: &mut Database,
    relation: &Relation,
    sql: &str,
) -> [Result<Vec<String>, String>; 4] {
    let owned = db.execute_with_params(sql, &[]).map(|rs| shown(&rs.rows));
    let mut records = Records::default();
    let lent = db
        .execute_each(sql, &[], |row| records.push_bytes(row))
        .map(|()| {
            let rows = records.iter().map(|r| decode_row(r, &mut 0).unwrap());
            shown(&rows.collect::<Vec<_>>())
        });
    let Ok(Stmt::Select(sel)) = easia_db::sql::parse(sql) else {
        panic!("{sql} parses as a SELECT");
    };
    let view = db.read_view();
    let over = run_select_over(db, &view, &sel, &[], std::slice::from_ref(relation))
        .map(|rs| shown(&rs.rows));
    let joined = sql.replacen(" FROM k", " FROM k JOIN one ON one.u = 1", 1);
    let joined = db
        .execute_with_params(&joined, &[])
        .map(|rs| shown(&rs.rows));
    [owned, lent, over, joined].map(|r| r.map_err(|e| e.to_string()))
}

fn check(sql: &str) -> Result<(), TestCaseError> {
    let [owned, lent, over, joined] = readings(sql);
    prop_assert!(
        owned == lent,
        "{sql}: execute {owned:?}\nexecute_each {lent:?}"
    );
    prop_assert!(owned == over, "{sql}: execute {owned:?}\nrelation {over:?}");
    prop_assert!(
        owned == joined,
        "{sql}: execute {owned:?}\njoined {joined:?}"
    );
    Ok(())
}

/// Statements written out: each path the generator reaches by chance.
#[test]
fn fixed_statements_read_alike() {
    for sql in [
        "SELECT * FROM k WHERE id < 0",
        "SELECT k.* FROM k",
        "SELECT link, id, link, s FROM k ORDER BY s DESC, id",
        "SELECT s, x FROM k ORDER BY n, id LIMIT 5",
        "SELECT DISTINCT s FROM k ORDER BY s",
        "SELECT DISTINCT x, f FROM k",
        "SELECT id, n + 1 AS np FROM k WHERE s LIKE 'ab%' ORDER BY np DESC, id",
        "SELECT id, x AS v FROM k ORDER BY -x, id LIMIT 3",
        "SELECT b, doc, ts FROM k ORDER BY b, doc, id",
        "SELECT id FROM k ORDER BY n / (n - 3)",
        "SELECT id, 1/0 AS boom FROM k WHERE id < 3",
        "SELECT id, 1/0 AS boom FROM k WHERE id < 0",
        "SELECT k.* FROM k WHERE x >= 0 ORDER BY x DESC, id LIMIT 4",
        "SELECT s FROM k ORDER BY s LIMIT 0",
        "SELECT id, tag, w FROM k JOIN m ON mn = n",
        "SELECT k.*, m.* FROM k JOIN m ON m.mn = k.n ORDER BY w DESC, id, tag",
        "SELECT id, mn, tag FROM k LEFT JOIN m ON mn = n",
        "SELECT id, n, w FROM k LEFT JOIN m ON mn = n WHERE w IS NULL ORDER BY id LIMIT 4",
        "SELECT DISTINCT tag, w FROM k JOIN m ON mn = n",
        "SELECT DISTINCT n, w FROM k LEFT JOIN m ON mn = n LIMIT 3",
        "SELECT n, COUNT(*) AS c, MIN(s) FROM k GROUP BY n",
        "SELECT x, COUNT(*) AS c FROM k GROUP BY x HAVING COUNT(*) > 7",
        "SELECT s, SUM(n) AS sn FROM k GROUP BY s ORDER BY sn DESC, s LIMIT 2",
        "SELECT f, MAX(x) FROM k GROUP BY f LIMIT 1",
        "SELECT COUNT(*), AVG(x) FROM k WHERE id < 0",
        "SELECT DISTINCT COUNT(*) AS c FROM k GROUP BY n",
        "SELECT tag, COUNT(*) AS c FROM k JOIN m ON mn = n GROUP BY tag ORDER BY c, tag",
        "SELECT n, MIN(id) / (COUNT(*) - 7) AS q FROM k GROUP BY n",
        "SELECT 1 + 2 AS three, 'x' || 'y', 1.5",
        "SELECT 1/0",
    ] {
        check(sql).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A generated statement in its parts: what the four readings run as
/// its text, and the oracle builds its reference from.
struct Parts<'s> {
    distinct: bool,
    items: Vec<&'s str>,
    /// Everything after the select list but ORDER BY and LIMIT.
    rest: String,
    /// Each ORDER BY key and whether it ascends.
    keys: Vec<(&'s str, bool)>,
    limit: Option<usize>,
}

impl Parts<'_> {
    /// The statement the readings run.
    fn sql(&self) -> String {
        let mut sql = format!(
            "SELECT {}{}{}",
            if self.distinct { "DISTINCT " } else { "" },
            self.items.join(", "),
            self.rest
        );
        if !self.keys.is_empty() {
            let keys: Vec<String> = (self.keys.iter())
                .map(|(k, asc)| format!("{k} {}", if *asc { "ASC" } else { "DESC" }))
                .collect();
            sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if let Some(n) = self.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        sql
    }

    /// The expression a key sorts by: that of the select item it names
    /// by its alias, else the key itself (a column or an expression).
    fn behind<'k>(&'k self, key: &'k str) -> &'k str {
        let aliased = self.items.iter().find_map(|item| {
            let (expr, alias) = item.split_once(" AS ")?;
            alias.eq_ignore_ascii_case(key).then_some(expr)
        });
        aliased.unwrap_or(key)
    }

    /// The oracle: the statement without DISTINCT, ORDER BY or LIMIT, the
    /// expressions behind its keys appended to its select list; its rows
    /// deduplicated on the select list's cells (the first kept),
    /// stable-sorted on the appended cells, cut and stripped here.
    fn oracle(&self, db: &mut Database) -> Result<Vec<String>, String> {
        let appended: String = (self.keys.iter())
            .map(|(k, _)| format!(", {}", self.behind(k)))
            .collect();
        let sql = format!("SELECT {}{appended}{}", self.items.join(", "), self.rest);
        let rs = db
            .execute_with_params(&sql, &[])
            .map_err(|e| e.to_string())?;
        let width = rs.columns.len() - self.keys.len();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for row in rs.rows {
            let seen = |kept: &Vec<Value>| same_cells(&kept[..width], &row[..width]);
            if !(self.distinct && rows.iter().any(seen)) {
                rows.push(row);
            }
        }
        rows.sort_by(|a, b| {
            (self.keys.iter().enumerate())
                .map(|(j, (_, asc))| {
                    let ord = a[width + j].total_cmp(&b[width + j]);
                    if *asc {
                        ord
                    } else {
                        ord.reverse()
                    }
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        rows.truncate(self.limit.unwrap_or(usize::MAX));
        let stripped: Vec<Vec<Value>> = rows.into_iter().map(|r| r[..width].to_vec()).collect();
        Ok(shown(&stripped))
    }
}

/// Are two rows' cells one row to DISTINCT? Doubles are equal as
/// `Value::total_cmp` finds them (`-0.0` is `0.0`, every NaN one NaN);
/// cells of different kinds never are.
fn same_cells(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Value::Double(x), Value::Double(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => x == y,
    })
}

/// The four readings of a generated statement agree, and with the
/// oracle.
fn check_parts(parts: &Parts) -> Result<(), TestCaseError> {
    let sql = parts.sql();
    check(&sql)?;
    let (owned, oracle) = FIXTURE.with_borrow_mut(|(db, _)| {
        let owned = db.execute_with_params(&sql, &[]);
        (owned.map(|rs| shown(&rs.rows)), parts.oracle(db))
    });
    let owned = owned.map_err(|e| e.to_string());
    prop_assert!(
        owned == oracle,
        "{sql}: execute {owned:?}\noracle {oracle:?}"
    );
    Ok(())
}

/// The LIMIT a generated `limit` picks.
fn limit_of(limit: usize) -> Option<usize> {
    [None, Some(0), Some(1), Some(3), Some(10)]
        .get(limit)
        .copied()
        .flatten()
}

/// The ORDER BY keys `keys` picks from `names`.
fn keys_of<'s>(names: &[&'s str], keys: &[(usize, bool)]) -> Vec<(&'s str, bool)> {
    keys.iter().map(|&(k, asc)| (names[k], asc)).collect()
}

proptest! {
    #[test]
    fn every_reading_of_a_select_agrees(
        items in proptest::collection::vec(0usize..ITEMS.len(), 1..5),
        keys in proptest::collection::vec((0usize..KEYS.len(), any::<bool>()), 0..3),
        filter in 0usize..WHERES.len(),
        limit in 0usize..6,
        distinct in any::<bool>(),
    ) {
        check_parts(&Parts {
            distinct,
            items: items.iter().map(|&i| ITEMS[i]).collect(),
            rest: format!(" FROM k{}", WHERES[filter]),
            keys: keys_of(KEYS, &keys),
            limit: limit_of(limit),
        })?;
    }

    #[test]
    fn every_reading_of_a_join_agrees(
        items in proptest::collection::vec(0usize..ITEMS.len(), 0..3),
        theirs in proptest::collection::vec(0usize..M_ITEMS.len(), 1..3),
        keys in proptest::collection::vec((0usize..M_KEYS.len(), any::<bool>()), 0..3),
        left in any::<bool>(),
        limit in 0usize..6,
        distinct in any::<bool>(),
    ) {
        let items = items.iter().map(|&i| ITEMS[i]);
        check_parts(&Parts {
            distinct,
            items: items.chain(theirs.iter().map(|&i| M_ITEMS[i])).collect(),
            rest: format!(" FROM k {}JOIN m ON mn = n", if left { "LEFT " } else { "" }),
            keys: keys_of(M_KEYS, &keys),
            limit: limit_of(limit),
        })?;
    }

    #[test]
    fn every_reading_of_a_grouped_select_agrees(
        key in 0usize..GROUP_KEYS.len(),
        aggs in proptest::collection::vec(0usize..AGGS.len(), 1..3),
        having in 0usize..HAVINGS.len(),
        order in proptest::collection::vec((0usize..GROUP_ORDERS.len(), any::<bool>()), 0..2),
        limit in 0usize..6,
        filter in 0usize..WHERES.len(),
    ) {
        let group = GROUP_KEYS[key];
        // The group key last breaks ties, so the order is total.
        let mut keys = keys_of(GROUP_ORDERS, &order);
        if !keys.is_empty() {
            keys.push((group, true));
        }
        check_parts(&Parts {
            distinct: false,
            items: std::iter::once(group).chain(aggs.iter().map(|&i| AGGS[i])).collect(),
            rest: format!(" FROM k{} GROUP BY {group}{}", WHERES[filter], HAVINGS[having]),
            keys,
            limit: limit_of(limit),
        })?;
    }
}
