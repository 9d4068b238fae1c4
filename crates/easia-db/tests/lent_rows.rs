//! Differential property of how a SELECT's rows leave the executor.
//!
//! A scan's rows are projected out of their records — the cells a
//! select list passes through copied as bytes, expression items and
//! DATALINK renderings encoded from values — and ORDER BY keeps them as
//! records, its expression keys in an arena beside them, and lends each
//! sorted record as it is. Three readings of one statement must agree,
//! rows and order or error text: `Database::execute`, which decodes the
//! owned rows of a result set; `Database::execute_each`, its lent rows
//! collected through `Records::push_lent` and decoded after; and the
//! same statement over an in-memory `exec::Relation` holding the table's
//! rows, which is read through the same scan but never sieved nor
//! probed, and has no DATALINK spec. A fourth reading joins the table to
//! a table of one row: a joined row has no one record, so it is
//! projected as values, and ORDER BY encodes them — the path the copies
//! replaced, beside them.
//!
//! The table holds a cell of every kind — INTEGER, DOUBLE (±0.0, NaN),
//! VARCHAR, CLOB, BLOB, BOOLEAN, TIMESTAMP and a DATALINK with a spec,
//! rendered on its way out — with NULLs and ties. The statements are
//! single-table SELECTs whose select lists reorder, repeat or drop
//! columns or mix expressions with columns; ORDER BY an output column,
//! a dropped column or an expression, ascending or descending; LIMIT,
//! DISTINCT, a WHERE the sieve or an index serves, and a `1/0` or an
//! `n / (n - 3)` held as a row error in the select list or a key.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::value::{decode_row, Records};
use easia_db::{Database, Value};
use proptest::prelude::*;
use std::cell::RefCell;

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
        .execute_each(sql, &[], |row| records.push_lent(row))
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
    ] {
        check(sql).unwrap_or_else(|e| panic!("{e}"));
    }
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
        let list: Vec<&str> = items.iter().map(|&i| ITEMS[i]).collect();
        let mut sql = format!(
            "SELECT {}{} FROM k{}",
            if distinct { "DISTINCT " } else { "" },
            list.join(", "),
            WHERES[filter],
        );
        if !keys.is_empty() {
            let keys: Vec<String> = keys
                .iter()
                .map(|&(k, asc)| format!("{} {}", KEYS[k], if asc { "ASC" } else { "DESC" }))
                .collect();
            sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if let Some(n) = [None, Some(0), Some(1), Some(3), Some(10)].get(limit).copied().flatten() {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        check(&sql)?;
    }
}
