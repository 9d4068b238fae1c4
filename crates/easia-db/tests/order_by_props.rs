//! ORDER BY against its definition: a stable sort, then a truncate.
//!
//! Every statement is run twice: as written, and as the reference — the
//! same SELECT without ORDER BY or LIMIT, its sort keys appended to the
//! select list. The reference's rows are stable-sorted here on the
//! appended cells with `Value::total_cmp`, truncated to the LIMIT and
//! stripped of the key cells; the statement must return exactly those
//! rows, ties in arrival order. The tables hold NULLs, duplicates, ±0.0,
//! NaNs, INTEGER beside DOUBLE and strings sharing prefixes longer than
//! 8 bytes; the ORDER BY lists mix output columns, aliases (one shadowing
//! a table column), unprojected and qualified columns and expressions, in
//! both directions, under DISTINCT and GROUP BY, with LIMIT 0 / 1 / 3 / n
//! and past n. Each statement runs over the catalogue table and again
//! over the same rows as an in-memory `exec::Relation`, whose DOUBLE
//! column keeps the INTEGER cells the table coerces; and the rows
//! `Database::execute_each` lends for it must be the rows `execute`
//! returns, in order. A fixed case runs many more rows than twice the
//! LIMIT over few distinct keys, so that ties keep their arrival order
//! across the cuts a LIMIT makes as the rows arrive.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::{Database, ResultSet, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

const DDL: &str = "CREATE TABLE T (ID INTEGER PRIMARY KEY, G VARCHAR(4), N INTEGER, \
                   X DOUBLE, S VARCHAR(40))";

/// A select item: its text, its output name and the expression behind
/// that name.
type Item = (&'static str, &'static str, &'static str);

/// The select items of a plain SELECT.
const ITEMS: &[Item] = &[
    ("ID", "ID", "ID"),
    ("G", "G", "G"),
    ("N", "N", "N"),
    ("X", "X", "X"),
    ("S", "S", "S"),
    ("X AS V", "V", "X"),
    ("N + X AS W", "W", "N + X"),
    ("-X AS N", "N", "-X"),
    ("COALESCE(N, X) AS C", "C", "COALESCE(N, X)"),
    ("UPPER(S)", "UPPER", "UPPER(S)"),
];

/// Names that are only output aliases: a key only where projected.
const ALIASES: &[&str] = &["V", "W", "C"];

/// ORDER BY keys of a plain SELECT.
const KEYS: &[&str] = &[
    "ID",
    "G",
    "N",
    "X",
    "S",
    "V",
    "W",
    "C",
    "T.N",
    "N + X",
    "COALESCE(N, X)",
    "LENGTH(S)",
    "-N",
    "S || G",
];

/// ORDER BY keys of a grouped SELECT besides its group column.
const AGG_KEYS: &[&str] = &[
    "CNT",
    "LO",
    "COUNT(*)",
    "MAX(N)",
    "MIN(S)",
    "SUM(N)",
    "AVG(X)",
    "MAX(X) - MIN(X)",
];

fn x_of(tag: u8) -> Value {
    match tag {
        0 => Value::Null,
        1 => Value::Double(0.0),
        2 => Value::Double(-0.0),
        3 => Value::Double(f64::NAN),
        4 => Value::Double(-f64::NAN),
        5 => Value::Double(1.5),
        6 => Value::Int(2),
        7 => Value::Double(2.0),
        8 => Value::Double(-3.25),
        _ => Value::Double(1e300),
    }
}

fn s_of(tag: u8, tail: &str) -> Value {
    match tag {
        0 => Value::Null,
        1 => Value::Str("simulation-run".into()),
        2 => Value::Str(format!("Simulation-run-{tail}")),
        _ => Value::Str(format!("simulation-run-{tail}")),
    }
}

/// The expression a bare key sorts by: that of the first select item it
/// names, else the key itself (a table column or an expression).
fn behind(items: &[Item], key: &'static str) -> &'static str {
    let named = items
        .iter()
        .find(|(_, name, _)| name.eq_ignore_ascii_case(key));
    named.map_or(key, |(_, _, expr)| expr)
}

/// The reference's rows stable-sorted on their appended key cells (past
/// `width`), cut to `limit` and stripped of the key cells.
fn sorted(rs: ResultSet, width: usize, asc: &[bool], limit: Option<usize>) -> Vec<String> {
    let mut rows = rs.rows;
    rows.sort_by(|a, b| {
        asc.iter()
            .enumerate()
            .map(|(j, up)| {
                let ord = a[width + j].total_cmp(&b[width + j]);
                if *up {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows.truncate(limit.unwrap_or(usize::MAX));
    rows.iter().map(|r| format!("{:?}", &r[..width])).collect()
}

/// Run a statement over the catalogue, or over `relation` in its stead.
fn run(db: &mut Database, relation: Option<&Relation>, sql: &str) -> ResultSet {
    let outcome = match relation {
        None => db.execute(sql),
        Some(relation) => {
            let Ok(Stmt::Select(sel)) = easia_db::sql::parse(sql) else {
                panic!("{sql} is not a SELECT");
            };
            let view = db.read_view();
            run_select_over(db, &view, &sel, &[], std::slice::from_ref(relation))
        }
    };
    outcome.unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The rows `Database::execute_each` lends for a statement.
fn lent(db: &Database, sql: &str) -> Vec<String> {
    let mut rows = Vec::new();
    let each = |row: &[u8]| {
        let row = easia_db::value::decode_row(row, &mut 0).unwrap();
        rows.push(format!("{row:?}"));
    };
    db.execute_each(sql, &[], each)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    rows
}

/// `SELECT [DISTINCT] items FROM T [GROUP BY ..] ORDER BY keys [LIMIT ..]`
/// against its reference, over the table and over the relation.
fn check(
    db: &mut Database,
    relation: &Relation,
    select: &str,
    items: &[Item],
    from: &str,
    keys: &[(&'static str, bool)],
    limit: Option<usize>,
) -> Result<(), TestCaseError> {
    let listed: Vec<String> = keys
        .iter()
        .map(|(key, asc)| format!("{key}{}", if *asc { "" } else { " DESC" }))
        .collect();
    let projected: Vec<&str> = items.iter().map(|(text, _, _)| *text).collect();
    let appended: Vec<&str> = keys.iter().map(|(key, _)| behind(items, key)).collect();
    let cut = limit.map(|n| format!(" LIMIT {n}")).unwrap_or_default();
    let head = format!("{select} {}", projected.join(", "));
    let sql = format!("{head}{from} ORDER BY {}{cut}", listed.join(", "));
    let reference = format!("{head}, {}{from}", appended.join(", "));
    let asc: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
    for (over, source) in [("table", None), ("relation", Some(relation))] {
        let got = run(db, source, &sql);
        let want = run(db, source, &reference);
        let width = items.len();
        prop_assert!(
            got.columns[..] == want.columns[..width],
            "{sql} over the {over}: columns {:?}",
            got.columns
        );
        let rows: Vec<String> = got.rows.iter().map(|r| format!("{r:?}")).collect();
        let want = sorted(want, width, &asc, limit);
        prop_assert!(
            rows == want,
            "{sql} over the {over}\n  got:  {rows:?}\n  want: {want:?}"
        );
        if source.is_none() {
            let lent = lent(db, &sql);
            prop_assert!(
                lent == rows,
                "{sql} lent\n  lent:      {lent:?}\n  collected: {rows:?}"
            );
        }
    }
    Ok(())
}

/// 300 rows over six distinct `(G, N)` pairs, ordered and cut at LIMITs
/// far below half the rows: every cut sorts ties that arrived on both
/// sides of an earlier cut, which must keep them in arrival order.
#[test]
fn ties_keep_their_arrival_order_across_limit_cuts() {
    let mut db = Database::new_in_memory();
    db.execute(DDL).unwrap();
    let mut all = Vec::new();
    for id in 0..300i64 {
        let row = vec![
            Value::Int(id),
            Value::Str(format!("g{}", id % 2)),
            Value::Int(id % 3),
            x_of((id % 10) as u8),
            s_of((id % 4) as u8, "t"),
        ];
        db.execute_with_params("INSERT INTO T VALUES (?, ?, ?, ?, ?)", &row)
            .unwrap();
        all.push(row);
    }
    let columns = ["ID", "G", "N", "X", "S"].map(String::from).to_vec();
    let relation = Relation::from_rows("T", columns, &all);
    let items = [ITEMS[0], ITEMS[1], ITEMS[6]];
    let orders: [&[(&str, bool)]; 4] = [
        &[("G", true)],
        &[("N", false), ("G", true)],
        &[("N + X", true)],
        &[("LENGTH(S)", false), ("-N", true)],
    ];
    for keys in orders {
        for limit in [1, 2, 7, 40, 149, 150, 151] {
            let limit = Some(limit);
            check(&mut db, &relation, "SELECT", &items, " FROM T", keys, limit).unwrap();
        }
    }
}

proptest! {
    #[test]
    fn order_by_is_a_stable_sort_then_a_truncate(
        rows in proptest::collection::vec((0u8..4, 0u8..6, 0u8..10, 0u8..5, "[ab]{0,3}"), 0..60),
        picks in proptest::collection::vec(0usize..ITEMS.len(), 1..4),
        keys in proptest::collection::vec((0usize..64, any::<bool>()), 1..4),
        group in 0usize..4,
        limit in 0u8..6,
    ) {
        let mut db = Database::new_in_memory();
        db.execute(DDL).unwrap();
        let mut all = Vec::new();
        for (id, (g, n, x, s, tail)) in rows.iter().enumerate() {
            let row = vec![
                Value::Int(id as i64),
                match g {
                    0 => Value::Null,
                    g => Value::Str(format!("g{g}")),
                },
                match n {
                    0 => Value::Null,
                    n => Value::Int([-1, 0, 2, 2, 7][*n as usize - 1]),
                },
                x_of(*x),
                s_of(*s, tail),
            ];
            db.execute_with_params("INSERT INTO T VALUES (?, ?, ?, ?, ?)", &row)
                .unwrap();
            all.push(row);
        }
        let columns = ["ID", "G", "N", "X", "S"].map(String::from).to_vec();
        let relation = Relation::from_rows("T", columns, &all);
        let limit = match limit {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            3 => Some(3),
            4 => Some(rows.len()),
            _ => Some(rows.len() + 5),
        };

        // A plain SELECT: output columns, aliases, unprojected and
        // qualified columns, expressions.
        let items: Vec<Item> = picks.iter().map(|&i| ITEMS[i]).collect();
        let usable: Vec<&str> = KEYS
            .iter()
            .copied()
            .filter(|k| !ALIASES.contains(k) || items.iter().any(|(_, name, _)| name == k))
            .collect();
        let plain: Vec<(&str, bool)> =
            keys.iter().map(|&(k, asc)| (usable[k % usable.len()], asc)).collect();
        check(&mut db, &relation, "SELECT", &items, " FROM T", &plain, limit)?;

        // DISTINCT, keyed by output columns only.
        let distinct: Vec<(&str, bool)> =
            keys.iter().map(|&(k, asc)| (items[k % items.len()].1, asc)).collect();
        check(&mut db, &relation, "SELECT DISTINCT", &items, " FROM T", &distinct, limit)?;

        // GROUP BY, ordered by its column, aggregates and their aliases.
        let by = ["G", "N", "S", "X"][group];
        let items: [Item; 4] = [
            (by, by, by),
            ("COUNT(*) AS CNT", "CNT", "COUNT(*)"),
            ("MIN(X) AS LO", "LO", "MIN(X)"),
            ("MAX(S)", "MAX", "MAX(S)"),
        ];
        let grouped: Vec<(&str, bool)> = keys
            .iter()
            .map(|&(k, asc)| (if k % 3 == 0 { by } else { AGG_KEYS[k % AGG_KEYS.len()] }, asc))
            .collect();
        check(&mut db, &relation, "SELECT", &items, &format!(" FROM T GROUP BY {by}"), &grouped, limit)?;
    }
}
