//! A JOIN of three legs against its oracle: the same statement over its
//! first two legs materialised as one relation.
//!
//! The executor joins legs left to right. Every leg but the last keeps
//! its pairings as records, their cells copied, and the next leg reads
//! them as its left rows; the last leg lends each pairing to the WHERE
//! and the sink. So `x JOIN y ON … JOIN z ON … WHERE …` must answer as
//! `(x JOIN y ON …)` run on its own, bound as an `exec::Relation`, then
//! joined with `z` — rows, their order and error text alike. Generated
//! statements mix INNER and LEFT legs, ONs reading either earlier leg,
//! a WHERE over all three legs with and without GROUP BY and ORDER BY …
//! LIMIT, a division by zero in the second leg's ON and in the WHERE, and
//! a relation leg whose DATALINK cells are read as CLOB.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The catalogue tables: `a` and `b` with a primary key, `b` and `c`
/// with an index on `k` (so an equality ON probes it).
const DDL: [&str; 5] = [
    "CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, s VARCHAR(8), d INTEGER)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, s VARCHAR(8), d INTEGER)",
    "CREATE TABLE c (id INTEGER, k INTEGER, s VARCHAR(8), d INTEGER)",
    "CREATE INDEX ix_bk ON b (k)",
    "CREATE INDEX ix_ck ON c (k)",
];

/// The columns of each leg, the relation `r`'s with a DATALINK last.
const COLUMNS: [&str; 4] = ["ID", "K", "S", "D"];

fn cell(rng: &mut StdRng, values: &[Value]) -> Value {
    values[rng.gen_range(0..values.len())].clone()
}

/// A row of `id` with a small key, a short text and a divisor that is
/// sometimes zero, each sometimes NULL.
fn row(rng: &mut StdRng, id: i64) -> Vec<Value> {
    let ints: Vec<Value> = (0..4).map(Value::Int).chain([Value::Null]).collect();
    let texts = [Value::Str("p".into()), Value::Str("q".into()), Value::Null];
    let k = cell(rng, &ints);
    let s = cell(rng, &texts);
    let d = match rng.gen_range(0..8) {
        0 => Value::Int(0),
        1 => Value::Null,
        n => Value::Int(n),
    };
    vec![Value::Int(id), k, s, d]
}

/// The database, and the relation `r`: rows of the legs' shape plus a
/// DATALINK, read as a CLOB of its URL.
fn world() -> (Database, Relation) {
    let mut rng = StdRng::seed_from_u64(31);
    let mut db = Database::new_in_memory();
    for ddl in DDL {
        db.execute(ddl).unwrap();
    }
    for (table, rows) in [("a", 24), ("b", 16), ("c", 16)] {
        for id in 0..rows {
            let sql = format!("INSERT INTO {table} VALUES (?, ?, ?, ?)");
            db.execute_with_params(&sql, &row(&mut rng, id)).unwrap();
        }
    }
    let rows: Vec<Vec<Value>> = (0..12)
        .map(|id| {
            let mut r = row(&mut rng, id);
            r.push(match id % 3 {
                0 => Value::Null,
                _ => Value::Datalink(format!("http://fs{}/data/run{id}.edf", id % 2)),
            });
            r
        })
        .collect();
    let mut columns: Vec<String> = COLUMNS.iter().map(|c| c.to_string()).collect();
    columns.push("LINK".into());
    let mut r = Relation::from_rows("R", columns, &rows);
    r.links_as_clob = true;
    (db, r)
}

/// Pick one of `choices`.
fn pick<'a>(rng: &mut StdRng, choices: &[&'a str]) -> &'a str {
    choices[rng.gen_range(0..choices.len())]
}

/// `sql` with each `x.COL` and `y.COL` read from the relation `ab` that
/// holds the first two legs joined, its columns `X_COL` and `Y_COL`.
fn over_ab(sql: &str) -> String {
    let mut out = String::new();
    let mut rest = sql;
    while let Some(at) = rest.find(['x', 'y']) {
        let (before, from) = rest.split_at(at);
        out.push_str(before);
        let leg = &from[..1];
        let word_start = !before.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        if word_start && from[1..].starts_with('.') {
            out.push_str("ab.");
            out.push_str(&leg.to_ascii_uppercase());
            out.push('_');
            rest = &from[2..];
        } else {
            out.push_str(leg);
            rest = &from[1..];
        }
    }
    out.push_str(rest);
    out
}

/// The rows of `sql`, or its error text, with `relations` beside the
/// catalogue.
fn answer(db: &Database, sql: &str, relations: &[Relation]) -> Result<Vec<Vec<Value>>, String> {
    let Stmt::Select(sel) = easia_db::sql::parse(sql).unwrap() else {
        unreachable!("{sql}");
    };
    run_select_over(db, &db.read_view(), &sel, &[], relations)
        .map(|rs| rs.rows)
        .map_err(|e| e.to_string())
}

#[test]
fn three_legs_answer_as_two_legs_over_the_first_two_materialised() {
    let (db, r) = world();
    let mut rng = StdRng::seed_from_u64(7);
    let (mut answered, mut raised, mut clobs) = (0, 0, 0);
    for _ in 0..400 {
        let (y, z) = (pick(&mut rng, &["b", "r"]), pick(&mut rng, &["c", "r"]));
        if y == z {
            continue;
        }
        let join2 = pick(&mut rng, &["JOIN", "LEFT JOIN"]);
        let join3 = pick(&mut rng, &["JOIN", "LEFT JOIN"]);
        let on2 = pick(
            &mut rng,
            &[
                "y.k = x.k",
                "x.k = y.k AND y.s <> 'q'",
                "y.k = x.k AND 10 / y.d > 2",
                "y.k <= x.k AND y.id < 6",
            ],
        );
        let on3 = pick(
            &mut rng,
            &[
                "z.k = x.k",
                "z.k = y.k",
                "z.k = y.k AND z.id <> x.id",
                "z.s = x.s OR z.k = y.id",
            ],
        );
        let filter = pick(
            &mut rng,
            &[
                "",
                " WHERE x.id < 18 AND z.k >= 1",
                " WHERE x.s = y.s OR z.id > x.id",
                " WHERE y.id IS NULL OR z.d > y.d",
                " WHERE 10 / z.d > 2",
            ],
        );
        let link = match (y, z) {
            ("r", _) => "y.link",
            (_, "r") => "z.link",
            _ => "z.s",
        };
        let (items, tail) = match rng.gen_range(0..3) {
            0 => (format!("x.id, y.id, z.id, y.s, z.k, {link}"), String::new()),
            1 => (
                format!("x.k, COUNT(*), MAX({link}), MAX(z.id), SUM(y.d)"),
                " GROUP BY x.k ORDER BY x.k".to_string(),
            ),
            _ => (
                format!("x.id, y.id, z.id, {link}"),
                " ORDER BY z.id DESC, x.id, y.id LIMIT 7".to_string(),
            ),
        };
        let three = format!(
            "SELECT {items} FROM a x {join2} {y} y ON {on2} {join3} {z} z ON {on3}{filter}{tail}"
        );
        let got = answer(&db, &three, std::slice::from_ref(&r));

        // The first two legs, materialised as the relation `ab`.
        let pair = format!("SELECT x.*, y.* FROM a x {join2} {y} y ON {on2}");
        let want = answer(&db, &pair, std::slice::from_ref(&r)).and_then(|rows| {
            let width = if y == "r" { 5 } else { 4 };
            let prefixed = |leg: &str, n: usize| {
                let names = COLUMNS.iter().copied().chain(["LINK"]).take(n);
                names.map(move |c| format!("{leg}_{c}")).collect::<Vec<_>>()
            };
            let columns = [prefixed("X", 4), prefixed("Y", width)].concat();
            let ab = Relation::from_rows("AB", columns, &rows);
            let two = over_ab(&format!(
                "SELECT {items} FROM ab {join3} {z} z ON {on3}{filter}{tail}"
            ));
            answer(&db, &two, &[ab, r.clone()])
        });
        assert_eq!(got, want, "{three}");
        match &got {
            Ok(rows) => {
                answered += 1;
                let clob = |v: &Value| matches!(v, Value::Clob(_));
                clobs += rows.iter().filter(|row| row.iter().any(clob)).count();
            }
            Err(_) => raised += 1,
        }
    }
    // Both outcomes are exercised, and DATALINKs are read as CLOB.
    assert!(
        answered > 50 && raised > 20,
        "{answered} answered, {raised} raised"
    );
    assert!(clobs > 0);
}

/// A statement raises the error of its earliest phase, whichever row
/// raises first: an ON's division by zero, the second leg's or the
/// last's, wins over the WHERE's arithmetic on text.
#[test]
fn three_legs_raise_their_earliest_phase() {
    let (db, r) = world();
    let run = |sql: &str| answer(&db, sql, std::slice::from_ref(&r));
    let from = "SELECT x.id FROM a x JOIN b y ON y.k = x.k";
    let typed = run(&format!("{from} JOIN r z ON z.k = y.k WHERE z.s * 2 > 1"));
    assert_eq!(
        typed,
        Err("type error: arithmetic on VARCHAR and INTEGER".into())
    );
    let zero = Err("evaluation error: division by zero".to_string());
    let on3 = format!("{from} JOIN r z ON z.k = y.k AND 10 / z.d > 2 WHERE z.s * 2 > 1");
    assert_eq!(run(&on3), zero);
    let on2 = format!("{from} AND 10 / y.d > 2 JOIN r z ON z.k = y.k WHERE z.s * 2 > 1");
    assert_eq!(run(&on2), zero);
}
