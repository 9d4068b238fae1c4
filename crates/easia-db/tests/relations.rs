//! In-memory relations beside the catalogue (`exec::run_select_over`):
//! the seam the federation's hub merge runs gathered rows through.

use easia_db::exec::{run_select_over, Relation};
use easia_db::sql::ast::Stmt;
use easia_db::sql::parse;
use easia_db::{Database, Value};

fn run(db: &Database, sql: &str, relations: &[Relation]) -> Vec<Vec<Value>> {
    let Stmt::Select(sel) = parse(sql).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    run_select_over(db, &db.read_view(), &sel, &[], relations)
        .unwrap()
        .rows
}

#[test]
fn relations_shadow_the_catalogue_pad_left_joins_and_sort_by_hidden_columns() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR(10))")
        .unwrap();
    db.execute("INSERT INTO T VALUES (1, 'catalogue'), (2, 'catalogue')")
        .unwrap();
    let t = Relation {
        name: "t".into(),
        columns: vec!["K".into(), "V".into(), "W".into()],
        rows: vec![
            vec![Value::Int(1), Value::Str("b".into()), Value::Int(30)],
            vec![Value::Int(7), Value::Str("a".into()), Value::Int(10)],
            vec![Value::Int(9), Value::Str("c".into()), Value::Int(20)],
        ],
    };
    let strs = |vs: &[&str]| -> Vec<Vec<Value>> {
        vs.iter().map(|v| vec![Value::Str((*v).into())]).collect()
    };

    // The relation wins over the catalogue table of the same name, even
    // where the catalogue would have answered from its PK index...
    assert_eq!(
        run(&db, "SELECT V FROM T WHERE K = 1", std::slice::from_ref(&t)),
        strs(&["b"])
    );
    // ...and ORDER BY may name a column the select list drops.
    assert_eq!(
        run(
            &db,
            "SELECT X.V FROM T X ORDER BY X.W",
            std::slice::from_ref(&t)
        ),
        strs(&["a", "c", "b"])
    );
    // Without it the catalogue answers as before.
    assert_eq!(
        run(&db, "SELECT V FROM T WHERE K = 1", &[]),
        strs(&["catalogue"])
    );

    // A relation on the right of a LEFT JOIN pads unmatched rows.
    let r = Relation {
        name: "R".into(),
        columns: vec!["K".into(), "NOTE".into()],
        rows: vec![vec![Value::Int(2), Value::Str("hit".into())]],
    };
    assert_eq!(
        run(
            &db,
            "SELECT T.K, R.NOTE FROM T LEFT JOIN R ON T.K = R.K ORDER BY T.K",
            &[r]
        ),
        vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Str("hit".into())],
        ]
    );
}
