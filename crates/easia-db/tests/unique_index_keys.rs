//! CREATE UNIQUE INDEX refuses the keys its tree files under one entry.
//! Equal is the index order's equality: `0.0` is `-0.0`, and a NaN is
//! every other NaN, whatever its payload. A unique index accepted beside
//! such a pair would file one key twice, and the checkpoint it was
//! written into could not be opened again ("index order holds a unique
//! key twice").

use easia_db::{Database, DbError, Value};
use std::path::Path;

/// Table `D` of a key and a DOUBLE holding the two doubles given, each
/// through `insert_row`.
fn two_doubles(db: &mut Database, x: f64, y: f64) {
    db.execute("CREATE TABLE D (K INTEGER PRIMARY KEY, X DOUBLE)")
        .unwrap();
    db.insert_row("D", vec![Value::Int(1), Value::Double(x)])
        .unwrap();
    db.insert_row("D", vec![Value::Int(2), Value::Double(y)])
        .unwrap();
}

/// The DDL is refused as a constraint error, leaves no index behind, and
/// both rows are still read through the table.
fn refused(db: &mut Database) {
    let ddl = db.execute("CREATE UNIQUE INDEX UX ON D (X)");
    assert!(matches!(ddl, Err(DbError::Constraint(_))), "{ddl:?}");
    assert_eq!(db.table("D").unwrap().indexes.len(), 1);
    let count = db.execute("SELECT COUNT(*) FROM D").unwrap();
    assert_eq!(count.rows, vec![vec![Value::Int(2)]]);
}

const PAIRS: [(f64, f64); 2] = [
    (0.0, -0.0),
    (f64::NAN, f64::from_bits(0xfff8_0000_0000_beef)),
];

#[test]
fn equal_doubles_of_other_bits_are_refused_in_memory() {
    for (x, y) in PAIRS {
        let mut db = Database::new_in_memory();
        two_doubles(&mut db, x, y);
        refused(&mut db);
    }
}

#[test]
fn a_refused_index_leaves_a_hub_that_reopens() {
    for (i, (x, y)) in PAIRS.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("easia-db-unique-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open(&dir).unwrap();
            two_doubles(&mut db, x, y);
            refused(&mut db);
            db.checkpoint().unwrap();
        }
        let reopened = Database::open(Path::new(&dir));
        let mut db = reopened.unwrap_or_else(|e| panic!("{x} beside {y}: {e:?}"));
        assert_eq!(db.table("D").unwrap().indexes.len(), 1);
        let count = db.execute("SELECT COUNT(*) FROM D WHERE K > 0").unwrap();
        assert_eq!(count.rows, vec![vec![Value::Int(2)]]);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
