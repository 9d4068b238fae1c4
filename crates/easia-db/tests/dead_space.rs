//! A heap gives back the space its deleted records take, in memory as on
//! disk: a quiescent `vacuum` compacts each heap whose dead space passes
//! a quarter of its pages, whichever kind of database holds it.

use easia_db::{Database, Value};
use std::collections::HashSet;

const ROWS: i64 = 200;
const ROUNDS: i64 = 200;

/// `ROWS` rows, then `ROUNDS` rounds of UPDATE-all, `vacuum` and
/// `checkpoint`: the heap stays within twice the pages it had after the
/// first round, and every index files exactly the heap's rows.
fn updates_keep_the_heap_to_the_live_rows(db: &mut Database) {
    db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, G INTEGER, D VARCHAR(100))")
        .unwrap();
    db.execute("CREATE INDEX IX_G ON T (G)").unwrap();
    db.execute("BEGIN").unwrap();
    for k in 0..ROWS {
        let row = vec![Value::Int(k), Value::Int(0), Value::Str("x".repeat(60))];
        db.insert_row("T", row).unwrap();
    }
    db.execute("COMMIT").unwrap();
    let mut first = 0;
    for round in 1..=ROUNDS {
        db.execute_with_params("UPDATE T SET G = ?", &[Value::Int(round)])
            .unwrap();
        db.vacuum();
        db.checkpoint().unwrap();
        let t = db.table("T").unwrap();
        let pages = t.heap.page_count();
        if round == 1 {
            first = pages;
        }
        assert!(
            pages <= 2 * first,
            "round {round}: {pages} pages, {first} after the first round"
        );
        let rows: HashSet<_> = t.heap.records().map(|(rid, _)| rid).collect();
        assert_eq!(rows.len() as i64, ROWS);
        for ix in &t.indexes {
            let mut filed = HashSet::new();
            let mut entries = 0;
            ix.tree.scan_from(&[], |_, rids| {
                entries += rids.len();
                filed.extend(rids.iter().copied());
                true
            });
            assert!(
                entries == rows.len() && filed == rows,
                "round {round}: {} does not file the heap's rows",
                ix.name
            );
        }
    }
    let rs = db
        .execute("SELECT COUNT(*), MIN(G), MAX(G) FROM T")
        .unwrap();
    let want = [ROWS, ROUNDS, ROUNDS].map(Value::Int).to_vec();
    assert_eq!(rs.rows, vec![want]);
}

#[test]
fn an_in_memory_heap_gives_back_its_dead_space() {
    updates_keep_the_heap_to_the_live_rows(&mut Database::new_in_memory());
}

#[test]
fn a_file_backed_heap_gives_back_its_dead_space() {
    let dir = std::env::temp_dir().join(format!("easia-db-dead-space-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    updates_keep_the_heap_to_the_live_rows(&mut Database::open(&dir).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
