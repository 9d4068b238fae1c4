//! A checkpoint image lists tables in name order, so a child table can
//! come before the parent it references (the paper's
//! `RESULT_FILE → SIMULATION`). Reopening must not re-validate FK
//! targets mid-load, and the constraint must still hold afterwards.

use easia_db::{Database, DbError, Value};

#[test]
fn child_sorting_before_its_parent_reopens_after_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("easia-db-ckpt-fk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE SIMULATION (SIMULATION_KEY VARCHAR(20) PRIMARY KEY)")
            .unwrap();
        db.execute(
            "CREATE TABLE RESULT_FILE (FILE_NAME VARCHAR(40) PRIMARY KEY, \
             SIMULATION_KEY VARCHAR(20) REFERENCES SIMULATION(SIMULATION_KEY))",
        )
        .unwrap();
        db.execute("INSERT INTO SIMULATION VALUES ('s1')").unwrap();
        db.execute("INSERT INTO RESULT_FILE VALUES ('f1.edf', 's1')")
            .unwrap();
        db.checkpoint().unwrap();
    }
    let check = |db: &mut Database| {
        let rs = db
            .execute("SELECT FILE_NAME, SIMULATION_KEY FROM RESULT_FILE")
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::Str("f1.edf".into()), Value::Str("s1".into())]]
        );
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM SIMULATION").unwrap().rows,
            vec![vec![Value::Int(1)]]
        );
        let orphan = db.execute("INSERT INTO RESULT_FILE VALUES ('f2.edf', 'nope')");
        assert!(
            matches!(orphan, Err(DbError::Constraint(_))),
            "orphan child accepted after reopen: {orphan:?}"
        );
    };
    check(&mut Database::open(&dir).unwrap());
    check(&mut Database::open_recovering(&dir).unwrap().0);
    std::fs::remove_dir_all(&dir).unwrap();
}
