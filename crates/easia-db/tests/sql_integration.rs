//! End-to-end SQL tests against the embedded engine, modelled on the
//! paper's five-table turbulence schema.

use easia_db::{Database, DbError, Value};

fn turbulence_db() -> Database {
    let mut db = Database::new_in_memory();
    db.execute(
        "CREATE TABLE author (
            author_key VARCHAR(30) PRIMARY KEY,
            name VARCHAR(100) NOT NULL,
            email VARCHAR(100),
            institution VARCHAR(200)
        )",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE simulation (
            simulation_key VARCHAR(30) PRIMARY KEY,
            title VARCHAR(200) NOT NULL,
            author_key VARCHAR(30) REFERENCES author(author_key),
            grid_size INTEGER,
            reynolds DOUBLE,
            description CLOB
        )",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE result_file (
            file_name VARCHAR(100),
            simulation_key VARCHAR(30) REFERENCES simulation(simulation_key),
            timestep INTEGER,
            measurement VARCHAR(20),
            file_format VARCHAR(10),
            file_size INTEGER,
            download_result DATALINK LINKTYPE URL NO FILE LINK CONTROL,
            PRIMARY KEY (file_name, simulation_key)
        )",
    )
    .unwrap();
    db.execute("INSERT INTO author VALUES ('A1', 'Mark Papiani', 'mp@soton', 'Southampton')")
        .unwrap();
    db.execute("INSERT INTO author VALUES ('A2', 'Jasmin Wason', NULL, 'Southampton')")
        .unwrap();
    db.execute(
        "INSERT INTO simulation VALUES
         ('S1', 'Channel flow Re360', 'A1', 256, 360.0, 'DNS of channel flow'),
         ('S2', 'Isotropic decay', 'A1', 512, 1200.0, 'Decaying turbulence'),
         ('S3', 'Boundary layer', 'A2', 128, 300.0, NULL)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO result_file VALUES
         ('t000.edf', 'S1', 0, 'u,v,w,p', 'EDF', 85000000, 'http://fs1/data/S1/t000.edf'),
         ('t001.edf', 'S1', 1, 'u,v,w,p', 'EDF', 85000000, 'http://fs1/data/S1/t001.edf'),
         ('t000.edf', 'S2', 0, 'u,v,w,p', 'HDF', 544000000, 'http://fs2/data/S2/t000.edf')",
    )
    .unwrap();
    db
}

#[test]
fn select_all() {
    let mut db = turbulence_db();
    let rs = db.execute("SELECT * FROM simulation").unwrap();
    assert_eq!(rs.columns.len(), 6);
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn where_with_like_and_comparison() {
    let mut db = turbulence_db();
    let rs = db
        .execute("SELECT title FROM simulation WHERE title LIKE '%flow%' AND grid_size >= 200")
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Str("Channel flow Re360".into())]]);
}

#[test]
fn pk_index_lookup() {
    let mut db = turbulence_db();
    let rs = db
        .execute("SELECT title FROM simulation WHERE simulation_key = 'S2'")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Str("Isotropic decay".into()));
}

#[test]
fn parameterised_query() {
    let mut db = turbulence_db();
    let rs = db
        .execute_with_params(
            "SELECT COUNT(*) FROM result_file WHERE simulation_key = ?",
            &[Value::Str("S1".into())],
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn join_fk_browsing() {
    // The FK-browsing query: simulation rows with their author details.
    let mut db = turbulence_db();
    let rs = db
        .execute(
            "SELECT s.title, a.name FROM simulation s \
             JOIN author a ON s.author_key = a.author_key \
             ORDER BY s.title",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][1], Value::Str("Jasmin Wason".into()));
    assert_eq!(rs.columns, vec!["TITLE", "NAME"]);
}

#[test]
fn left_join_keeps_unmatched() {
    let mut db = turbulence_db();
    // S3 has no result files.
    let rs = db
        .execute(
            "SELECT s.simulation_key, r.file_name FROM simulation s \
             LEFT JOIN result_file r ON r.simulation_key = s.simulation_key \
             ORDER BY s.simulation_key, r.file_name",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 4);
    let last = rs.rows.last().unwrap();
    assert_eq!(last[0], Value::Str("S3".into()));
    assert_eq!(last[1], Value::Null);
}

#[test]
fn aggregates_group_by_having() {
    let mut db = turbulence_db();
    let rs = db
        .execute(
            "SELECT author_key, COUNT(*) AS n, MAX(grid_size) FROM simulation \
             GROUP BY author_key HAVING COUNT(*) > 1",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(
        rs.rows[0],
        vec![Value::Str("A1".into()), Value::Int(2), Value::Int(512)]
    );
}

#[test]
fn global_aggregates() {
    let mut db = turbulence_db();
    let rs = db
        .execute(
            "SELECT COUNT(*), SUM(file_size), AVG(timestep), MIN(file_format) FROM result_file",
        )
        .unwrap();
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Int(3),
            Value::Int(714_000_000),
            Value::Double(1.0 / 3.0),
            Value::Str("EDF".into())
        ]
    );
}

#[test]
fn aggregate_over_empty_table() {
    let mut db = turbulence_db();
    db.execute("CREATE TABLE empty_t (x INTEGER)").unwrap();
    let rs = db.execute("SELECT COUNT(*), SUM(x) FROM empty_t").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(0), Value::Null]);
}

#[test]
fn distinct_and_order_and_limit() {
    let mut db = turbulence_db();
    let rs = db
        .execute("SELECT DISTINCT measurement FROM result_file")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = db
        .execute("SELECT title FROM simulation ORDER BY grid_size DESC LIMIT 2")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Str("Isotropic decay".into()));
}

#[test]
fn order_by_expression_and_alias() {
    let mut db = turbulence_db();
    let rs = db
        .execute("SELECT title, grid_size * 2 AS doubled FROM simulation ORDER BY doubled")
        .unwrap();
    assert_eq!(rs.rows[0][1], Value::Int(256));
    let rs = db
        .execute("SELECT title FROM simulation ORDER BY reynolds + 1 DESC")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Str("Isotropic decay".into()));
}

#[test]
fn update_rows() {
    let mut db = turbulence_db();
    let rs = db
        .execute("UPDATE simulation SET grid_size = 1024 WHERE author_key = 'A1'")
        .unwrap();
    assert_eq!(rs.affected, 2);
    let rs = db
        .execute("SELECT COUNT(*) FROM simulation WHERE grid_size = 1024")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn delete_rows() {
    let mut db = turbulence_db();
    let rs = db
        .execute("DELETE FROM result_file WHERE simulation_key = 'S1'")
        .unwrap();
    assert_eq!(rs.affected, 2);
    let rs = db.execute("SELECT COUNT(*) FROM result_file").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn not_null_enforced() {
    let mut db = turbulence_db();
    let err = db
        .execute("INSERT INTO author VALUES ('A3', NULL, NULL, NULL)")
        .unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
}

#[test]
fn primary_key_enforced() {
    let mut db = turbulence_db();
    let err = db
        .execute("INSERT INTO author VALUES ('A1', 'Dup', NULL, NULL)")
        .unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    // Composite PK: same file name under a different simulation is fine.
    db.execute("INSERT INTO result_file VALUES ('t000.edf', 'S3', 0, 'u', 'EDF', 1, NULL)")
        .unwrap();
    let err = db
        .execute("INSERT INTO result_file VALUES ('t000.edf', 'S3', 9, 'u', 'EDF', 1, NULL)")
        .unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
}

#[test]
fn foreign_key_enforced_on_insert() {
    let mut db = turbulence_db();
    let err = db
        .execute("INSERT INTO simulation VALUES ('S9', 'Ghost', 'NOBODY', 1, 1.0, NULL)")
        .unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    // NULL FK is allowed.
    db.execute("INSERT INTO simulation VALUES ('S9', 'Ghost', NULL, 1, 1.0, NULL)")
        .unwrap();
}

#[test]
fn foreign_key_restricts_parent_delete() {
    let mut db = turbulence_db();
    let err = db
        .execute("DELETE FROM author WHERE author_key = 'A1'")
        .unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    // Remove children first, then the parent delete succeeds.
    db.execute("DELETE FROM result_file WHERE simulation_key IN ('S1','S2')")
        .unwrap();
    db.execute("DELETE FROM simulation WHERE author_key = 'A1'")
        .unwrap();
    db.execute("DELETE FROM author WHERE author_key = 'A1'")
        .unwrap();
}

#[test]
fn foreign_key_restricts_parent_key_update() {
    let mut db = turbulence_db();
    let err = db
        .execute("UPDATE author SET author_key = 'AX' WHERE author_key = 'A1'")
        .unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    // Updating a non-key column of the parent is fine.
    db.execute("UPDATE author SET name = 'M. Papiani' WHERE author_key = 'A1'")
        .unwrap();
}

#[test]
fn varchar_length_enforced() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE t (s VARCHAR(3))").unwrap();
    assert!(db.execute("INSERT INTO t VALUES ('abcd')").is_err());
    db.execute("INSERT INTO t VALUES ('abc')").unwrap();
}

#[test]
fn transactions_commit_and_rollback() {
    let mut db = turbulence_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO author VALUES ('A3', 'Denis Nicole', NULL, NULL)")
        .unwrap();
    db.execute("UPDATE simulation SET grid_size = 1 WHERE simulation_key = 'S1'")
        .unwrap();
    db.execute("ROLLBACK").unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM author").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)), "insert rolled back");
    let rs = db
        .execute("SELECT grid_size FROM simulation WHERE simulation_key = 'S1'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(256)), "update rolled back");

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO author VALUES ('A3', 'Denis Nicole', NULL, NULL)")
        .unwrap();
    db.execute("COMMIT").unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM author").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
}

#[test]
fn rollback_restores_deleted_rows() {
    let mut db = turbulence_db();
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM result_file WHERE simulation_key = 'S1'")
        .unwrap();
    db.execute("ROLLBACK").unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM result_file").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    // Indexes are restored too: PK lookup still works.
    let rs = db
        .execute("SELECT COUNT(*) FROM result_file WHERE file_name = 't001.edf'")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn nested_begin_rejected() {
    let mut db = turbulence_db();
    db.execute("BEGIN").unwrap();
    assert!(matches!(db.execute("BEGIN").unwrap_err(), DbError::Txn(_)));
    assert!(matches!(
        db.execute("CREATE TABLE x (a INTEGER)").unwrap_err(),
        DbError::Txn(_)
    ));
    db.execute("ROLLBACK").unwrap();
    assert!(matches!(db.execute("COMMIT").unwrap_err(), DbError::Txn(_)));
}

#[test]
fn secondary_index_used_and_maintained() {
    let mut db = turbulence_db();
    db.execute("CREATE INDEX idx_rf_sim ON result_file (simulation_key)")
        .unwrap();
    let rs = db
        .execute("SELECT file_name FROM result_file WHERE simulation_key = 'S1' ORDER BY file_name")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    db.execute("DELETE FROM result_file WHERE file_name = 't000.edf' AND simulation_key = 'S1'")
        .unwrap();
    let rs = db
        .execute("SELECT file_name FROM result_file WHERE simulation_key = 'S1'")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn unique_index_rejects_duplicates() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2)").unwrap();
    db.execute("CREATE UNIQUE INDEX uq_a ON t (a)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (1, 3)").is_err());
    // Building a unique index over existing duplicates fails.
    db.execute("INSERT INTO t VALUES (9, 2)").unwrap();
    assert_eq!(
        db.execute("CREATE UNIQUE INDEX uq_b ON t (b)").unwrap_err(),
        DbError::Constraint("duplicate key for unique index UQ_B".into())
    );
    // Only rows a fresh reader sees count, and NULL keys never collide:
    // the deleted twin stays in the heap for the open snapshot, and is
    // filed in the new index with every other version.
    let pinned = db.begin_snapshot();
    db.execute("DELETE FROM t WHERE a = 9").unwrap();
    db.execute("INSERT INTO t VALUES (10, NULL), (11, NULL)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX uq_b ON t (b)").unwrap();
    let ix = &db.table("t").unwrap().indexes;
    assert_eq!(ix.last().unwrap().tree.len(), 5);
    assert_eq!(ix.last().unwrap().tree.get(&[Value::Int(2)]).len(), 2);
    db.release_snapshot(pinned);
    assert!(db.execute("INSERT INTO t VALUES (12, 2)").is_err());
    let rs = db.execute("SELECT a FROM t WHERE b = 2").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn drop_table_respects_references() {
    let mut db = turbulence_db();
    let err = db.execute("DROP TABLE author").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    db.execute("DROP TABLE result_file").unwrap();
    assert!(db.execute("SELECT * FROM result_file").is_err());
}

#[test]
fn clob_and_blob_round_trip() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE lobs (k INTEGER PRIMARY KEY, doc CLOB, bin BLOB)")
        .unwrap();
    let big_text = "x".repeat(50_000);
    db.execute_with_params(
        "INSERT INTO lobs VALUES (1, ?, ?)",
        &[
            Value::Clob(big_text.clone()),
            Value::Blob(vec![7u8; 30_000]),
        ],
    )
    .unwrap();
    let rs = db.execute("SELECT doc, bin FROM lobs WHERE k = 1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Clob(big_text));
    assert_eq!(rs.rows[0][1], Value::Blob(vec![7u8; 30_000]));
    let rs = db.execute("SELECT LENGTH(doc) FROM lobs").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(50_000)));
}

#[test]
fn persistence_snapshot_and_wal_recovery() {
    let dir = std::env::temp_dir().join(format!("easia-db-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(50))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint work lives only in the WAL.
        db.execute("INSERT INTO t VALUES (3, 'three')").unwrap();
        db.execute("UPDATE t SET v = 'TWO' WHERE k = 2").unwrap();
        db.execute("DELETE FROM t WHERE k = 1").unwrap();
        // Explicit transaction that rolls back: must not reappear.
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (99, 'phantom')").unwrap();
        db.execute("ROLLBACK").unwrap();
        // Drop without checkpoint: recovery must replay the WAL.
    }
    {
        let mut db = Database::open(&dir).unwrap();
        let rs = db.execute("SELECT k, v FROM t ORDER BY k").unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(2), Value::Str("TWO".into())],
                vec![Value::Int(3), Value::Str("three".into())],
            ]
        );
        // PK index rebuilt and enforced after recovery.
        assert!(db.execute("INSERT INTO t VALUES (2, 'dup')").is_err());
        db.execute("INSERT INTO t VALUES (4, 'four')").unwrap();
    }
    {
        // One more cycle: snapshot + wal compose.
        let mut db = Database::open(&dir).unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
        db.checkpoint().unwrap();
    }
    {
        let mut db = Database::open(&dir).unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistence_preserves_datalink_schema() {
    let dir = std::env::temp_dir().join(format!("easia-db-dl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute(
            "CREATE TABLE rf (f VARCHAR(50) PRIMARY KEY,
             d DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
               READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES
               ON UNLINK RESTORE)",
        )
        .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let schema = db.schema("rf").unwrap();
        let dls = schema.datalink_columns();
        assert_eq!(dls.len(), 1);
        assert!(dls[0].1.file_link_control);
        assert!(dls[0].1.read_permission_db);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn three_valued_where() {
    let mut db = turbulence_db();
    // S3 has NULL description: `description = 'x'` is UNKNOWN, excluded
    // from both the positive and negated queries.
    let a = db
        .execute("SELECT COUNT(*) FROM simulation WHERE description = 'zzz'")
        .unwrap();
    let b = db
        .execute("SELECT COUNT(*) FROM simulation WHERE NOT (description = 'zzz')")
        .unwrap();
    assert_eq!(a.scalar(), Some(&Value::Int(0)));
    assert_eq!(b.scalar(), Some(&Value::Int(2)));
    let c = db
        .execute("SELECT COUNT(*) FROM simulation WHERE description IS NULL")
        .unwrap();
    assert_eq!(c.scalar(), Some(&Value::Int(1)));
}

#[test]
fn in_between_queries() {
    let mut db = turbulence_db();
    let rs = db
        .execute("SELECT COUNT(*) FROM simulation WHERE simulation_key IN ('S1', 'S3')")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    let rs = db
        .execute("SELECT COUNT(*) FROM simulation WHERE grid_size BETWEEN 200 AND 600")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn qualified_wildcard_select() {
    let mut db = turbulence_db();
    let rs = db
        .execute(
            "SELECT a.* FROM simulation s JOIN author a ON s.author_key = a.author_key \
             WHERE s.simulation_key = 'S1'",
        )
        .unwrap();
    assert_eq!(rs.columns.len(), 4);
    assert_eq!(rs.rows[0][0], Value::Str("A1".into()));
}

#[test]
fn multi_statement_workflow() {
    // A QBE-ish session: search, browse via PK, count related files.
    let mut db = turbulence_db();
    let hits = db
        .execute("SELECT simulation_key FROM simulation WHERE title LIKE 'Channel%'")
        .unwrap();
    let key = hits.rows[0][0].clone();
    let files = db
        .execute_with_params(
            "SELECT file_name, file_size FROM result_file WHERE simulation_key = ? ORDER BY timestep",
            &[key],
        )
        .unwrap();
    assert_eq!(files.rows.len(), 2);
    assert_eq!(files.rows[0][0], Value::Str("t000.edf".into()));
}

#[test]
fn count_star_vs_count_col_with_nulls() {
    // author.email is NULL for A2; simulation.description is NULL for S3.
    let mut db = turbulence_db();
    let rs = db
        .execute("SELECT COUNT(*), COUNT(email) FROM author")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2), "COUNT(*) counts rows");
    assert_eq!(
        rs.rows[0][1],
        Value::Int(1),
        "COUNT(col) must skip NULL values"
    );
    let rs = db
        .execute("SELECT COUNT(*), COUNT(description) FROM simulation")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(3));
    assert_eq!(rs.rows[0][1], Value::Int(2));
}

#[test]
fn count_col_with_nulls_per_group() {
    let mut db = turbulence_db();
    let rs = db
        .execute(
            "SELECT author_key, COUNT(*), COUNT(description) FROM simulation \
             GROUP BY author_key ORDER BY author_key",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    // A1 owns S1+S2 (both described); A2 owns S3 (NULL description).
    assert_eq!(rs.rows[0][1], Value::Int(2));
    assert_eq!(rs.rows[0][2], Value::Int(2));
    assert_eq!(rs.rows[1][1], Value::Int(1));
    assert_eq!(rs.rows[1][2], Value::Int(0));
}

#[test]
fn int_sum_within_range_stays_int() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE n (v BIGINT)").unwrap();
    db.execute("INSERT INTO n VALUES (9223372036854775806), (1)")
        .unwrap();
    let rs = db.execute("SELECT SUM(v) FROM n").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(i64::MAX)));
}

#[test]
fn int_sum_overflow_promotes_to_double() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE n (v BIGINT)").unwrap();
    db.execute("INSERT INTO n VALUES (9223372036854775807), (9223372036854775807)")
        .unwrap();
    let rs = db.execute("SELECT SUM(v) FROM n").unwrap();
    // Overflowing i64 must not wrap to -2: the aggregate promotes to
    // DOUBLE and returns the IEEE-754 approximation of 2^64 - 2.
    match rs.scalar() {
        Some(Value::Double(d)) => {
            assert!((d - 2.0 * i64::MAX as f64).abs() <= 4096.0, "got {d}");
        }
        other => panic!("expected Double, got {other:?}"),
    }
    // AVG over the same path also survives overflow.
    let rs = db.execute("SELECT AVG(v) FROM n").unwrap();
    match rs.scalar() {
        Some(Value::Double(d)) => {
            assert!((d - i64::MAX as f64).abs() <= 2048.0, "got {d}");
        }
        other => panic!("expected Double, got {other:?}"),
    }
}

#[test]
fn int_sum_negative_overflow_promotes_to_double() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE n (v BIGINT)").unwrap();
    db.execute("INSERT INTO n VALUES (-9223372036854775808), (-9223372036854775807)")
        .unwrap();
    let rs = db.execute("SELECT SUM(v) FROM n").unwrap();
    match rs.scalar() {
        Some(Value::Double(d)) => {
            assert!(*d < -1.8e19, "must not wrap positive: got {d}");
        }
        other => panic!("expected Double, got {other:?}"),
    }
}

#[test]
fn aggregates_over_empty_and_all_null_groups() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE n (k VARCHAR(5), v BIGINT)")
        .unwrap();
    // Global aggregates over an empty table: COUNT = 0, others NULL.
    let rs = db
        .execute("SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM n")
        .unwrap();
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Int(0),
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null
        ]
    );
    // A group whose values are all NULL behaves the same way, except
    // COUNT(*) still counts its rows.
    db.execute("INSERT INTO n VALUES ('g', NULL), ('g', NULL)")
        .unwrap();
    let rs = db
        .execute("SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v) FROM n GROUP BY k")
        .unwrap();
    assert_eq!(
        rs.rows[0],
        vec![
            Value::Str("g".into()),
            Value::Int(2),
            Value::Int(0),
            Value::Null,
            Value::Null
        ]
    );
}

#[test]
fn aggregates_inside_composite_expressions() {
    // An aggregate call is a value wherever it stands in HAVING, the
    // select list or ORDER BY — under a function, IS NULL, BETWEEN or
    // IN as much as under an operator.
    let mut db = turbulence_db();
    db.execute("INSERT INTO author VALUES ('A3', 'Denis Nicole', NULL, 'Southampton')")
        .unwrap();
    db.execute("INSERT INTO simulation VALUES ('S4', 'No grid yet', 'A3', NULL, NULL, NULL)")
        .unwrap();
    let rows = |db: &mut Database, sql: &str| db.execute(sql).unwrap().rows;
    let s = |t: &str| Value::Str(t.into());
    assert_eq!(
        rows(
            &mut db,
            "SELECT author_key, COALESCE(SUM(grid_size), 0), ROUND(AVG(reynolds)) \
             FROM simulation GROUP BY author_key ORDER BY author_key",
        ),
        vec![
            vec![s("A1"), Value::Int(768), Value::Double(780.0)],
            vec![s("A2"), Value::Int(128), Value::Double(300.0)],
            vec![s("A3"), Value::Int(0), Value::Null],
        ]
    );
    assert_eq!(
        rows(
            &mut db,
            "SELECT author_key FROM simulation GROUP BY author_key \
             HAVING SUM(grid_size) IS NOT NULL ORDER BY author_key",
        ),
        vec![vec![s("A1")], vec![s("A2")]]
    );
    assert_eq!(
        rows(
            &mut db,
            "SELECT author_key FROM simulation GROUP BY author_key \
             HAVING COUNT(*) BETWEEN 2 AND 3",
        ),
        vec![vec![s("A1")]]
    );
    assert_eq!(
        rows(
            &mut db,
            "SELECT author_key FROM simulation GROUP BY author_key \
             HAVING COUNT(*) IN (1, 5) ORDER BY ABS(0 - MAX(grid_size)) DESC, author_key",
        ),
        vec![vec![s("A2")], vec![s("A3")]]
    );
    // HAVING short-circuits like any other predicate: the division is
    // never reached for the group the left side already rejects.
    assert_eq!(
        rows(
            &mut db,
            "SELECT author_key FROM simulation GROUP BY author_key \
             HAVING COUNT(grid_size) > 0 AND 768 / COUNT(grid_size) > 400 ORDER BY author_key",
        ),
        vec![vec![s("A2")]]
    );
    // Outside a group an aggregate call is still an error.
    assert!(matches!(
        db.execute("SELECT title FROM simulation WHERE COUNT(*) > 1"),
        Err(DbError::Eval(_))
    ));
}
