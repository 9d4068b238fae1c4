//! The default-XUIS generator.
//!
//! "Default XUIS can be created prior to system initialisation using a
//! tool that we provide \[which\] uses JDBC to extract data and schema
//! information from the database. The XUIS contains table names, column
//! names, column types, sample data values for each column, and details
//! of primary keys and foreign keys."

use crate::model::{FkSpec, XuisColumn, XuisDoc, XuisTable};
use easia_db::schema::referencing_keys;
use easia_db::{Database, SqlType, Value};

/// How many sample values to harvest per column.
pub const DEFAULT_SAMPLES: usize = 4;

/// Generate the default XUIS for every table in `db`, harvesting up to
/// `samples_per_column` distinct sample values per column.
pub fn generate_default(db: &mut Database, samples_per_column: usize) -> XuisDoc {
    let table_names = db.table_names();
    let mut doc = XuisDoc::default();
    for tname in &table_names {
        let schema = db.schema(tname).expect("listed table exists").clone();
        let samples = harvest_samples(db, tname, samples_per_column);
        let mut columns = Vec::new();
        for (ci, col) in schema.columns.iter().enumerate() {
            let colid = format!("{}.{}", schema.name, col.name);
            // pk refby: foreign keys elsewhere referencing this column.
            let mut pk_refby = Vec::new();
            if schema.primary_key.contains(&col.name) {
                let pos_in_pk = schema
                    .primary_key
                    .iter()
                    .position(|c| c == &col.name)
                    .expect("contains checked");
                for (child, fk) in referencing_keys(db.schemas(), &schema.name) {
                    // Match the FK component aligned with this PK column.
                    if fk.ref_columns.get(pos_in_pk) == Some(&col.name) {
                        if let Some(child_col) = fk.columns.get(pos_in_pk) {
                            pk_refby.push(format!("{child}.{child_col}"));
                        }
                    }
                }
            }
            // fk: this column participating in a foreign key.
            let fk = schema.foreign_keys.iter().find_map(|fk| {
                fk.columns
                    .iter()
                    .position(|c| c == &col.name)
                    .map(|i| FkSpec {
                        tablecolumn: format!("{}.{}", fk.ref_table, fk.ref_columns[i]),
                        substcolumn: None,
                    })
            });
            let (type_name, size) = type_repr(col.ty);
            columns.push(XuisColumn {
                name: col.name.clone(),
                colid,
                type_name,
                size,
                alias: None,
                hidden: false,
                pk_refby,
                fk,
                samples: samples.get(ci).cloned().unwrap_or_default(),
                operations: Vec::new(),
                upload: None,
            });
        }
        doc.tables.push(XuisTable {
            name: schema.name.clone(),
            primary_key: schema
                .primary_key
                .iter()
                .map(|c| format!("{}.{}", schema.name, c))
                .collect(),
            alias: None,
            hidden: false,
            columns,
        });
    }
    doc
}

fn type_repr(ty: SqlType) -> (String, Option<usize>) {
    match ty {
        SqlType::Integer => ("INTEGER".into(), None),
        SqlType::Double => ("DOUBLE".into(), None),
        SqlType::Varchar(n) => ("VARCHAR".into(), Some(n)),
        SqlType::Boolean => ("BOOLEAN".into(), None),
        SqlType::Timestamp => ("TIMESTAMP".into(), None),
        SqlType::Blob => ("BLOB".into(), None),
        SqlType::Clob => ("CLOB".into(), None),
        SqlType::Datalink => ("DATALINK".into(), None),
    }
}

/// Harvest up to `k` distinct, display-worthy sample values per column.
/// LOBs and DATALINKs are skipped (the interface shows sizes/links, not
/// sample bodies).
fn harvest_samples(db: &mut Database, table: &str, k: usize) -> Vec<Vec<String>> {
    let Some(schema) = db.schema(table).cloned() else {
        return Vec::new();
    };
    let mut out = vec![Vec::new(); schema.columns.len()];
    if k == 0 {
        return out;
    }
    let Ok(rs) = db.execute(&format!("SELECT * FROM {table}")) else {
        return out;
    };
    for (ci, col) in schema.columns.iter().enumerate() {
        if matches!(col.ty, SqlType::Blob | SqlType::Clob | SqlType::Datalink) {
            continue;
        }
        let mut seen = std::collections::BTreeSet::new();
        for row in &rs.rows {
            let v = &row[ci];
            if let Value::Null = v {
                continue;
            }
            let s = v.to_string();
            if seen.insert(s.clone()) {
                out[ci].push(s);
                if out[ci].len() >= k {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE author (author_key VARCHAR(30) PRIMARY KEY, name VARCHAR(100))")
            .unwrap();
        db.execute(
            "CREATE TABLE simulation (
                simulation_key VARCHAR(30) PRIMARY KEY,
                title VARCHAR(200),
                author_key VARCHAR(30) REFERENCES author(author_key),
                grid_size INTEGER,
                notes CLOB,
                data DATALINK LINKTYPE URL NO FILE LINK CONTROL)",
        )
        .unwrap();
        db.execute("INSERT INTO author VALUES ('A1', 'Mark'), ('A2', 'Jasmin')")
            .unwrap();
        db.execute(
            "INSERT INTO simulation VALUES
             ('S1', 'Channel', 'A1', 256, NULL, NULL),
             ('S2', 'Decay', 'A2', 512, NULL, NULL)",
        )
        .unwrap();
        db
    }

    #[test]
    fn tables_and_columns_present() {
        let mut db = db();
        let doc = generate_default(&mut db, DEFAULT_SAMPLES);
        assert_eq!(doc.tables.len(), 2);
        let sim = doc.table("SIMULATION").unwrap();
        assert_eq!(sim.columns.len(), 6);
        assert_eq!(sim.primary_key, vec!["SIMULATION.SIMULATION_KEY"]);
    }

    #[test]
    fn types_and_sizes() {
        let mut db = db();
        let doc = generate_default(&mut db, 0);
        let sim = doc.table("SIMULATION").unwrap();
        let title = sim.column("TITLE").unwrap();
        assert_eq!(title.type_name, "VARCHAR");
        assert_eq!(title.size, Some(200));
        assert_eq!(sim.column("GRID_SIZE").unwrap().type_name, "INTEGER");
        assert!(sim.column("DATA").unwrap().is_datalink());
    }

    #[test]
    fn fk_and_pk_refby() {
        let mut db = db();
        let doc = generate_default(&mut db, 0);
        // FK side: SIMULATION.AUTHOR_KEY -> AUTHOR.AUTHOR_KEY.
        let fk = doc
            .table("SIMULATION")
            .unwrap()
            .column("AUTHOR_KEY")
            .unwrap()
            .fk
            .clone()
            .unwrap();
        assert_eq!(fk.tablecolumn, "AUTHOR.AUTHOR_KEY");
        assert_eq!(fk.substcolumn, None);
        // PK side: AUTHOR.AUTHOR_KEY is referenced by SIMULATION.AUTHOR_KEY.
        let refby = &doc
            .table("AUTHOR")
            .unwrap()
            .column("AUTHOR_KEY")
            .unwrap()
            .pk_refby;
        assert_eq!(refby, &vec!["SIMULATION.AUTHOR_KEY".to_string()]);
    }

    #[test]
    fn samples_harvested_and_capped() {
        let mut db = db();
        let doc = generate_default(&mut db, 1);
        let titles = &doc
            .table("SIMULATION")
            .unwrap()
            .column("TITLE")
            .unwrap()
            .samples;
        assert_eq!(titles.len(), 1, "capped at 1: {titles:?}");
        let doc = generate_default(&mut db, 10);
        let titles = &doc
            .table("SIMULATION")
            .unwrap()
            .column("TITLE")
            .unwrap()
            .samples;
        assert_eq!(titles.len(), 2);
        // LOB/DATALINK columns get no samples.
        assert!(doc
            .table("SIMULATION")
            .unwrap()
            .column("NOTES")
            .unwrap()
            .samples
            .is_empty());
        assert!(doc
            .table("SIMULATION")
            .unwrap()
            .column("DATA")
            .unwrap()
            .samples
            .is_empty());
    }

    #[test]
    fn samples_skip_nulls_and_duplicates() {
        let mut db = db();
        db.execute("INSERT INTO simulation VALUES ('S3', 'Channel', NULL, NULL, NULL, NULL)")
            .unwrap();
        let doc = generate_default(&mut db, 10);
        let titles = &doc
            .table("SIMULATION")
            .unwrap()
            .column("TITLE")
            .unwrap()
            .samples;
        assert_eq!(titles.len(), 2, "duplicate 'Channel' collapsed");
        let gs = &doc
            .table("SIMULATION")
            .unwrap()
            .column("GRID_SIZE")
            .unwrap()
            .samples;
        assert_eq!(gs.len(), 2, "NULL skipped");
    }
}
