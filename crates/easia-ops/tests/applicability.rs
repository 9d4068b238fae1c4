//! Column-resolved applicability against its oracle.
//!
//! `OperationCatalog::resolve` settles once per result set which
//! operations are candidates and which result columns each `<if>`
//! condition tests; `RowOperations::for_row` then judges a row on its
//! values alone. `OperationCatalog::applicable` — every row named and
//! formatted into `(colid, text)` pairs, as the portal did before — is
//! the reference: both must offer the same operations in the same order
//! for duplicate and mixed-case columns, colids of another table or of
//! a column the result lacks, values of every kind whose text collides
//! (`Int(3)`, `Double(3.0)`, `'3'`; NULL and `'NULL'`), guests or not.

use easia_db::Value;
use easia_ops::OperationCatalog;
use easia_xuis::{Condition, Location, Operation, XuisColumn, XuisDoc, XuisTable};
use proptest::collection::vec;
use proptest::prelude::*;

const COLUMNS: [&str; 6] = [
    "FILE_FORMAT",
    "file_format",
    "SIMULATION_KEY",
    "Timestep",
    "NOTE",
    "DOWNLOAD_RESULT",
];
const COLIDS: [&str; 8] = [
    "RESULT_FILE.FILE_FORMAT",
    "result_file.File_Format",
    "RESULT_FILE.SIMULATION_KEY",
    "RESULT_FILE.TIMESTEP",
    "RESULT_FILE.NOTE",
    "RESULT_FILE.DOWNLOAD_RESULT",
    "RESULT_FILE.NOT_RETURNED",
    "OTHER.FILE_FORMAT",
];
const TEXTS: [&str; 9] = [
    "EDF",
    "edf",
    "3",
    "2.5",
    "-1",
    "NULL",
    "TRUE",
    "",
    "http://fs/EDF",
];

fn values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(3),
        Value::Int(-1),
        Value::Double(3.0),
        Value::Double(2.5),
        Value::Bool(true),
        Value::Bool(false),
        Value::Timestamp(3),
        Value::Str("EDF".into()),
        Value::Str("3".into()),
        Value::Str("NULL".into()),
        Value::Str(String::new()),
        Value::Clob("EDF".into()),
        Value::Clob("TRUE".into()),
        Value::Datalink("http://fs/EDF".into()),
        Value::Blob(vec![1, 2, 3]),
    ]
}

fn operation(name: String, guest_access: bool, conditions: Vec<Condition>) -> Operation {
    Operation {
        name,
        op_type: "NATIVE".into(),
        filename: "op".into(),
        format: "raw".into(),
        guest_access,
        conditions,
        location: Location::Url("native:op".into()),
        description: None,
        parameters: vec![],
    }
}

fn table(name: &str, operations: Vec<Operation>) -> XuisTable {
    XuisTable {
        name: name.into(),
        primary_key: vec![],
        alias: None,
        hidden: false,
        columns: vec![XuisColumn {
            name: "DOWNLOAD_RESULT".into(),
            colid: format!("{name}.DOWNLOAD_RESULT"),
            type_name: "DATALINK".into(),
            size: None,
            alias: None,
            hidden: false,
            pk_refby: vec![],
            fk: None,
            samples: vec![],
            operations,
            upload: None,
        }],
    }
}

/// How often the generated cases reached each outcome.
#[derive(Default, Debug)]
struct Coverage {
    offered: usize,
    withheld_by_condition: usize,
    withheld_from_guest: usize,
    duplicate_columns: usize,
}

/// One generated case: the resolved path against the reference on
/// every row. `ops` is per operation (guest access, conditions as
/// indices into `COLIDS` and `TEXTS`).
fn check(
    columns: &[usize],
    rows: &[Vec<usize>],
    ops: &[(bool, Vec<(usize, usize)>)],
    guest: bool,
    lower: bool,
    seen: &mut Coverage,
) {
    let pool = values();
    let operations = ops
        .iter()
        .enumerate()
        .map(|(i, (guest_access, conditions))| {
            let conditions = conditions
                .iter()
                .map(|&(colid, text)| Condition {
                    colid: COLIDS[colid].into(),
                    eq: TEXTS[text].into(),
                })
                .collect();
            operation(format!("op{i}"), *guest_access, conditions)
        })
        .collect();
    let doc = XuisDoc {
        tables: vec![
            table("RESULT_FILE", operations),
            // Another table's operation is never offered.
            table("OTHER", vec![operation("elsewhere".into(), true, vec![])]),
        ],
    };
    let catalog = OperationCatalog::from_xuis(&doc);
    let name = if lower { "result_file" } else { "RESULT_FILE" };
    let columns: Vec<String> = columns.iter().map(|&c| COLUMNS[c].to_string()).collect();
    let distinct: std::collections::BTreeSet<String> =
        columns.iter().map(|c| c.to_ascii_uppercase()).collect();
    seen.duplicate_columns += usize::from(distinct.len() < columns.len());

    let candidates = catalog.resolve(name, &columns, guest);
    let mut text = String::new();
    for picks in rows {
        let row: Vec<&Value> = columns
            .iter()
            .zip(picks)
            .map(|(_, &p)| &pool[p % pool.len()])
            .collect();
        // The reference, fed as the portal fed it.
        let qualifier = name.to_ascii_uppercase();
        let pairs: Vec<(String, String)> = columns
            .iter()
            .zip(&row)
            .map(|(c, v)| (format!("{qualifier}.{c}"), v.to_string()))
            .collect();
        let want: Vec<&str> = catalog
            .applicable(name, &pairs, guest)
            .into_iter()
            .map(|e| e.op.name.as_str())
            .collect();
        let got: Vec<&str> = candidates
            .for_row(|i, eq| row[i].display_text(&mut text) == eq)
            .into_iter()
            .map(|op| op.name.as_str())
            .collect();
        assert_eq!(got, want, "columns {columns:?} row {row:?} ops {ops:?}");
        seen.offered += got.len();
        for (i, (guest_access, _)) in ops.iter().enumerate() {
            if guest && !guest_access {
                seen.withheld_from_guest += 1;
            } else if !got.contains(&format!("op{i}").as_str()) {
                seen.withheld_by_condition += 1;
            }
        }
    }
}

proptest! {
    #[test]
    fn resolved_applicability_equals_the_reference(
        columns in vec(0..COLUMNS.len(), 0..7),
        rows in vec(vec(0..64usize, 6..7), 1..5),
        ops in vec((any::<bool>(), vec((0..COLIDS.len(), 0..TEXTS.len()), 0..3)), 0..5),
        guest in any::<bool>(),
        lower in any::<bool>(),
    ) {
        check(&columns, &rows, &ops, guest, lower, &mut Coverage::default());
    }
}

/// The property is only worth its name if conditions hold, fail, and
/// meet duplicate columns and guests often enough.
#[test]
fn generator_reaches_every_outcome() {
    use proptest::test_runner::TestRng;
    let strategy = (
        vec(0..COLUMNS.len(), 0..7),
        vec(vec(0..64usize, 6..7), 1..5),
        vec(
            (any::<bool>(), vec((0..COLIDS.len(), 0..TEXTS.len()), 0..3)),
            0..5,
        ),
        any::<bool>(),
        any::<bool>(),
    );
    let mut rng = TestRng::from_seed(16);
    let mut seen = Coverage::default();
    for _ in 0..2000 {
        let (columns, rows, ops, guest, lower) = strategy.generate(&mut rng);
        check(&columns, &rows, &ops, guest, lower, &mut seen);
    }
    for (what, n) in [
        ("operations offered", seen.offered),
        ("withheld by a condition", seen.withheld_by_condition),
        ("withheld from a guest", seen.withheld_from_guest),
        ("result sets with duplicate columns", seen.duplicate_columns),
    ] {
        assert!(n >= 200, "only {n} {what}: {seen:?}");
    }
}
