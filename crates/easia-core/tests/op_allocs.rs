//! Allocation budget of a server-side operation.
//!
//! The paper runs operations next to the data so that a multi-megabyte
//! dataset never moves; inside the archive that means a job reads the
//! stored file where it lies. GetImage on an x, a y and a z slice and
//! FieldStats run through `Archive::run_operation` against a stored
//! ≈ 1 MiB EDF timestep, each a result-cache miss, and the bytes each
//! run allocates are counted through a counting global allocator. A
//! copy of the file per job reads over 1 MiB here, and FieldStats
//! decoding every component into vectors of its own (twice, for the
//! energy) about 2.75 MiB.
//!
//! One test only: the counter is process-wide.

use easia_core::{turbulence, Archive};
use easia_web::auth::Role;
use easia_xuis::Widget;
use std::collections::BTreeMap;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one operation may allocate: its plane or statistics, the
/// rendered image, the directory of the file, and the archive's own
/// bookkeeping (progress board, statistics, result cache): 19.6 KB for
/// each GetImage and 7.2 KB for FieldStats measured, against 1.08 MB
/// for a GetImage that copies the file first.
const BUDGET_BYTES: u64 = 128 * 1024;

#[test]
fn an_operation_reads_the_stored_dataset_in_place() {
    let mut a = Archive::builder()
        .file_server("fs1.example", easia_core::paper_link_spec())
        .build();
    turbulence::install_schema(&mut a).unwrap();
    // One simulation of three 32³ timesteps: 4 components × 256 KiB.
    turbulence::seed_demo_data(&mut a, 1, 32).unwrap();
    let rs =
        a.db.execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE ORDER BY file_name")
            .unwrap();
    let urls: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(urls.len(), 3);
    assert!(
        a.file_size_of(&urls[0]).unwrap() > 1 << 20,
        "a ≈ 1 MiB file"
    );
    // The standard GetImage form offers x and z slices; add a y slice.
    let mut doc = a.xuis.clone();
    let column = doc
        .table_mut("RESULT_FILE")
        .and_then(|t| t.column_mut("DOWNLOAD_RESULT"))
        .unwrap();
    let getimage = column.operations.iter_mut().find(|o| o.name == "GetImage");
    let Widget::Select { options, .. } = &mut getimage.unwrap().parameters[0].widget else {
        panic!("GetImage's first parameter is the slice list")
    };
    options.push(("y0".into(), "y0=0.0".into()));
    a.set_xuis(doc);

    let run = |a: &mut Archive, url: &str, op: &str, params: &[(&str, &str)]| {
        let params: BTreeMap<String, String> = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let out = a
            .run_operation("RESULT_FILE", op, url, &params, Role::Researcher, "s")
            .unwrap();
        assert!(!out.from_cache, "{op} {params:?} must miss the cache");
        out
    };
    let getimage = |slice: &'static str| [("slice", slice), ("type", "u")];

    let ops = [
        ("GetImage", &getimage("x16")[..]),
        ("GetImage", &getimage("y0")[..]),
        ("GetImage", &getimage("z0")[..]),
        ("FieldStats", &[][..]),
    ];
    // Warm-up on another file: metric families, the statistics entries
    // and the progress board's first rows are created once.
    for (op, params) in ops {
        run(&mut a, &urls[1], op, params);
    }
    for (op, params) in ops {
        let (out, counts) = counted(|| run(&mut a, &urls[0], op, params));
        let (allocs, bytes) = (counts.allocs, counts.bytes);
        println!("{op} {params:?}: {allocs} allocations, {bytes} bytes");
        assert!(
            bytes < BUDGET_BYTES,
            "{op} {params:?} allocated {bytes} bytes (budget {BUDGET_BYTES})"
        );
        match op {
            "GetImage" => assert!(out.outputs[0].1.starts_with(b"P6")),
            _ => assert!(out.stdout.contains("turbulent kinetic energy")),
        }
    }
}
