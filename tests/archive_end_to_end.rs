//! Cross-crate integration: the full EASIA lifecycle through the public
//! APIs of every layer at once.

use easia_core::{turbulence, Archive, WebApp};
use easia_datalink::DatalinkUrl;
use easia_db::Value;
use easia_web::auth::Role;
use easia_web::http::Request;
use std::collections::BTreeMap;

fn demo() -> Archive {
    let mut a = Archive::builder()
        .file_server("fs1.example", easia_core::paper_link_spec())
        .file_server("fs2.example", easia_core::lan_link_spec())
        .build();
    turbulence::install_schema(&mut a).unwrap();
    turbulence::seed_demo_data(&mut a, 2, 16).unwrap();
    a
}

#[test]
fn full_lifecycle_ingest_search_download_operate() {
    let mut a = demo();

    // Search across tables (QBE-shaped SQL with joins + aggregates).
    let rs =
        a.db.execute(
            "SELECT s.simulation_key, COUNT(*) FROM simulation s \
             JOIN result_file r ON r.simulation_key = s.simulation_key \
             GROUP BY s.simulation_key ORDER BY s.simulation_key",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][1], easia_db::Value::Int(3));

    // DATALINK SELECT → tokenized URL → authorised download.
    let rs =
        a.db.execute("SELECT download_result FROM result_file ORDER BY file_name LIMIT 1")
            .unwrap();
    let easia_db::Value::Datalink(url) = rs.rows[0][0].clone() else {
        panic!("expected DATALINK");
    };
    let (parsed, token) = DatalinkUrl::parse_tokenized(&url).unwrap();
    assert!(token.is_some(), "READ PERMISSION DB column yields a token");
    let (bytes, secs) = a.download(&url, Role::Researcher).unwrap();
    assert!(!bytes.is_empty());
    assert!(secs > 0.0);
    // The downloaded bytes are a valid EDF timestep.
    let edf = easia_sci::edf::EdfReader::open(&bytes).unwrap();
    assert_eq!(edf.datasets.len(), 4);

    // Operation next to the data instead of downloading.
    let stored = parsed.to_linked();
    let mut params = BTreeMap::new();
    params.insert("slice".to_string(), "x0".to_string());
    params.insert("type".to_string(), "p".to_string());
    let out = a
        .run_operation(
            "RESULT_FILE",
            "GetImage",
            &stored,
            &params,
            Role::Guest,
            "it",
        )
        .unwrap();
    assert!(out.shipped_bytes < bytes.len() as f64 / 10.0);
    assert!(easia_sci::render::ppm_header(&out.outputs[0].1).is_some());
}

#[test]
fn wal_recovery_of_metadata_while_files_stay_external() {
    // The database journals metadata; the big files never enter it.
    let dir = std::env::temp_dir().join(format!("easia-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = easia_db::Database::open(&dir).unwrap();
        db.execute(
            "CREATE TABLE rf (f VARCHAR(50) PRIMARY KEY,
             d DATALINK LINKTYPE URL NO FILE LINK CONTROL)",
        )
        .unwrap();
        db.execute("INSERT INTO rf VALUES ('a', 'http://fs1/data/a.edf')")
            .unwrap();
    }
    {
        let mut db = easia_db::Database::open(&dir).unwrap();
        let rs = db.execute("SELECT d FROM rf").unwrap();
        assert_eq!(
            rs.rows[0][0],
            easia_db::Value::Datalink("http://fs1/data/a.edf".into())
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn xuis_round_trip_through_xml_preserves_everything() {
    let a = demo();
    let xml = easia_xuis::to_xml(&a.xuis);
    let back = easia_xuis::from_xml(&xml).unwrap();
    assert_eq!(back, a.xuis);
    let dom = easia_xuis::xml::to_element(&a.xuis);
    assert!(easia_xuis::dtd::validate(&dom).is_empty());
    // The document carries the paper's markup: operations + upload.
    assert!(xml.contains("<operation name=\"GetImage\""));
    assert!(xml.contains("<upload type=\"EPC\""));
    assert!(xml.contains("substcolumn=\"AUTHOR.NAME\""));
}

#[test]
fn guest_and_researcher_journeys_through_http() {
    let mut app = WebApp::new(demo());
    // Guest journey.
    let r = app.handle(Request::post(
        "/login",
        &[("username", "guest"), ("password", "guest")],
    ));
    let guest = r.set_session.unwrap();
    let r = app
        .handle(Request::post("/query/RESULT_FILE", &[("all", "All data")]).with_session(&guest));
    let body = r.body_text();
    assert!(body.contains("download restricted"));
    assert!(body.contains("GetImage"), "guest ops offered");

    // Researcher journey: add account via admin, then download links.
    let r = app.handle(Request::post(
        "/login",
        &[("username", "admin"), ("password", "hpcc-admin")],
    ));
    let admin = r.set_session.unwrap();
    app.handle(
        Request::post(
            "/users",
            &[
                ("username", "jasmin"),
                ("password", "pw"),
                ("role", "Researcher"),
            ],
        )
        .with_session(&admin),
    );
    let r = app.handle(Request::post(
        "/login",
        &[("username", "jasmin"), ("password", "pw")],
    ));
    let res = r.set_session.unwrap();
    let r =
        app.handle(Request::post("/query/RESULT_FILE", &[("all", "All data")]).with_session(&res));
    assert!(r.body_text().contains("href=\"http://fs"), "download links");
}

#[test]
fn operation_code_archived_as_datalink_and_fetched_for_execution() {
    // The paper's CODE_FILE flow: archive an EPC bundle as a DATALINK,
    // declare an operation whose location is a database.result lookup,
    // and run it.
    let mut a = demo();
    let bundle = easia_pack::format::pack_tar_ez(&[(
        "main.epc".to_string(),
        easia_ops::asm::EXAMPLE_COUNT.as_bytes().to_vec(),
    )])
    .unwrap();
    let url = a
        .archive_file_local(
            "fs2.example",
            "/codes/count.tar.ez",
            easia_fs::FileContent::Bytes(bundle),
        )
        .unwrap();
    a.db.execute_with_params(
        "INSERT INTO code_file VALUES ('count.tar.ez', 'EPC', 'byte counter', ?)",
        &[easia_db::Value::Str(url)],
    )
    .unwrap();
    let mut doc = a.xuis.clone();
    easia_xuis::customize::Customizer::new(&mut doc)
        .add_operation(
            "RESULT_FILE",
            "DOWNLOAD_RESULT",
            easia_xuis::Operation {
                name: "CountBytes".into(),
                op_type: "EPC".into(),
                filename: "main.epc".into(),
                format: "tar.ez".into(),
                guest_access: true,
                conditions: vec![],
                location: easia_xuis::Location::DatabaseResult {
                    colid: "CODE_FILE.DOWNLOAD_CODE_FILE".into(),
                    conditions: vec![easia_xuis::Condition {
                        colid: "CODE_FILE.CODE_NAME".into(),
                        eq: "count.tar.ez".into(),
                    }],
                },
                description: None,
                parameters: vec![],
            },
        )
        .unwrap();
    a.set_xuis(doc);
    let rs =
        a.db.execute("SELECT DLURLCOMPLETE(download_result) FROM result_file LIMIT 1")
            .unwrap();
    let dataset = rs.rows[0][0].to_string();
    let out = a
        .run_operation(
            "RESULT_FILE",
            "CountBytes",
            &dataset,
            &BTreeMap::new(),
            Role::Guest,
            "it",
        )
        .unwrap();
    let size = a.file_size_of(&dataset).unwrap();
    assert_eq!(out.stdout.trim(), size.to_string());
    assert!(out.instructions > 0, "ran in the sandbox");
}

#[test]
fn token_lifetime_follows_simulated_time() {
    let mut a = Archive::builder()
        .file_server("fs1.example", easia_core::paper_link_spec())
        .token_ttl(100)
        .build();
    turbulence::install_schema(&mut a).unwrap();
    turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
    let rs =
        a.db.execute("SELECT download_result FROM result_file LIMIT 1")
            .unwrap();
    let url = rs.rows[0][0].to_string();
    let t = a.net.now() + 200.0;
    a.advance_to(t);
    assert!(a.download(&url, Role::Researcher).is_err(), "token expired");
    // A fresh SELECT issues a fresh token.
    let rs =
        a.db.execute("SELECT download_result FROM result_file LIMIT 1")
            .unwrap();
    let fresh = rs.rows[0][0].to_string();
    assert!(a.download(&fresh, Role::Researcher).is_ok());
}

#[test]
fn unlink_restores_files_and_invalidates_cache_key_space() {
    let mut a = demo();
    let rs =
        a.db.execute(
            "SELECT DLURLCOMPLETE(download_result), DLURLPATH(download_result),
                    DLURLSERVER(download_result) FROM result_file LIMIT 1",
        )
        .unwrap();
    let stored = rs.rows[0][0].to_string();
    let path = rs.rows[0][1].to_string();
    let host = rs.rows[0][2].to_string();
    // Run + cache an operation, then delete the row.
    let out = a
        .run_operation(
            "RESULT_FILE",
            "FieldStats",
            &stored,
            &BTreeMap::new(),
            Role::Guest,
            "it",
        )
        .unwrap();
    assert!(!out.from_cache);
    let row =
        a.db.execute_with_params(
            "SELECT * FROM result_file WHERE DLURLCOMPLETE(download_result) = ?",
            &[easia_db::Value::Str(stored.clone())],
        )
        .unwrap()
        .rows
        .remove(0);
    a.db.execute_with_params(
        "DELETE FROM result_file WHERE DLURLCOMPLETE(download_result) = ?",
        &[easia_db::Value::Str(stored.clone())],
    )
    .unwrap();
    // ON UNLINK RESTORE: the file still exists, now unlinked.
    let server = a.server(&host).unwrap().1.clone();
    assert!(server.borrow().exists(&path));
    assert!(server.borrow().link_state(&path).is_none());
    // Linked again, the file is a new link generation: its cached result
    // is not served.
    let mut row = row;
    row[6] = easia_db::Value::Str(stored.clone());
    a.db.execute_with_params("INSERT INTO result_file VALUES (?, ?, ?, ?, ?, ?, ?)", &row)
        .unwrap();
    assert!(server.borrow().link_state(&path).is_some());
    let out = a
        .run_operation(
            "RESULT_FILE",
            "FieldStats",
            &stored,
            &BTreeMap::new(),
            Role::Guest,
            "it",
        )
        .unwrap();
    assert!(
        !out.from_cache,
        "a relinked file's result is computed again"
    );
}

#[test]
fn invalidating_a_dataset_keeps_the_results_of_a_longer_url() {
    let mut a = demo();
    let rs =
        a.db.execute("SELECT DLURLPATH(download_result) FROM result_file LIMIT 1")
            .unwrap();
    let seeded = rs.rows[0][0].to_string();
    let server = a.server("fs1.example").unwrap().1.clone();
    let content = server.borrow().store().get(&seeded).unwrap().clone();
    let run = |a: &mut Archive, url: &str| {
        let out = a.run_operation(
            "RESULT_FILE",
            "FieldStats",
            url,
            &BTreeMap::new(),
            Role::Guest,
            "it",
        );
        out.unwrap().from_cache
    };
    let link = |a: &mut Archive, name: &str, url: &str| {
        a.db.execute_with_params(
            "INSERT INTO result_file VALUES (?, 'S01', 0, 'u', 'EDF', 0, ?)",
            &[Value::Str(name.into()), Value::Str(url.into())],
        )
        .unwrap();
    };
    let mut urls = Vec::new();
    for (name, path) in [("a", "/d/a.edf"), ("a2", "/d/a.edf2")] {
        let url = a.archive_file_local("fs1.example", path, content.clone());
        let url = url.unwrap();
        link(&mut a, name, &url);
        urls.push(url);
    }
    for url in &urls {
        assert!(!run(&mut a, url), "{url}: a first run misses");
        assert!(run(&mut a, url), "{url}: a second run hits");
    }
    // The first URL is a prefix of the second: unlinking and linking it
    // again drops its own result only.
    a.db.execute("DELETE FROM result_file WHERE file_name = 'a'")
        .unwrap();
    link(&mut a, "a", &urls[0]);
    assert!(run(&mut a, &urls[1]), "a.edf2 is still cached");
    assert!(!run(&mut a, &urls[0]), "a.edf runs again");
}

/// An operation result follows the file, not its URL. A file unlinked,
/// replaced and linked again under the same URL is a new link
/// generation: the first run over it computes, exactly as a fresh
/// archive does, and is not served the replaced file's cached result
/// (which it was while every result shared one constant version).
#[test]
fn a_relinked_file_is_not_served_its_predecessors_result() {
    let fieldstats = |a: &mut Archive, url: &str| {
        let params = BTreeMap::new();
        let out = a.run_operation("RESULT_FILE", "FieldStats", url, &params, Role::Guest, "it");
        out.unwrap()
    };
    let ingest = |a: &mut Archive, seed: u64| {
        turbulence::ingest_timestep(a, "fs1.example", "S01", 900, 16, seed).unwrap()
    };
    let mut a = demo();
    let url = ingest(&mut a, 7);
    let first = fieldstats(&mut a, &url);
    assert!(!first.from_cache);
    assert!(
        fieldstats(&mut a, &url).from_cache,
        "a linked file's result is kept"
    );
    a.db.execute("DELETE FROM result_file WHERE timestep = 900")
        .unwrap();
    assert_eq!(ingest(&mut a, 8), url, "a different field at the same URL");
    let second = fieldstats(&mut a, &url);
    assert!(!second.from_cache, "a relinked file is a new generation");
    let mut fresh = demo();
    let url = ingest(&mut fresh, 8);
    let want = fieldstats(&mut fresh, &url);
    assert_eq!(second.outputs, want.outputs);
    assert_eq!(second.stdout, want.stdout);
    assert_ne!(first.stdout, want.stdout, "the two fields differ");
}
