//! Result screens are byte-identical to the pages the pre-rewrite
//! renderer produced: every cell kind (NULL, DATALINK for admin and
//! guest, BLOB/CLOB size links, FK links with and without a substitute
//! label, PK fan-out links, plain text), the operations column with
//! GetImage's `<if>` condition holding, failing and naming a column the
//! result does not carry, and keys hostile to HTML and URL escaping.
//!
//! `golden/result_pages.txt` was written by `regenerate` at the commit
//! before the renderer changed; rerun it only for an intended change:
//! `cargo test -p easia-core --test result_page_golden -- --ignored`.

use easia_core::{paper_link_spec, turbulence, Archive, WebApp};
use easia_web::http::{Request, Response};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/result_pages.txt");

/// Key and title exercising every escaped character.
const HOSTILE_KEY: &str = "S<&\"'>";

fn demo() -> WebApp {
    let mut a = Archive::builder()
        .file_server("fs1.example", paper_link_spec())
        .build();
    turbulence::install_schema(&mut a).unwrap();
    turbulence::seed_demo_data(&mut a, 2, 8).unwrap();
    let db = &mut a.db;
    db.execute(
        "INSERT INTO simulation VALUES ('S<&\"''>', 'Wake <b>&amp;\"''</b> run', 'A2', 16, \
         395.5, 1, 'Hostile <clob> & \"quotes\"')",
    )
    .unwrap();
    // A row GetImage's condition fails on, with no dataset to link.
    db.execute(
        "INSERT INTO result_file VALUES ('r<&\"''>.raw', 'S<&\"''>', 0, 'u', 'RAW', 12, NULL)",
    )
    .unwrap();
    db.execute("INSERT INTO code_file VALUES ('post<&>.epc', 'EPC', 'Averages <u> & \"v\"', NULL)")
        .unwrap();
    db.execute_with_params(
        "INSERT INTO visualisation_file VALUES ('slice<&>.ppm', 't000.edf', 'S01', \
         'u at <z0> & \"mid\"', ?)",
        &[easia_db::Value::Blob(vec![7; 3000])],
    )
    .unwrap();
    db.execute("INSERT INTO visualisation_file VALUES ('empty.ppm', NULL, NULL, NULL, NULL)")
        .unwrap();
    WebApp::new(a)
}

fn login(app: &mut WebApp, user: &str, pass: &str) -> String {
    let resp = app.handle(Request::post(
        "/login",
        &[("username", user), ("password", pass)],
    ));
    resp.set_session.expect("session cookie set")
}

/// Every screen, for admin then guest, as one transcript.
fn transcript() -> String {
    let hostile = easia_web::http::url_encode(HOSTILE_KEY);
    let queries: Vec<(&str, Vec<(&str, &str)>)> = vec![
        ("/query/RESULT_FILE", vec![("all", "All data")]),
        (
            "/query/RESULT_FILE",
            vec![
                ("ret_FILE_NAME", "on"),
                ("ret_SIMULATION_KEY", "on"),
                ("ret_TIMESTEP", "on"),
                ("ret_FILE_SIZE", "on"),
            ],
        ),
        (
            "/query/RESULT_FILE",
            vec![
                ("ret_FILE_NAME", "on"),
                ("ret_FILE_FORMAT", "on"),
                ("ret_DOWNLOAD_RESULT", "on"),
            ],
        ),
        (
            "/query/RESULT_FILE",
            vec![("ret_SIMULATION_KEY", "on"), ("ret_FILE_FORMAT", "on")],
        ),
        ("/query/SIMULATION", vec![("all", "All data")]),
        (
            "/query/SIMULATION",
            vec![
                ("ret_TITLE", "on"),
                ("ret_AUTHOR_KEY", "on"),
                ("val_TITLE", "%run%"),
            ],
        ),
        (
            "/query/SIMULATION",
            vec![("ret_SIMULATION_KEY", "on"), ("ret_REYNOLDS", "on")],
        ),
        ("/query/AUTHOR", vec![("all", "All data")]),
        ("/query/CODE_FILE", vec![("all", "All data")]),
        ("/query/VISUALISATION_FILE", vec![("all", "All data")]),
    ];
    let browses = [
        "/browse/pk/RESULT_FILE.SIMULATION_KEY?value=S01".to_string(),
        format!("/browse/pk/RESULT_FILE.SIMULATION_KEY?value={hostile}"),
        "/browse/pk/VISUALISATION_FILE.FILE_NAME?value=t000.edf".to_string(),
        format!("/browse/fk/SIMULATION.SIMULATION_KEY?value={hostile}"),
        "/browse/fk/AUTHOR.AUTHOR_KEY?value=A1".to_string(),
        "/browse/fk/AUTHOR.AUTHOR_KEY?value=nobody".to_string(),
    ];
    let mut app = demo();
    let mut out = String::new();
    let record = |out: &mut String, who: &str, what: &str, resp: Response| {
        let _ = writeln!(out, "=== {who} {what} -> {}", resp.status);
        out.push_str(&resp.body_text());
        out.push('\n');
    };
    for (user, pass) in [("admin", "hpcc-admin"), ("guest", "guest")] {
        let sess = login(&mut app, user, pass);
        for (path, form) in &queries {
            let resp = app.handle(Request::post(path, form).with_session(&sess));
            record(&mut out, user, &format!("POST {path} {form:?}"), resp);
        }
        for url in &browses {
            let resp = app.handle(Request::get(url).with_session(&sess));
            record(&mut out, user, &format!("GET {url}"), resp);
        }
    }
    out
}

#[test]
fn result_pages_match_the_parent_commit() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let now = transcript();
    assert_eq!(
        golden.matches("\n=== ").count() + 1,
        32,
        "16 screens for each of admin and guest"
    );
    for (want, got) in golden.split("\n=== ").zip(now.split("\n=== ")) {
        assert_eq!(got, want, "screen differs from the golden transcript");
    }
    assert_eq!(now, golden);
    // The transcript really exercises what it claims to.
    for needle in [
        "GetImage",
        "S&lt;&amp;&quot;&#39;&gt;",
        "value=S%3C%26%22%27%3E",
        "<i>null</i>",
        "download restricted",
        "Jasmin Wason</a>",
        "→RESULT_FILE",
        "/lob/VISUALISATION_FILE/IMAGE?VIS_NAME=slice%3C%26%3E.ppm",
        "3.0 KB",
    ] {
        assert!(golden.contains(needle), "golden lacks {needle}");
    }
}

#[test]
#[ignore = "rewrites the golden transcript; see the module comment"]
fn regenerate() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, transcript()).unwrap();
}
