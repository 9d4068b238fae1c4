//! The four workloads. Each builds its instance from the seed-free
//! catalogue sizes, generates its script from `--seed`, and implements
//! [`crate::harness::Workload`].

pub mod active_ops;
pub mod fed_browse;
pub mod hub_browse;
pub mod ingest;

use crate::harness::{Config, Workload};
use easia_db::{Database, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// Titles follow the seed paper's turbulence vocabulary.
pub const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

/// Authors of the hub's AUTHOR table; every SIMULATION row names one.
pub const AUTHORS: [(&str, &str); 3] = [
    ("A1", "Mark Papiani"),
    ("A2", "Jasmin Wason"),
    ("A3", "Denis Nicole"),
];

/// The hub's AUTHOR rows.
pub fn seed_authors(db: &mut Database) {
    for (key, name) in AUTHORS {
        db.execute(&format!(
            "INSERT INTO author VALUES ('{key}', '{name}', '{key}@soton.example', 'University of Southampton')"
        ))
        .expect("author");
    }
}

/// Rows as text, one `|`-separated line each, for comparing answers
/// with an oracle.
pub fn rows_text(rows: &[Vec<Value>]) -> String {
    let mut t = String::new();
    for r in rows {
        let cells: Vec<String> = r.iter().map(Value::to_string).collect();
        t.push_str(&cells.join("|"));
        t.push('\n');
    }
    t
}

/// Fisher–Yates with the script's own generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Builds one workload: instance, data and script.
pub type Builder = fn(&Config) -> Box<dyn Workload>;

/// The builder of the named workload.
pub fn build(name: &str) -> Option<Builder> {
    Some(match name {
        "hub_browse" => |c| Box::new(hub_browse::HubBrowse::build(c)),
        "fed_browse" => |c| Box::new(fed_browse::FedBrowse::build(c)),
        "ingest" => |c| Box::new(ingest::Ingest::build(c)),
        "active_ops" => |c| Box::new(active_ops::ActiveOps::build(c)),
        _ => return None,
    })
}
