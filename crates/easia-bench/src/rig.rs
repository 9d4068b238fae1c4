//! What every seeded experiment shares: the generator behind all
//! catalogue data, the multi-site vocabulary, the transcript whose
//! SHA-256 is the run's `digest=`, and the two lines every seeded
//! `main` opens with.

use easia_crypto::sha256::{hex, sha256};
use easia_db::Value;
use easia_med::QueryOutcome;
use std::fmt::Write as _;

/// The foreign sites, in registration order (the hub is `soton`).
pub(crate) const SITE_NAMES: [&str; 3] = ["cam", "edin", "mcc"];

/// Titles follow the seed paper's turbulence vocabulary.
pub(crate) const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

/// SplitMix-style hash of `(seed, a, b)`: every generated row, arrival
/// and request draw is a pure function of it.
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// SHA-256 over `rows`, one `|`-joined line each.
pub(crate) fn row_hash(rows: &[Vec<Value>]) -> String {
    let mut text = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(Value::to_string).collect();
        let _ = writeln!(text, "{}", cells.join("|"));
    }
    hex(&sha256(text.as_bytes()))
}

/// The human-readable log of one run. Lines go in through `writeln!`;
/// [`Transcript::seal`] hashes the lot.
#[derive(Default)]
pub(crate) struct Transcript(String);

impl std::fmt::Write for Transcript {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.push_str(s);
        Ok(())
    }
}

impl Transcript {
    /// Log one federated statement — the SQL, its `EXPLAIN FEDERATED`
    /// report, the row count and the merged rows' hash, which is
    /// returned.
    pub(crate) fn statement(&mut self, sql: &str, out: &QueryOutcome) -> String {
        let rows_sha = row_hash(&out.rs.rows);
        let _ = writeln!(self, "query: {sql}");
        let _ = writeln!(self, "{}", out.explain.render());
        let _ = writeln!(self, "rows={} sha256={rows_sha}", out.rs.rows.len());
        rows_sha
    }

    /// Close the log: fold the metrics snapshot's hash in (when the run
    /// has one, so the digest covers every counter) and return
    /// `(digest, metrics_snapshot, transcript)`.
    pub(crate) fn seal(mut self, metrics_snapshot: Option<String>) -> (String, String, String) {
        if let Some(m) = &metrics_snapshot {
            let _ = writeln!(self, "metrics sha256={}", hex(&sha256(m.as_bytes())));
        }
        let Transcript(log) = self;
        let digest = hex(&sha256(log.as_bytes()));
        (digest, metrics_snapshot.unwrap_or_default(), log)
    }
}

/// Print the lines of a metrics snapshot that `keep` selects, under
/// a "Metrics snapshot (`section`):" heading.
pub fn print_metrics(section: &str, snapshot: &str, keep: impl Fn(&str) -> bool) {
    println!("\nMetrics snapshot ({section}):");
    for line in snapshot.lines().filter(|l| keep(l)) {
        println!("  {line}");
    }
}

/// The seed from argv (garbage or absence falls back to `default`).
pub fn seed_arg(default: u64) -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Run the experiment twice and require the two proofs `proof` picks —
/// the digest and the metrics snapshot (or, without one, the
/// transcript) — to be equal.
pub fn twice<R>(what: &str, run: impl Fn() -> R, proof: impl Fn(&R) -> (&str, &str)) -> (R, R) {
    let (first, second) = (run(), run());
    assert_eq!(
        proof(&first).0,
        proof(&second).0,
        "same-seed {what} runs must be bit-for-bit identical"
    );
    assert_eq!(
        proof(&first).1,
        proof(&second).1,
        "same-seed {what} runs must render byte-identical snapshots"
    );
    (first, second)
}
