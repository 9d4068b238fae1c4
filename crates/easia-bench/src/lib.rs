//! Shared harness utilities for the experiment binaries.
//!
//! One binary exists per table/figure of the paper (see DESIGN.md's
//! experiment index). Each prints a plainly formatted table so its
//! output can be diffed against EXPERIMENTS.md.

pub mod ablation;
pub mod chaos;
pub mod crashpoint;
pub mod degraded;
pub mod federation;
pub mod load;
pub mod mvcc;
pub mod partial_agg;
pub mod pipeline;
pub mod rig;
pub mod semijoin;

use easia_core::{turbulence, Archive};
/// Format seconds in the paper's `4h50m08s` style.
pub use easia_net::format_hms as hms;

/// Megabyte (decimal, as the paper's file sizes are quoted).
pub const MB: f64 = 1_000_000.0;

/// The paper's two reference file sizes: "85 MByte for a small
/// simulation and 544 MByte [for a] large simulation".
pub const SMALL_FILE: f64 = 85.0 * MB;
/// See [`SMALL_FILE`].
pub const LARGE_FILE: f64 = 544.0 * MB;

/// Fixed-width table printer.
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Report {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("| {:<w$} ", c, w = widths[i]));
            }
            s.push('|');
            println!("{s}");
        };
        line(&self.headers);
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Human bytes.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// A demo archive with `n_servers` file servers on paper-profile links,
/// loaded with `sims` small simulations.
pub fn demo_archive(n_servers: usize, sims: usize, grid: usize) -> Archive {
    let mut b = Archive::builder();
    for i in 0..n_servers {
        b = b.file_server(
            &format!("fs{}.example", i + 1),
            easia_core::paper_link_spec(),
        );
    }
    let mut a = b.build();
    turbulence::install_schema(&mut a).expect("schema installs");
    if sims > 0 {
        turbulence::seed_demo_data(&mut a, sims, grid).expect("seed data");
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders() {
        let mut r = Report::new("T", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        r.print();
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(SMALL_FILE), "85.0 MB");
        assert_eq!(fmt_bytes(1.2e9), "1.20 GB");
        assert_eq!(fmt_bytes(500.0), "500 B");
        assert_eq!(fmt_bytes(12_300.0), "12.3 KB");
    }
}
