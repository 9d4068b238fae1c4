//! E17 — Partial-aggregate pushdown: site-local aggregate states vs.
//! shipping every raw row to the hub.
//!
//! A multi-hub archive holding 10 000 catalog rows per site (over the
//! paper's measured 0.25–1.94 Mbit/s day/evening WAN profiles) runs a
//! grouped-aggregate browse workload through the foreign-data-wrapper
//! engine twice: once decomposing SUM/COUNT/MIN/MAX/AVG into per-site
//! partial states merged at the hub (one row per group per site), once
//! with the pushdown disabled so every aggregate ships its raw rows.
//! Both runs execute twice at the same seed to demonstrate bit-for-bit
//! reproducibility, and must merge to identical answers.

fn main() {
    easia_bench::ablation::report(&easia_bench::partial_agg::E17);
}
