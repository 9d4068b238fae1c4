//! E10 — SQL/MED federation: pushdown scatter-gather vs. shipping
//! everything.
//!
//! A multi-hub archive (Southampton plus foreign sites over the paper's
//! measured 0.25–1.94 Mbit/s day/evening WAN profiles) runs a browse
//! workload through the foreign-data-wrapper engine twice: once with
//! predicate/projection/top-k pushdown and site-key pruning, once
//! shipping every partition wholesale. Both runs are executed twice at
//! the same seed to demonstrate bit-for-bit reproducibility.

fn main() {
    easia_bench::ablation::report(&easia_bench::federation::E10);
}
