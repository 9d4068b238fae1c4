//! E12 — Semi-join shipping: keyed remote scans vs. shipping the whole
//! join side.
//!
//! A multi-hub archive whose RESULT_FILE catalog references simulations
//! held at *other* sites (over the paper's measured 0.25–1.94 Mbit/s
//! day/evening WAN profiles) runs the browse-screen join workload
//! through the foreign-data-wrapper engine twice: once shipping only
//! the bound join keys to the remote side, once with the key cap
//! forced to zero so every keyed leg degrades to a full-partition
//! ship. Both runs are executed twice at the same seed to demonstrate
//! bit-for-bit reproducibility, and must merge to identical answers.

fn main() {
    easia_bench::ablation::report(&easia_bench::semijoin::E12);
}
