//! `easia-med` through its public API only: the statement suites that
//! used to live inside `federation.rs`, each beside the seam it
//! exercises, and the golden statement transcript.

mod gather;
mod golden;
mod joins;
mod ladder;
mod plan_report;
mod rig;
mod statements;
