//! `easia-med` through its public API only: the statement suites that
//! used to live inside `federation.rs`, each beside the seam it
//! exercises, the golden statement transcript, and the differential
//! probe against a single-database oracle.

mod gather;
mod golden;
mod group_keys;
mod joins;
mod ladder;
mod oracle;
mod plan_report;
mod rig;
mod statements;
