//! `easia-med` through its public API only: the statement suites that
//! used to live inside `federation.rs`, each beside the seam it
//! exercises, the golden statement transcript, and the differential
//! probes against a single-database oracle.

mod gather;
mod golden;
mod group_keys;
mod joins;
mod ladder;
mod names;
mod oracle;
mod plan_report;
mod rig;
mod statements;
