//! An embedded object-relational database engine.
//!
//! EASIA stores "the relatively small simulation result metadata, and the
//! large result files, in a unified way" in an object-relational DBMS: the
//! metadata lives in ordinary rows, small uploadable objects live in
//! BLOB/CLOB columns, and the multi-gigabyte result files live *outside*
//! the database behind SQL/MED DATALINK columns. The original system used
//! a commercial ORDBMS via JDBC; this crate is that substrate rebuilt from
//! scratch:
//!
//! * [`value`] — the SQL type system, including `BLOB`, `CLOB` and
//!   `DATALINK` values, with SQL three-valued-logic comparisons,
//! * [`schema`] — catalog: tables, columns, primary/foreign keys, the
//!   referential-integrity metadata that DBbrowse/EASIA mine to generate
//!   the browsing interface,
//! * [`storage`] — slotted 8 KiB pages, heap tables and the checkpoint
//!   image ([`storage::snapshot`]),
//! * [`index`] — B+tree secondary/primary indexes,
//! * [`sql`] — lexer, AST and recursive-descent parser for the SQL subset
//!   the EASIA interface generates (DDL with DATALINK options, DML, joins,
//!   aggregates, `LIKE` searches),
//! * [`expr`] — expression evaluation with NULL semantics,
//! * [`plan`]/[`exec`] — planning (index selection) and execution,
//! * [`txn`] — transactions with a logical write-ahead log, rollback, and
//!   crash recovery by snapshot + replay,
//! * [`db`] — the [`Database`] facade, scalar-function registry, and the
//!   [`db::LinkObserver`] hook through which the `easia-datalink` crate
//!   attaches SQL/MED link-control semantics to DML on DATALINK columns.

pub mod crc;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod mvcc;
pub mod obs;
pub mod plan;
pub mod schema;
pub mod scrub;
pub mod sql;
pub mod storage;
pub mod txn;
pub mod value;

pub use db::{Database, LinkObserver, RecoveryReport, ResultSet};
pub use error::DbError;
pub use mvcc::{Csn, ReadView, SnapshotId, TxnId, VacuumStats};
pub use obs::DbMetrics;
pub use schema::{ColumnDef, DatalinkSpec, ForeignKey, TableSchema};
pub use scrub::{ScrubError, ScrubReport};
pub use storage::{DiskFault, DiskFaultInjector};
pub use txn::{WalCorruption, WalParse};
pub use value::{SqlType, Value};
