//! XUIS — the XML User Interface Specification.
//!
//! EASIA "separate\[s\] the user interface specification from the user
//! interface processing": the whole web interface is driven by an XML
//! document generated from the database catalog and optionally
//! hand-customised before system initialisation. This crate implements:
//!
//! * [`model`] — the typed document model: tables, columns, types,
//!   primary-key back-references, foreign keys with substitute columns,
//!   sample values, `<operation>` and `<upload>` markup,
//! * [`generate`] — the default-XUIS generator ("written in Java, uses
//!   JDBC to extract data and schema information from the database" —
//!   here: Rust over the embedded catalog), including sample harvesting,
//! * [`xml`] — (de)serialisation to the paper's XML shape,
//! * [`dtd`] — the document schema ("the default XUIS conforms to a DTD
//!   that we have created") and validation,
//! * [`customize`] — the customisation operations the paper lists:
//!   aliases, hiding, substitute columns, user-defined relationships,
//!   per-user personalisation.

pub mod customize;
pub mod dtd;
pub mod generate;
pub mod model;
pub mod xml;

pub use generate::generate_default;
pub use model::{
    Condition, FkSpec, Location, Operation, Param, UploadSpec, Widget, XuisColumn, XuisDoc,
    XuisTable,
};
pub use xml::{from_xml, to_xml};
