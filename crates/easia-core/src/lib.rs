//! EASIA — the Extensible Architecture for Scientific Information
//! Archives, assembled.
//!
//! This crate is the paper's "system architecture" slide in code: a
//! database server host (Southampton) storing metadata, file server
//! hosts "that may be located anywhere on the Internet" storing the
//! large result files behind DATALINK columns, a simulated WAN between
//! them, the XUIS-driven web interface, and the server-side operations
//! machinery.
//!
//! Entry point: [`Archive`]. A typical session:
//!
//! ```
//! use easia_core::{Archive, turbulence};
//! let mut archive = Archive::builder()
//!     .file_server("fs1.soton.example", easia_core::paper_link_spec())
//!     .build();
//! turbulence::install_schema(&mut archive).unwrap();
//! turbulence::seed_demo_data(&mut archive, 2, 16).unwrap();
//! let rs = archive
//!     .db
//!     .execute("SELECT COUNT(*) FROM RESULT_FILE")
//!     .unwrap();
//! assert!(rs.scalar().is_some());
//! ```

pub mod admission;
pub mod archive;
pub mod ops_builtin;
pub mod transfer;
pub mod turbulence;
pub mod webapp;

pub use admission::{Admission, AdmissionConfig, AdmissionController, ClassLimits, RouteClass};
pub use archive::{Archive, ArchiveBuilder, ArchiveError, OperationOutcome};
pub use transfer::{
    transfer_with_retry_observed, RetryPolicy, TransferClientError, TransferMetrics,
    TransferOutcome,
};
pub use webapp::WebApp;

use easia_net::{BandwidthProfile, LinkSpec, Mbit};

/// The paper's measured SuperJANET link: asymmetric and time-of-day
/// dependent. Direction a→b is "to Southampton" (0.25 Mbit/s day,
/// 0.58 evening), b→a is "from Southampton" (0.37 day, 1.94 evening).
pub fn paper_link_spec() -> LinkSpec {
    LinkSpec {
        latency_s: 0.02,
        ab: BandwidthProfile::day_evening(Mbit(0.25), Mbit(0.58)),
        ba: BandwidthProfile::day_evening(Mbit(0.37), Mbit(1.94)),
    }
}

/// A fast local-network link (file server co-located with the cluster
/// that generates the data).
pub fn lan_link_spec() -> LinkSpec {
    LinkSpec::symmetric(Mbit(100.0), 0.001)
}
