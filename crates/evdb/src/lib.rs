//! # intelliqos-evdb
//!
//! The embedded evidence store: every incident, trace event, and SLO
//! sample the run pipeline writes under `results/evidence/` becomes a
//! typed, indexed, cross-run-queryable record.
//!
//! The flat evidence layout is the source of truth; this crate is a
//! deterministic *index over it*, rebuilt in full by `evdb ingest`.
//! Two backends answer every query:
//!
//! * [`store`] — segments plus secondary indexes (service, category,
//!   subsystem, correlation id, run label, hour-bucketed time), read
//!   without ever re-opening the raw evidence;
//! * [`scan`] — the linear reference scan over the evidence directory.
//!
//! Both share one extraction ([`extract`]), one predicate
//! ([`query::Query::matches`]), one result order
//! ([`model::Rec::sort_key`]), and one timeline renderer
//! ([`timeline`]) — so an indexed answer is byte-identical to the scan
//! answer by construction, and the equivalence property test holds the
//! construction to it.
//!
//! Zero external dependencies, pure std, fully deterministic: the same
//! evidence directory always produces the same store bytes.

#![warn(missing_docs)]

pub mod diff;
pub mod extract;
pub mod model;
pub mod query;
pub mod scan;
pub mod store;
pub mod timeline;

pub use diff::diff_runs;
pub use extract::{extract_dir, Extraction, SourceFile};
pub use model::{AttemptRec, IncidentRec, Kind, Rec, SloRec, TraceRec};
pub use query::Query;
pub use scan::{scan_query, ScanStats};
pub use store::{IngestReport, QueryStats, SegMeta, Store};
pub use timeline::render_corr_timelines;
