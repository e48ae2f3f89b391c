//! # intelliqos-lsf
//!
//! An LSF-like batch scheduling substrate for the `intelliqos`
//! reproduction of Corsava & Getov (IPDPS 2003): jobs with resource
//! demands, pending queues, per-server job limits, pluggable
//! server-selection policies (manual-sticky / random / least-loaded —
//! the paper's DGSPL-guided policy plugs in from `intelliqos-core`),
//! the overload→database-crash hazard model, and the analyst workload
//! generator.

#![warn(missing_docs)]

pub mod cluster;
pub mod job;
pub mod select;
pub mod workload;

pub use cluster::{db_crash_hazard_per_hour, db_crash_roll, Dispatch, LsfCluster, LsfStats};
pub use job::{FailReason, Job, JobId, JobKind, JobSpec, JobState};
pub use select::{
    CandidateView, LeastLoadedSelector, ManualStickySelector, RandomSelector, ServerCandidate,
    ServerSelector,
};
pub use workload::{Arrival, WorkloadConfig, WorkloadGenerator};
