//! Batch jobs.
//!
//! The customer's analysts ran "data-mining, financial projections,
//! financial model evaluations, market data/trend simulations and
//! analytical reports" through LSF against the database tier (§4).
//! Jobs carry resource demands that land on the hosting server for the
//! duration of the run — overload from bad placement is what crashes
//! databases mid-job.

use std::fmt;

use intelliqos_simkern::{SimDuration, SimTime};

use intelliqos_cluster::ids::{Pid, ServerId};

/// Unique job id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{:06}", self.0)
    }
}

/// The analyst workload mix from §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Repeated comparisons of large data groups — the heaviest class.
    DataMining,
    /// Financial projections.
    Projection,
    /// Financial model evaluations.
    ModelEvaluation,
    /// Market data / trend simulations.
    TrendSimulation,
    /// Analytical reports.
    Report,
}

impl JobKind {
    /// All kinds.
    pub const ALL: [JobKind; 5] = [
        JobKind::DataMining,
        JobKind::Projection,
        JobKind::ModelEvaluation,
        JobKind::TrendSimulation,
        JobKind::Report,
    ];

    /// Short tag for logs/ontologies.
    pub fn tag(self) -> &'static str {
        match self {
            JobKind::DataMining => "datamine",
            JobKind::Projection => "project",
            JobKind::ModelEvaluation => "modeleval",
            JobKind::TrendSimulation => "trendsim",
            JobKind::Report => "report",
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Why a job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The database hosting the job crashed mid-run.
    DbCrash,
    /// The hosting server itself went down.
    ServerCrash,
    /// LSF lost the job (master crash with no recovery).
    LsfLost,
    /// Killed by an operator/agent.
    Killed,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Dispatched and running.
    Running {
        /// Hosting server.
        server: ServerId,
        /// Process id on the hosting server.
        pid: Pid,
        /// When it started.
        started: SimTime,
        /// When it will complete if nothing goes wrong.
        expected_end: SimTime,
    },
    /// Failed; may be resubmitted (a fresh attempt re-enters `Pending`).
    Failed {
        /// Failure time.
        at: SimTime,
        /// Why.
        reason: FailReason,
    },
}

/// Immutable description of the work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload class.
    pub kind: JobKind,
    /// Submitting analyst.
    pub user: String,
    /// CPU demand while running (compute-power units).
    pub cpu_demand: f64,
    /// Resident memory while running, MB.
    pub mem_mb: f64,
    /// I/O demand while running (fraction of server disk capacity).
    pub io_demand: f64,
    /// Nominal runtime on an unloaded server.
    pub runtime: SimDuration,
}

impl JobSpec {
    /// Period-plausible default demands per kind. Data-mining jobs are
    /// the big ones — "the majority of database servers cannot withstand
    /// the load of running repeated comparisons of large data groups".
    pub fn defaults_for(kind: JobKind, user: impl Into<String>) -> JobSpec {
        let (cpu, mem, io, mins) = match kind {
            JobKind::DataMining => (2.5, 2048.0, 0.35, 180),
            JobKind::Projection => (1.2, 768.0, 0.15, 60),
            JobKind::ModelEvaluation => (1.5, 1024.0, 0.20, 90),
            JobKind::TrendSimulation => (2.0, 1536.0, 0.25, 120),
            JobKind::Report => (0.5, 384.0, 0.10, 30),
        };
        JobSpec {
            kind,
            user: user.into(),
            cpu_demand: cpu,
            mem_mb: mem,
            io_demand: io,
            runtime: SimDuration::from_mins(mins),
        }
    }
}

/// A job with its mutable state and attempt accounting.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identity.
    pub id: JobId,
    /// What to run.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// When it was first submitted.
    pub submitted: SimTime,
    /// How many times it has been (re)dispatched.
    pub attempts: u32,
    /// Servers already tried (used by smarter rescheduling policies to
    /// avoid bouncing back to the machine that just crashed).
    pub tried_servers: Vec<ServerId>,
}

impl Job {
    /// Fresh pending job.
    pub fn new(id: JobId, spec: JobSpec, submitted: SimTime) -> Self {
        Job {
            id,
            spec,
            state: JobState::Pending,
            submitted,
            attempts: 0,
            tried_servers: Vec::new(),
        }
    }

    /// Is the job currently running?
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }

    /// Is the job waiting for dispatch?
    pub fn is_pending(&self) -> bool {
        matches!(self.state, JobState::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_specs_scale_by_kind() {
        let dm = JobSpec::defaults_for(JobKind::DataMining, "ana");
        let rep = JobSpec::defaults_for(JobKind::Report, "ana");
        assert!(dm.cpu_demand > rep.cpu_demand);
        assert!(dm.runtime > rep.runtime);
        assert_eq!(dm.user, "ana");
    }

    #[test]
    fn job_state_predicates() {
        let mut j = Job::new(
            JobId(1),
            JobSpec::defaults_for(JobKind::Report, "u"),
            SimTime::ZERO,
        );
        assert!(j.is_pending());
        assert!(!j.is_running());
        j.state = JobState::Failed {
            at: SimTime::from_mins(5),
            reason: FailReason::Killed,
        };
        assert!(!j.is_pending());
        assert!(!j.is_running());
    }

    #[test]
    fn display_formats() {
        assert_eq!(JobId(42).to_string(), "job000042");
        assert_eq!(JobKind::DataMining.to_string(), "datamine");
    }
}
