//! # intelliqos-simkern
//!
//! Discrete-event simulation kernel underpinning the `intelliqos`
//! reproduction of Corsava & Getov, *"Improving Quality of Service in
//! Application Clusters"* (IPDPS 2003).
//!
//! The kernel is deliberately small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-second simulated time with a
//!   Monday-epoch calendar (weekends and overnight windows drive the
//!   paper's human-operations latencies).
//! * [`EventQueue`] — a future-event list with FIFO tie-breaking and
//!   token-based cancellation.
//! * [`SimRng`] — named, splittable random streams so that the fault
//!   sequence of a scenario is invariant under enabling/disabling the
//!   agent layer (paired before/after experiments).
//! * [`CircularQueue`] — the paper's configurable-length circular
//!   measurement files.
//! * [`Trace`] — zero-cost-when-disabled structured event log with
//!   circular retention and per-subsystem lifetime counters.
//! * [`MetricsRegistry`] / [`Profiler`] — counters, gauges,
//!   log-bucketed histograms, and wall-clock span profiling, also
//!   zero-cost when disabled; every run can be self-measuring.
//!
//! Nothing here knows about clusters, agents, or services; those live in
//! the higher crates.

#![warn(missing_docs)]

mod events;
pub mod lifecycle;
pub mod metrics;
mod ring;
mod rng;
pub mod time;
pub mod trace;

pub use events::{EventQueue, EventToken};
pub use lifecycle::{LifecycleState, LIFECYCLE_EDGES};
pub use metrics::{HistSummary, LogHistogram, MetricsRegistry, Profiler, SpanTimer};
pub use ring::CircularQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime, DAY, HOUR, MINUTE, WEEK, YEAR};
pub use trace::{
    CategorySpec, RingSink, SpillConfig, SpillSink, Subsystem, Trace, TraceEvent, TraceOptions,
    TraceSink, TRACE_REGISTRY,
};
