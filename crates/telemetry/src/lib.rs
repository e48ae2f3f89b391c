//! # intelliqos-telemetry
//!
//! Performance measurement for the `intelliqos` reproduction of Corsava
//! & Getov (IPDPS 2003): the paper's five measurement groups, metric
//! extraction from the simulated substrate, circular-queue ASCII logs,
//! threshold baselines with breach notifications, microstate accounting
//! summaries, and the non-resident agent footprint model behind
//! Figures 3–4.

#![warn(missing_docs)]

pub mod collector;
pub mod footprint;
pub mod metrics;

pub use collector::{Breach, PerfCollector};
pub use footprint::AgentFootprint;
pub use metrics::{
    app_process_metrics, disk_metrics, microstate_metrics, network_metrics, os_metrics,
    user_process_metrics, MetricGroup, MetricSnapshot,
};
