//! The performance-collection pipeline.
//!
//! A [`PerfCollector`] is the state a performance intelliagent carries
//! for one server: the circular-queue log file written into the
//! server's `/logs/perf/…` tree (one timestamped line per sample, §3.5),
//! threshold baselines, and the breach notifications it raised.
//!
//! "All techniques were non-intrusive as they did not load the system
//! they were monitoring" — collection itself costs nothing in the
//! simulation's load model; the *footprint* of the monitoring process is
//! modelled separately for Figures 3–4.

use std::fmt::Write as _;

use intelliqos_simkern::{CircularQueue, SimTime};

use intelliqos_cluster::server::Server;

use intelliqos_ontology::constraint::{ConstraintStore, Violation};

use crate::metrics::{MetricGroup, MetricSnapshot};

/// A threshold-breach notification (§3.5: "Every time a threshold was
/// exceeded they notified us via email or SMS").
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// When it was detected.
    pub at: SimTime,
    /// Hostname.
    pub hostname: String,
    /// Measurement group.
    pub group: MetricGroup,
    /// The violation itself.
    pub violation: Violation,
}

/// Per-server, per-group collection state.
#[derive(Debug, Clone)]
pub struct PerfCollector {
    /// Hostname this collector watches.
    pub hostname: String,
    /// Which measurement group it owns ("for each monitored resource
    /// type or workgroup, a dedicated performance intelliagent").
    pub group: MetricGroup,
    /// Baseline thresholds.
    pub thresholds: ConstraintStore,
    /// Circular log length (lines) — "managed as a circular queue, the
    /// length of which was configurable".
    pub log_capacity: usize,
    log: CircularQueue<String>,
    /// Whether the on-disk file holds `log`; false after a failed write
    /// (full or unmounted `/logs`), so the next write rewrites it whole.
    synced: bool,
    breaches: Vec<Breach>,
}

impl PerfCollector {
    /// New collector.
    pub fn new(
        hostname: impl Into<String>,
        group: MetricGroup,
        thresholds: ConstraintStore,
        log_capacity: usize,
    ) -> Self {
        PerfCollector {
            hostname: hostname.into(),
            group,
            thresholds,
            log_capacity,
            log: CircularQueue::new(log_capacity.max(1)),
            synced: true,
            breaches: Vec::new(),
        }
    }

    /// Path of this collector's log file on the server.
    pub fn log_path(&self) -> String {
        format!("/logs/perf/{}/{}", self.hostname, self.group.dir_name())
    }

    /// Ingest one snapshot: append it to the circular log file on the
    /// server's filesystem, check thresholds. Returns the breaches
    /// raised by this sample.
    pub fn ingest(
        &mut self,
        snapshot: &MetricSnapshot,
        server: &mut Server,
        now: SimTime,
    ) -> Vec<Breach> {
        // One ASCII log line per sample: "ts k=v k=v …" — the flat
        // format the paper's operators could grep.
        let mut line = format!("t={}", now.as_secs());
        for (name, value) in snapshot {
            let _ = write!(line, " {name}={value:.3}");
        }
        self.log.push(line.clone());
        // The circular file holds the window, oldest → newest. A full
        // /logs filesystem makes this write fail — that is a real fault
        // the resource agent must notice; the collector itself soldiers
        // on with its in-memory window and rewrites the file whole once
        // a write succeeds again.
        let written = if self.synced {
            server
                .fs
                .rotate_append(self.log_path(), line, self.log.capacity(), now)
        } else {
            let lines: Vec<String> = self.log.iter().cloned().collect();
            server.fs.write(self.log_path(), lines, now)
        };
        self.synced = written.is_ok();
        // Threshold checks.
        let violations = self.thresholds.check(snapshot);
        let breaches: Vec<Breach> = violations
            .into_iter()
            .map(|violation| Breach {
                at: now,
                hostname: self.hostname.clone(),
                group: self.group,
                violation,
            })
            .collect();
        self.breaches.extend(breaches.iter().cloned());
        breaches
    }

    /// All breaches raised so far.
    pub fn breaches(&self) -> &[Breach] {
        &self.breaches
    }

    /// The retained log window (oldest → newest).
    pub fn log_lines(&self) -> Vec<&str> {
        self.log.iter().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
    use intelliqos_cluster::ids::{ServerId, Site};
    use intelliqos_ontology::constraint::Bounds;

    fn server() -> Server {
        Server::new(
            ServerId(0),
            "db000",
            HardwareSpec::new(ServerModel::SunE4500, 8, 8, 6),
            Site::new("London", "LDN"),
        )
    }

    fn snapshot(pairs: &[(&str, f64)]) -> MetricSnapshot {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn collector(cap: usize) -> PerfCollector {
        let mut thresholds = ConstraintStore::new();
        thresholds.set("run_queue", Bounds::at_most(4.0));
        PerfCollector::new("db000", MetricGroup::OperatingSystem, thresholds, cap)
    }

    #[test]
    fn ingest_writes_the_log_file() {
        let mut c = collector(100);
        let mut s = server();
        for i in 0..5 {
            c.ingest(
                &snapshot(&[("run_queue", i as f64), ("cpu_idle_pct", 90.0)]),
                &mut s,
                SimTime::from_mins(i * 10),
            );
        }
        // The on-disk circular file exists and has 5 lines.
        let f = s.fs.read("/logs/perf/db000/os").unwrap();
        assert_eq!(f.lines.len(), 5);
        assert!(f.lines[0].starts_with("t=0 "));
    }

    #[test]
    fn circular_log_rotates() {
        let mut c = collector(3);
        let mut s = server();
        for i in 0..10u64 {
            c.ingest(
                &snapshot(&[("run_queue", 0.0)]),
                &mut s,
                SimTime::from_mins(i),
            );
        }
        let lines = c.log_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t=420")); // minute 7
        let f = s.fs.read("/logs/perf/db000/os").unwrap();
        assert_eq!(f.lines.len(), 3);
    }

    #[test]
    fn breaches_fire_on_threshold() {
        let mut c = collector(10);
        let mut s = server();
        let quiet = c.ingest(&snapshot(&[("run_queue", 1.0)]), &mut s, SimTime::ZERO);
        assert!(quiet.is_empty());
        let noisy = c.ingest(
            &snapshot(&[("run_queue", 9.0)]),
            &mut s,
            SimTime::from_mins(10),
        );
        assert_eq!(noisy.len(), 1);
        assert_eq!(noisy[0].violation.var, "run_queue");
        assert_eq!(noisy[0].hostname, "db000");
        assert_eq!(c.breaches().len(), 1);
    }

    #[test]
    fn full_logs_filesystem_does_not_kill_collection() {
        let mut c = collector(10);
        let mut s = server();
        // Re-mount /logs tiny and fill it completely.
        s.fs.add_mount("/logs", 4096);
        let big = "x".repeat(1024);
        while s
            .fs
            .append("/logs/filler", big.clone(), SimTime::ZERO)
            .is_ok()
        {}
        let breaches = c.ingest(&snapshot(&[("run_queue", 9.0)]), &mut s, SimTime::ZERO);
        // Breach detection still works from memory even though the
        // on-disk write failed.
        assert_eq!(breaches.len(), 1);
        assert_eq!(c.log_lines().len(), 1);
    }

    #[test]
    fn file_matches_the_window_across_a_full_logs_episode() {
        let mut c = collector(4);
        let mut s = server();
        s.fs.add_mount("/logs", 400);
        let window_on_disk = |c: &PerfCollector, s: &Server| {
            let f = s.fs.read("/logs/perf/db000/os").unwrap();
            assert_eq!(f.lines, c.log_lines());
            assert_eq!(s.fs.used_bytes("/logs"), Some(f.size_bytes() + filler(s)));
        };
        fn filler(s: &Server) -> u64 {
            s.fs.read("/logs/filler")
                .map(|f| f.size_bytes())
                .unwrap_or(0)
        }
        let mut t = 0u64;
        let mut sample = |c: &mut PerfCollector, s: &mut Server| {
            t += 1;
            // Each line is one byte longer than the last, so a full
            // /logs refuses it.
            c.ingest(
                &snapshot(&[("run_queue", 10f64.powi(t as i32))]),
                s,
                SimTime::from_mins(t),
            );
        };
        for _ in 0..6 {
            sample(&mut c, &mut s);
            window_on_disk(&c, &s);
        }
        // Fill /logs: the writes fail and the file goes stale.
        while s
            .fs
            .append("/logs/filler", "x".repeat(40), SimTime::ZERO)
            .is_ok()
        {}
        while s.fs.append("/logs/filler", "", SimTime::ZERO).is_ok() {}
        for _ in 0..3 {
            sample(&mut c, &mut s);
        }
        assert_ne!(
            s.fs.read("/logs/perf/db000/os").unwrap().lines,
            c.log_lines()
        );
        // Unmounted: still failing.
        s.fs.set_mounted("/logs", false);
        sample(&mut c, &mut s);
        s.fs.set_mounted("/logs", true);
        // Rotation frees space; the recovery write restores the window.
        s.fs.remove("/logs/filler").unwrap();
        for _ in 0..6 {
            sample(&mut c, &mut s);
            window_on_disk(&c, &s);
        }
        let f = s.fs.read("/logs/perf/db000/os").unwrap();
        assert_eq!(f.created_at, SimTime::from_mins(1));
        assert_eq!(f.modified_at, SimTime::from_mins(16));
    }
}
