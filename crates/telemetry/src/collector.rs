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

use intelliqos_cluster::fs::SimFs;
use intelliqos_cluster::server::Server;

use intelliqos_ontology::constraint::{ConstraintStore, Violation};
use intelliqos_ontology::flat::push_fixed;

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
    /// The window while the on-disk file lags behind it: from a failed
    /// write (full or unmounted `/logs`) until the write that restores
    /// it. While writes succeed the circular file is the only copy.
    pending: Option<CircularQueue<String>>,
    breach_count: u64,
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
            pending: None,
            breach_count: 0,
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
        // The circular file holds the window, oldest → newest. A full
        // /logs filesystem makes this write fail — that is a real fault
        // the resource agent must notice; the collector itself soldiers
        // on with an in-memory window and rewrites the file whole once
        // a write succeeds again.
        let capacity = self.log_capacity.max(1);
        match &mut self.pending {
            None => {
                let line = log_line(snapshot, now);
                if server
                    .fs
                    .rotate_append(self.log_path(), line, capacity, now)
                    .is_err()
                {
                    // The failed write left the file as it was: the
                    // window up to the previous sample. Nothing removes
                    // `/logs/perf` files, and an unmounted mount keeps
                    // them, so the stored lines are that window.
                    let mut window = CircularQueue::new(capacity);
                    if let Some(f) = server.fs.stored(&self.log_path()) {
                        for l in &f.lines {
                            window.push(l.clone());
                        }
                    }
                    window.push(log_line(snapshot, now));
                    self.pending = Some(window);
                }
            }
            Some(window) => {
                window.push(log_line(snapshot, now));
                let lines: Vec<String> = window.iter().cloned().collect();
                if server.fs.write(self.log_path(), lines, now).is_ok() {
                    self.pending = None;
                }
            }
        }
        // Threshold checks.
        let violations = self.thresholds.check(snapshot);
        self.breach_count += violations.len() as u64;
        violations
            .into_iter()
            .map(|violation| Breach {
                at: now,
                hostname: self.hostname.clone(),
                group: self.group,
                violation,
            })
            .collect()
    }

    /// Number of breaches raised so far.
    pub fn breach_count(&self) -> u64 {
        self.breach_count
    }

    /// The retained log window (oldest → newest): the file on `fs`
    /// (whatever its mount state) while it is in step, else the
    /// in-memory window.
    pub fn log_lines<'a>(&'a self, fs: &'a SimFs) -> Vec<&'a str> {
        match &self.pending {
            Some(window) => window.iter().map(String::as_str).collect(),
            None => fs
                .stored(&self.log_path())
                .map(|f| f.lines.iter().map(String::as_str).collect())
                .unwrap_or_default(),
        }
    }
}

/// One ASCII log line per sample: "ts k=v k=v …" — the flat format the
/// paper's operators could grep.
fn log_line(snapshot: &MetricSnapshot, now: SimTime) -> String {
    let mut line = format!("t={}", now.as_secs());
    for (name, value) in snapshot {
        let _ = write!(line, " {name}=");
        push_fixed(&mut line, *value, 3);
    }
    line
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
        let lines = c.log_lines(&s.fs);
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
        assert_eq!(c.breach_count(), 1);
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
        assert_eq!(c.log_lines(&s.fs).len(), 1);
    }

    #[test]
    fn file_matches_the_window_across_a_full_logs_episode() {
        let mut c = collector(4);
        let mut s = server();
        s.fs.add_mount("/logs", 400);
        let window_on_disk = |c: &PerfCollector, s: &Server| {
            let f = s.fs.read("/logs/perf/db000/os").unwrap();
            assert_eq!(f.lines, c.log_lines(&s.fs));
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
            c.log_lines(&s.fs)
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

    #[test]
    fn randomized_episodes_match_a_reference_window() {
        let (mut failures, mut recoveries) = (0, 0);
        for seed in 0..48 {
            let mut rng = intelliqos_simkern::SimRng::stream(seed, "collector-episode");
            let cap = rng.uniform_u64(1, 6) as usize;
            let mut c = collector(cap);
            let mut s = server();
            s.fs.add_mount("/logs", 700);
            let mut model: CircularQueue<String> = CircularQueue::new(cap);
            let mut mounted = true;
            let filler = |s: &Server| s.fs.stored("/logs/filler").map_or(0, |f| f.size_bytes());
            for t in 1..=80u64 {
                match rng.uniform_u64(0, 9) {
                    // /logs fills up.
                    0 if mounted => {
                        while s
                            .fs
                            .append("/logs/filler", "x".repeat(40), SimTime::ZERO)
                            .is_ok()
                        {}
                        while s.fs.append("/logs/filler", "", SimTime::ZERO).is_ok() {}
                    }
                    // /logs is unmounted or mounted again.
                    1 => {
                        mounted = !mounted;
                        s.fs.set_mounted("/logs", mounted);
                    }
                    // Rotation frees the filler (never the perf log).
                    2 if mounted => {
                        let _ = s.fs.remove("/logs/filler");
                    }
                    _ => {}
                }
                let scale = 10f64.powi(rng.uniform_u64(0, 7) as i32);
                let value = rng.uniform(0.0, scale);
                let old =
                    s.fs.stored("/logs/perf/db000/os")
                        .map_or(0, |f| f.size_bytes());
                model.push(format!("t={} run_queue={value:.3}", t * 60));
                let window: Vec<&str> = model.iter().map(String::as_str).collect();
                let new: u64 = window.iter().map(|l| l.len() as u64 + 1).sum();
                let fits = s.fs.used_bytes("/logs").unwrap() - old + new <= 700;
                let was_pending = c.pending.is_some();
                c.ingest(
                    &snapshot(&[("run_queue", value)]),
                    &mut s,
                    SimTime::from_mins(t),
                );
                let written = c.pending.is_none();
                assert_eq!(written, mounted && fits, "seed {seed} t {t}");
                failures += u32::from(!written && !was_pending);
                recoveries += u32::from(written && was_pending);
                assert_eq!(c.log_lines(&s.fs), window, "seed {seed} t {t}");
                if written {
                    let f = s.fs.read("/logs/perf/db000/os").unwrap();
                    assert_eq!(f.lines, window);
                    assert_eq!(f.modified_at, SimTime::from_mins(t));
                    assert_eq!(s.fs.used_bytes("/logs"), Some(new + filler(&s)));
                }
            }
        }
        assert!(failures > 20 && recoveries > 20, "{failures} {recoveries}");
    }
}
