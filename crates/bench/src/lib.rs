//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary regenerates one artifact of the paper's evaluation
//! section and prints the paper's reported values next to the measured
//! ones, so EXPERIMENTS.md rows can be filled mechanically. Common CLI:
//!
//! * `--seed N` — scenario seed (default 11);
//! * `--days N` — horizon override in days (default: one year for the
//!   headline figures, shorter for sweeps — see each binary);
//! * `--full` — force the full-scale, full-year configuration;
//! * `--profile` — run self-measured (metrics registry + wall-clock
//!   profiler), print the time-share table, and drop the evidence JSON
//!   under `results/evidence/`;
//! * `--trace` — run with the structured trace enabled and include it
//!   in the evidence JSON (combines with `--profile`);
//! * `--trace-file DIR` — flight-recorder mode: spill every trace event
//!   to chunked JSONL under `DIR/<mode>/` (implies `--trace`; nothing
//!   is evicted no matter how long the run);
//! * `--trace-cap N` — in-memory trace capacity (ring size, or spill
//!   tail), a positive event count;
//! * `--trace-only tag[,tag...]` — record only the named subsystems.
//! * `--evdb DIR` — after the evidence lands, rebuild the indexed
//!   evidence store at `DIR` (`evdb ingest` inline), so queries and
//!   indexed triage are available immediately after the run.
//! * `--scope all|service|client` — which failure classes burn the SLO
//!   error budget (default `service`: only actionable service faults
//!   page; `all` restores the pre-taxonomy behaviour).
//!
//! Instrumented runs also drop a schema-validated `slo_report`
//! (`<bin>_<label>_slo.json`) with per-service availability, downtime
//! budgets, MTTR, and burn-rate alerts.

pub mod microbench;

pub use microbench::{black_box, Bencher, Criterion};

use std::path::{Path, PathBuf};

use intelliqos_core::slo::SloScope;
use intelliqos_core::{run_export_json, ManagementMode, ProfileReport, ScenarioConfig, World};
use intelliqos_simkern::{SimDuration, SpillConfig, Subsystem, TraceOptions};

/// Paper reference values for Figure 2 (downtime hours by category).
/// Order matches `FaultCategory::ALL`:
/// mid-crash, human, performance, front-end, LSF, FW/NW,
/// completely-down, hardware.
pub const FIG2_YEAR1: [f64; 8] = [345.0, 60.0, 50.0, 40.0, 30.0, 10.0, 5.0, 10.0];

/// Figure 2 year-2 per-category hours as printed in the paper's text.
/// (They sum to 39 h although the paper claims a 31 h total — both
/// recorded; see DESIGN.md on the inconsistency.)
pub const FIG2_YEAR2: [f64; 8] = [8.0, 2.0, 9.0, 3.0, 1.0, 8.0, 2.0, 6.0];

/// Paper total downtime, year 1.
pub const FIG2_YEAR1_TOTAL: f64 = 550.0;
/// Paper total downtime, year 2 (as claimed).
pub const FIG2_YEAR2_TOTAL: f64 = 31.0;

/// Figure 3: BMC Patrol CPU % samples (8 half-hour samples at peak).
pub const FIG3_BMC_CPU: [f64; 8] = [0.33, 0.30, 0.50, 0.58, 0.47, 1.10, 0.20, 0.17];
/// Figure 3: intelliagent CPU % samples.
pub const FIG3_AGENT_CPU: [f64; 8] = [0.045, 0.047, 0.043, 0.045, 0.045, 0.046, 0.046, 0.042];

/// Figure 4: BMC Patrol memory samples (MB).
pub const FIG4_BMC_MEM: [f64; 8] = [32.0, 46.0, 45.0, 37.0, 50.0, 58.0, 38.0, 51.0];
/// Figure 4: intelliagent memory (MB), flat.
pub const FIG4_AGENT_MEM: f64 = 1.6;

/// In-text detection latencies under BMC Patrol (hours).
pub const DETECT_DAYTIME_H: f64 = 1.0;
/// Overnight detection latency (hours).
pub const DETECT_OVERNIGHT_H: f64 = 10.0;
/// Weekend detection latency (hours).
pub const DETECT_WEEKEND_H: f64 = 25.0;
/// Agent detection bound: the run frequency (minutes).
pub const DETECT_AGENT_MIN: f64 = 5.0;

/// In-text manual repair times (hours).
pub const MTTR_SIMPLE_H: f64 = 2.0;
/// Complex (multi-expert) manual repair (hours).
pub const MTTR_COMPLEX_H: f64 = 4.0;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Scenario seed.
    pub seed: u64,
    /// Horizon in days.
    pub days: u64,
    /// Full-scale flag.
    pub full: bool,
    /// Self-measure the run (metrics + profiler) and emit evidence.
    pub profile: bool,
    /// Run with the structured trace enabled and emit evidence.
    pub trace: bool,
    /// Spill the trace to chunked JSONL under this directory (implies
    /// `trace`; paired runs write into `<dir>/<mode>` subdirectories).
    pub trace_file: Option<String>,
    /// Override the in-memory trace capacity (ring size, or spill tail).
    pub trace_cap: Option<usize>,
    /// Record only these subsystems (`--trace-only tag[,tag...]`).
    pub trace_only: Option<Vec<Subsystem>>,
    /// Rebuild the indexed evidence store here after the run
    /// (`--evdb DIR`).
    pub evdb: Option<String>,
    /// Which failure classes burn the error budget (`--scope`).
    pub scope: SloScope,
}

impl HarnessOpts {
    /// Parse `--seed`, `--days`, `--full`, `--profile`, `--trace`,
    /// `--trace-file DIR`, `--trace-cap N`, `--trace-only tag[,tag...]`,
    /// `--evdb DIR`, and
    /// `--scope all|service|client` from `std::env::args`, with the
    /// given default horizon.
    pub fn parse(default_days: u64) -> HarnessOpts {
        Self::parse_from(std::env::args().skip(1), default_days)
    }

    /// [`HarnessOpts::parse`] over an explicit argument list (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>, default_days: u64) -> HarnessOpts {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = HarnessOpts {
            seed: 11,
            days: default_days,
            full: false,
            profile: false,
            trace: false,
            trace_file: None,
            trace_cap: None,
            trace_only: None,
            evdb: None,
            scope: SloScope::Service,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    opts.seed = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(opts.seed);
                    i += 1;
                }
                "--days" => {
                    opts.days = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(opts.days);
                    i += 1;
                }
                "--full" => opts.full = true,
                "--profile" => opts.profile = true,
                "--trace" => opts.trace = true,
                "--trace-file" => {
                    opts.trace_file = args.get(i + 1).cloned();
                    i += 1;
                }
                "--trace-cap" => {
                    if let Some(v) = args.get(i + 1) {
                        match v.parse::<usize>() {
                            Ok(cap) if cap > 0 => opts.trace_cap = Some(cap),
                            _ => eprintln!("ignoring bad --trace-cap value: {v} (want N > 0)"),
                        }
                    }
                    i += 1;
                }
                "--trace-only" => {
                    if let Some(v) = args.get(i + 1) {
                        // One unknown tag spoils the list: recording the
                        // known ones alone would silently narrow the trace.
                        let unknown: Vec<&str> = v
                            .split(',')
                            .filter(|t| Subsystem::from_tag(t).is_none())
                            .collect();
                        if unknown.is_empty() {
                            opts.trace_only =
                                Some(v.split(',').filter_map(Subsystem::from_tag).collect());
                        } else {
                            eprintln!(
                                "ignoring bad --trace-only value: {v} (unknown tags: {unknown:?})"
                            );
                        }
                    }
                    i += 1;
                }
                "--evdb" => {
                    opts.evdb = args.get(i + 1).cloned();
                    i += 1;
                }
                "--scope" => {
                    if let Some(v) = args.get(i + 1) {
                        // `abort` exists internally for the arithmetic
                        // cross-check but is not an operator-facing
                        // burn policy.
                        match SloScope::parse(v) {
                            Some(s) if s != SloScope::Abort => opts.scope = s,
                            _ => eprintln!("ignoring bad --scope value: {v} (all|service|client)"),
                        }
                    }
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// Whether this invocation runs traced at all (`--trace`, or any of
    /// the trace-shaping flags, which imply it).
    pub fn traced(&self) -> bool {
        self.trace
            || self.trace_file.is_some()
            || self.trace_cap.is_some()
            || self.trace_only.is_some()
    }

    /// Whether this invocation should drop evidence JSON.
    pub fn wants_evidence(&self) -> bool {
        self.profile || self.traced()
    }

    /// The trace configuration for a run in `mode` (the spill directory
    /// gets a per-mode subdirectory so paired runs never collide).
    pub fn trace_options(&self, mode: ManagementMode) -> TraceOptions {
        let mut topts = TraceOptions::default();
        if let Some(cap) = self.trace_cap {
            topts.capacity = cap;
        }
        topts.only = self.trace_only.clone();
        if let Some(dir) = &self.trace_file {
            let sub = format!("{mode:?}").to_lowercase();
            topts.spill = Some(SpillConfig::new(Path::new(dir).join(sub)));
        }
        topts
    }

    /// Apply the `--profile`/`--trace*` flags to a freshly built world.
    pub fn instrument(&self, mut world: World) -> World {
        if self.traced() {
            let topts = self.trace_options(world.cfg.mode);
            world = world.enable_trace_with(topts);
        }
        if self.profile {
            world = world.enable_profile();
        }
        world
    }

    /// The full financial-site configuration with this seed/horizon.
    pub fn site(&self, mode: ManagementMode) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::financial_site(self.seed, mode);
        if !self.full {
            cfg.horizon = SimDuration::from_days(self.days);
        }
        cfg.slo.burn_scope = self.scope;
        cfg
    }

    /// Scale factor from the simulated horizon to one year (for
    /// presenting short runs as annualised hours).
    pub fn annualize(&self) -> f64 {
        if self.full {
            1.0
        } else {
            365.0 / self.days as f64
        }
    }
}

/// Where the figure/table binaries drop their run evidence.
pub fn evidence_dir() -> PathBuf {
    Path::new("results").join("evidence")
}

/// Validate-then-write one evidence document. The JSON is parsed with
/// the in-tree reader before it touches disk, so a malformed document
/// is an error, never a published artifact.
pub fn write_evidence_json(bin: &str, label: &str, json: &str) -> Result<PathBuf, String> {
    intelliqos_core::jsonv::parse(json).map_err(|e| format!("{bin}_{label}: invalid JSON: {e}"))?;
    let dir = evidence_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{bin}_{label}.json"));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Emit a finished world's evidence per the flags: print the profile
/// table on `--profile`, and write the full run export (ledger + trace
/// + profile) under [`evidence_dir`]. No-op without `--profile`/`--trace`.
pub fn emit_run_evidence(opts: &HarnessOpts, bin: &str, label: &str, world: &World) {
    if !opts.wants_evidence() {
        return;
    }
    if opts.profile {
        println!("\n--- profile: {label} ---");
        print!("{}", ProfileReport::from_world(world).render_table());
    }
    match write_evidence_json(bin, label, &run_export_json(world)) {
        Ok(path) => println!("evidence: {}", path.display()),
        Err(e) => {
            eprintln!("evidence FAILED: {e}");
            std::process::exit(1);
        }
    }
    let slo_json = world
        .slo
        .report(world.cfg.horizon)
        .to_json_with_run(world.cfg.seed, &format!("{:?}", world.cfg.mode));
    match write_evidence_json(bin, &format!("{label}_slo"), &slo_json) {
        Ok(path) => println!("evidence: {}", path.display()),
        Err(e) => {
            eprintln!("evidence FAILED: {e}");
            std::process::exit(1);
        }
    }
    if world.trace.sink_kind() == "spill" {
        println!(
            "trace: sink=spill total={} dropped={}",
            world.trace.total(),
            world.trace.dropped()
        );
    }
}

/// Build, instrument (per the flags), and run one scenario, returning
/// the finished world (the evidence carrier) together with its report.
pub fn run_world(
    opts: &HarnessOpts,
    cfg: ScenarioConfig,
) -> (World, intelliqos_core::ScenarioReport) {
    let mut world = opts.instrument(World::build(cfg));
    let report = world.run_to_end();
    (world, report)
}

/// Run the paired (manual, intelliagents) site scenario on parallel
/// threads, honouring the instrumentation flags, and emit both runs'
/// evidence under `<bin>_manual.json` / `<bin>_agents.json`.
pub fn run_paired_site(
    opts: &HarnessOpts,
    bin: &str,
) -> (
    intelliqos_core::ScenarioReport,
    intelliqos_core::ScenarioReport,
) {
    let ((manual_world, manual), (agents_world, agents)) = std::thread::scope(|s| {
        let m = s.spawn(|| run_world(opts, opts.site(ManagementMode::ManualOps)));
        let a = s.spawn(|| run_world(opts, opts.site(ManagementMode::Intelliagents)));
        // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
        (m.join().expect("manual run"), a.join().expect("agent run"))
    });
    emit_run_evidence(opts, bin, "manual", &manual_world);
    emit_run_evidence(opts, bin, "agents", &agents_world);
    maybe_build_evdb(opts);
    (manual, agents)
}

/// Rebuild the indexed evidence store (`--evdb DIR`) over the default
/// evidence directory, once the run's evidence is on disk. No-op
/// without the flag; a failed ingest is fatal — a run asked to index
/// its evidence must not exit 0 having silently skipped it.
pub fn maybe_build_evdb(opts: &HarnessOpts) {
    let Some(dir) = &opts.evdb else {
        return;
    };
    match intelliqos_evdb::Store::build(&evidence_dir(), Path::new(dir)) {
        Ok(report) => {
            for w in &report.warnings {
                eprintln!("evdb warning: {w}");
            }
            println!(
                "evdb: {} record(s) from {} source file(s) indexed at {dir} \
                 ({} segment(s), {} index file(s))",
                report.records,
                report.sources.len(),
                report.segments,
                report.index_files
            );
        }
        Err(e) => {
            eprintln!("evdb ingest FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Render a float slice as a JSON array (non-finite values become 0,
/// matching the profile exporter's convention).
pub fn json_arr_f64(xs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if x.is_finite() {
            out.push_str(&format!("{x}"));
        } else {
            out.push('0');
        }
    }
    out.push(']');
    out
}

/// Evidence path for binaries whose artifact is a sampled model rather
/// than a world run (FIG3/FIG4): validate + write the given JSON.
/// No-op without `--profile`/`--trace`.
pub fn emit_sample_evidence(opts: &HarnessOpts, bin: &str, label: &str, json: &str) {
    if !opts.wants_evidence() {
        return;
    }
    match write_evidence_json(bin, label, json) {
        Ok(path) => println!("evidence: {}", path.display()),
        Err(e) => {
            eprintln!("evidence FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Format one comparison row: label, paper value, measured value.
pub fn row(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    let ratio = if paper.abs() > 1e-9 {
        measured / paper
    } else {
        f64::NAN
    };
    format!(
        "{label:<18} paper {paper:>8.2}{unit:<4} measured {measured:>8.2}{unit:<4} (x{ratio:.2})"
    )
}

/// Pretty banner for a harness binary.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_consistent() {
        let y1: f64 = FIG2_YEAR1.iter().sum();
        assert!((y1 - FIG2_YEAR1_TOTAL).abs() < 1e-9);
        // The paper's own year-2 inconsistency: categories sum to 39,
        // claimed total is 31. Both facts are preserved on purpose.
        let y2: f64 = FIG2_YEAR2.iter().sum();
        assert!((y2 - 39.0).abs() < 1e-9);
        assert!(y2 > FIG2_YEAR2_TOTAL);
    }

    #[test]
    fn annualize_scales() {
        let opts = HarnessOpts::parse_from(std::iter::empty::<String>(), 73);
        assert!((opts.annualize() - 5.0).abs() < 1e-9);
        let full = HarnessOpts { full: true, ..opts };
        assert_eq!(full.annualize(), 1.0);
    }

    #[test]
    fn trace_flags_parse_and_imply_tracing() {
        let args = [
            "--seed",
            "7",
            "--trace-file",
            "out/spill",
            "--trace-cap",
            "1024",
            "--trace-only",
            "fault,agent",
            "--evdb",
            "out/evdb",
        ]
        .map(String::from);
        let opts = HarnessOpts::parse_from(args, 365);
        assert_eq!(opts.seed, 7);
        assert!(!opts.trace, "--trace itself was not passed");
        assert!(opts.traced(), "trace-shaping flags imply tracing");
        assert!(opts.wants_evidence());
        assert_eq!(opts.trace_file.as_deref(), Some("out/spill"));
        assert_eq!(opts.trace_cap, Some(1024));
        assert_eq!(
            opts.trace_only,
            Some(vec![Subsystem::Fault, Subsystem::Agent])
        );
        assert_eq!(opts.evdb.as_deref(), Some("out/evdb"));
        // Paired runs spill into per-mode subdirectories.
        let manual = opts.trace_options(ManagementMode::ManualOps);
        let agents = opts.trace_options(ManagementMode::Intelliagents);
        let (m, a) = (manual.spill.unwrap().dir, agents.spill.unwrap().dir);
        assert_ne!(m, a);
        assert!(m.ends_with("manualops"));
        assert!(a.ends_with("intelliagents"));
        assert_eq!(manual.capacity, 1024);
        // A zero, unparsable or per-subsystem capacity is a bad value:
        // ignored with a message, never a zero-sized ring that panics.
        for bad in ["0", "many", "fault=4096"] {
            let opts = HarnessOpts::parse_from(["--trace-cap", bad].map(String::from), 1);
            assert_eq!(opts.trace_cap, None, "--trace-cap {bad} must not parse");
            assert!(!opts.traced(), "--trace-cap {bad} must not imply tracing");
        }
        // Any unknown tag makes the whole list a bad value, so a typo
        // never narrows the recording to the tags that happened to parse.
        for bad in ["fault,agnet", "agnet", "fault,"] {
            let opts = HarnessOpts::parse_from(["--trace-only", bad].map(String::from), 1);
            assert_eq!(opts.trace_only, None, "--trace-only {bad} must not parse");
            assert!(!opts.traced(), "--trace-only {bad} must not imply tracing");
        }
    }

    #[test]
    fn scope_flag_parses_and_reaches_the_scenario() {
        let opts = HarnessOpts::parse_from(std::iter::empty::<String>(), 7);
        assert_eq!(opts.scope, SloScope::Service, "actionable-only default");
        let args = ["--scope", "all"].map(String::from);
        let opts = HarnessOpts::parse_from(args, 7);
        assert_eq!(opts.scope, SloScope::All);
        let cfg = opts.site(ManagementMode::ManualOps);
        assert_eq!(cfg.slo.burn_scope, SloScope::All);
        // `abort` and garbage are rejected, keeping the default.
        for bad in ["abort", "everything"] {
            let args = ["--scope", bad].map(String::from);
            let opts = HarnessOpts::parse_from(args, 7);
            assert_eq!(opts.scope, SloScope::Service, "{bad} must not parse");
        }
    }

    #[test]
    fn row_formats() {
        let r = row("Mid-crash", 345.0, 322.0, "h");
        assert!(r.contains("345.00"));
        assert!(r.contains("322.00"));
        assert!(r.contains("x0.93"));
    }
}
