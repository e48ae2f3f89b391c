//! The workloads and the pipeline one repetition runs:
//! build → simulate → export → ingest → query, then the output checks.
//!
//! Every call into the simulator goes through a crate's public API; the
//! benchmark adds no instrumentation inside the program.

use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use intelliqos_cluster::faults::{FaultEvent, FaultInjector, FaultMechanism};
use intelliqos_core::downtime::FailureClass;
use intelliqos_core::slo::SloScope;
use intelliqos_core::{jsonv, run_export_json, ManagementMode, ScenarioConfig, World};
use intelliqos_evdb::{extract_dir, IngestReport, Query, Rec, Store};
use intelliqos_lsf::workload::WorkloadGenerator;
use intelliqos_simkern::{SimDuration, SimRng, SimTime, Subsystem};

use crate::stats::{timed, timed_ns, Digest};

/// Simulated days of the `site-agents` horizon.
pub const AGENT_DAYS: u64 = 2;

/// Simulated days of the `evidence` horizon: half the small preset's
/// fortnight, so that a run holds enough repetitions to be steady.
const EVIDENCE_DAYS: u64 = 7;

/// Past the horizon, an incident older than this that is still open has
/// leaked: the slowest human pipeline (a latent weekend fault, paging
/// and a complex repair) closes in under three days.
const LEAK_GRACE_SECS: u64 = 7 * 86_400;

/// Two log-fill faults closer than this could overlap and double the
/// peak memory of a `site-manual` year, so such tapes are skipped.
const FILL_SPACING_SECS: u64 = 7 * 86_400;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full financial site under the agents, a few simulated days.
    SiteAgents,
    /// The full financial site under manual operations, one year.
    SiteManual,
    /// The small fault-dense site in both modes for a week, flight
    /// recorder on.
    Evidence,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SiteAgents,
        Workload::SiteManual,
        Workload::Evidence,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SiteAgents => "site-agents",
            Workload::SiteManual => "site-manual",
            Workload::Evidence => "evidence",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host seconds one repetition takes on a 2-core x86-64 host; plans
    /// how many repetitions fit in the run.
    fn nominal_rep_secs(self) -> f64 {
        match self {
            Workload::SiteAgents => 8.2,
            Workload::SiteManual => 3.4,
            Workload::Evidence => 4.2,
        }
    }

    /// Repetitions in a run of `seconds`: a fixed function of the
    /// argument, so that a run's work does not depend on host speed.
    pub fn reps(self, seconds: u64) -> usize {
        let n = (seconds as f64 / self.nominal_rep_secs()).round() as usize;
        n.clamp(3, 64)
    }

    /// The management modes simulated, in order.
    pub fn modes(self) -> &'static [ManagementMode] {
        match self {
            Workload::SiteAgents => &[ManagementMode::Intelliagents],
            Workload::SiteManual => &[ManagementMode::ManualOps],
            Workload::Evidence => &[ManagementMode::ManualOps, ManagementMode::Intelliagents],
        }
    }

    /// The scenario of one mode at one scenario seed.
    pub fn config(self, seed: u64, mode: ManagementMode) -> ScenarioConfig {
        match self {
            Workload::SiteAgents => {
                let mut cfg = ScenarioConfig::financial_site(seed, mode);
                cfg.horizon = SimDuration::from_days(AGENT_DAYS);
                cfg
            }
            Workload::SiteManual => ScenarioConfig::financial_site(seed, mode),
            Workload::Evidence => {
                let mut cfg = ScenarioConfig::small(seed, mode);
                cfg.horizon = SimDuration::from_days(EVIDENCE_DAYS);
                cfg
            }
        }
    }

    /// Whether the worlds run with the in-memory flight recorder, as the
    /// figure binaries do under `--trace`. On `evidence` the recording
    /// is the product being measured. On `site-agents` it gives the
    /// evidence stages something to act on: a quiet two-day ledger is
    /// one or two kilobytes, and whether it holds an incident would
    /// double their cost from seed to seed. A year of `site-manual`
    /// recording would overflow the ring and its export would take
    /// minutes to validate, while its ledger alone is ~100 KB.
    pub fn recorder(self) -> bool {
        self != Workload::SiteManual
    }

    /// The input shape every run of the workload has. The seed picks
    /// the scenario, but the properties that dominate a run's cost are
    /// stated by the workload rather than left to the seed:
    ///
    /// * log fills: one `DiskFill` writes about 0.9 GB of log lines and
    ///   costs ~0.7 s, and a year holds 0 to 4 of them;
    /// * jobs: the analyst tape sets how many trace events, and so how
    ///   many bytes of evidence, a recorded run leaves;
    /// * incidents: a year's ledger is its evidence, and endogenous
    ///   database crashes make its length vary from 96 to 143;
    /// * faults: two quiet days hold one fault, so that the evidence
    ///   store always has an incident segment. Without one, most
    ///   queries of the mix skip it and run four times faster, and a
    ///   quiet run has one only when a database happens to crash.
    ///
    /// Each band is the middle of the seed distribution: the tape's mean
    /// number of log fills, and about the middle third of job counts
    /// and of incident counts (measured over 400 tapes and 14 years).
    fn shape(self) -> Shape {
        match self {
            Workload::SiteAgents => Shape {
                faults: Some(1),
                disk_fills: 0,
                jobs: Some(518..=538),
                incidents: None,
            },
            Workload::SiteManual => Shape {
                faults: None,
                disk_fills: 2,
                jobs: None,
                incidents: Some(112..=124),
            },
            Workload::Evidence => Shape {
                faults: Some(7),
                disk_fills: 0,
                jobs: Some(342..=356),
                incidents: None,
            },
        }
    }

    /// Whether scenario seed `seed` has the workload's input shape, as
    /// far as the tapes alone decide it.
    fn accepts(self, seed: u64) -> bool {
        let cfg = self.config(seed, self.modes()[0]);
        let faults = FaultInjector::new(cfg.fault_rates, SimRng::stream(seed, "faults"))
            .generate_tape(cfg.horizon);
        let jobs = self.shape().jobs.map(|_| {
            WorkloadGenerator::new(cfg.workload.clone(), SimRng::stream(seed, "workload"))
                .generate_tape(cfg.horizon)
                .len()
        });
        self.tapes_hold(&faults, jobs.unwrap_or(0))
    }

    /// Whether a fault tape and an analyst-tape length have the
    /// workload's shape.
    pub fn tapes_hold(self, faults: &[FaultEvent], jobs: usize) -> bool {
        let shape = self.shape();
        let fills: Vec<u64> = faults
            .iter()
            .filter(|f| f.mechanism == FaultMechanism::DiskFill)
            .map(|f| f.at.as_secs())
            .collect();
        shape.faults.is_none_or(|n| n == faults.len())
            && fills.len() == shape.disk_fills
            && fills.windows(2).all(|w| w[1] - w[0] >= FILL_SPACING_SECS)
            && shape.jobs.is_none_or(|band| band.contains(&jobs))
    }

    /// Scenario seeds whose tapes have the workload's shape, in a
    /// sequence that starts at `seed` itself.
    pub fn candidates(self, seed: u64) -> impl Iterator<Item = u64> {
        (0u64..)
            .map(move |k| {
                if k == 0 {
                    seed
                } else {
                    splitmix(seed ^ splitmix(k))
                }
            })
            .filter(move |&candidate| self.accepts(candidate))
    }

    /// The scenario seed of a run: the first candidate whose ledger also
    /// has the workload's incident count. Where that takes a simulation,
    /// the accepted one is returned for reuse.
    pub fn select(self, seed: u64) -> Result<(u64, Option<Sim>), String> {
        let Some(band) = self.shape().incidents else {
            let first = self.candidates(seed).next().ok_or("no candidate seed")?;
            return Ok((first, None));
        };
        for candidate in self.candidates(seed) {
            let sim = simulate(self, candidate, false)?;
            let incidents: usize = sim
                .worlds
                .iter()
                .map(|w| w.ledger.incidents().count())
                .sum();
            if band.contains(&incidents) {
                return Ok((candidate, Some(sim)));
            }
            println!("scenario seed {candidate}: {incidents} incidents, outside {band:?}");
        }
        Err("no candidate seed".into())
    }

    /// Whether finished worlds have the workload's shape.
    pub fn shape_holds(self, sim: &Sim) -> bool {
        let incidents: usize = sim
            .worlds
            .iter()
            .map(|w| w.ledger.incidents().count())
            .sum();
        let band = self.shape().incidents;
        sim.worlds
            .iter()
            .all(|w| self.tapes_hold(w.fault_tape(), w.workload_tape().len()))
            && band.is_none_or(|b| b.contains(&incidents))
    }
}

/// The stated input properties of a workload (see [`Workload::shape`]).
struct Shape {
    /// Exogenous faults on the tape, if fixed.
    faults: Option<usize>,
    /// `DiskFill` faults on the tape, at least a week apart.
    disk_fills: usize,
    /// Analyst jobs on the workload tape, if banded.
    jobs: Option<RangeInclusive<usize>>,
    /// Incidents in the finished ledger, if banded.
    incidents: Option<RangeInclusive<usize>>,
}

/// SplitMix64 finaliser: spreads consecutive integers over the seed space.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Failed and attempted operations of one run; every check is one
/// operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Record one operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// Simulated seconds of one timed slice of a run.
const SLICE_SECS: u64 = 3_600;

/// The finished worlds of one repetition and what building and running
/// them cost.
pub struct Sim {
    /// Scenario seed.
    pub seed: u64,
    /// One finished world per mode, in [`Workload::modes`] order.
    pub worlds: Vec<World>,
    /// Host seconds in `World::try_build`, summed over the worlds.
    pub setup_s: f64,
    /// Host seconds of each simulated hour, per world; the last slice of
    /// a world runs to its horizon with `run_to_end`.
    pub slices: Vec<Vec<f64>>,
}

impl Sim {
    /// Host seconds simulating the horizon, summed over the worlds.
    pub fn run_s(&self) -> f64 {
        self.slices.iter().flatten().sum()
    }

    /// Host seconds of simulated day `day` (1-based), summed over the
    /// worlds; 0 past a horizon.
    pub fn day_s(&self, day: usize) -> f64 {
        let per_day = (86_400 / SLICE_SECS) as usize;
        self.slices
            .iter()
            .flat_map(|s| s.iter().skip((day - 1) * per_day).take(per_day))
            .sum()
    }
}

/// Build and run the workload's worlds at scenario seed `seed`, one
/// simulated hour at a time, with the program's profiler on when
/// `profile` is set. Slicing replays the same events in the same order
/// as one `run_to_end`; the digest check holds it to that.
pub fn simulate(w: Workload, seed: u64, profile: bool) -> Result<Sim, String> {
    let mut sim = Sim {
        seed,
        worlds: Vec::new(),
        setup_s: 0.0,
        slices: Vec::new(),
    };
    for &mode in w.modes() {
        let (built, secs) = timed(|| World::try_build(w.config(seed, mode)));
        sim.setup_s += secs;
        let mut world = built.map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
        if w.recorder() {
            world = world.enable_trace();
        }
        if profile {
            world = world.enable_profile();
        }
        let horizon = world.cfg.horizon.as_secs();
        let mut slices = Vec::new();
        let mut at = SLICE_SECS;
        while at < horizon {
            let ((), secs) = timed(|| world.run_until(SimTime::from_secs(at)));
            slices.push(secs);
            at += SLICE_SECS;
        }
        let (_, secs) = timed(|| world.run_to_end());
        slices.push(secs);
        sim.slices.push(slices);
        sim.worlds.push(world);
    }
    Ok(sim)
}

/// Time `World::try_build` alone for every mode of the workload.
pub fn setup_only(w: Workload, seed: u64) -> Result<f64, String> {
    let mut total = 0.0;
    for &mode in w.modes() {
        let (built, secs) = timed(|| World::try_build(w.config(seed, mode)));
        built.map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
        total += secs;
    }
    Ok(total)
}

/// Digest of the program's outputs: every world's ledger JSON and
/// scenario report, in mode order.
pub fn digest(sim: &Sim) -> Digest {
    let mut d = Digest::default();
    for world in &sim.worlds {
        d.update(world.ledger.to_json().as_bytes());
        let report = world.report(SimTime::ZERO + world.cfg.horizon);
        d.update(format!("{report:?}").as_bytes());
    }
    d
}

/// The end-of-run invariants of one world: the lifecycle automaton
/// holds, nothing leaked at the horizon, and the failure-class columns
/// of the ledger and the SLO report close.
pub fn check_world(world: &World, checks: &mut Checks) {
    let tag = format!("seed {} {:?}", world.cfg.seed, world.cfg.mode);
    let violations = world.ledger.lifecycle_violations();
    checks.check(violations.is_empty(), || {
        format!("{tag}: lifecycle violations {violations:?}")
    });

    let horizon = world.cfg.horizon.as_secs();
    let leaked: Vec<String> = world
        .ledger
        .open_incidents()
        .iter()
        .filter(|i| i.onset.as_secs() + LEAK_GRACE_SECS < horizon)
        .map(|i| i.id.to_string())
        .collect();
    checks.check(leaked.is_empty(), || {
        format!("{tag}: incidents leaked at the horizon: {leaked:?}")
    });

    let scopes = [SloScope::Service, SloScope::Client, SloScope::Abort];
    let all = world.ledger.totals_scoped(SloScope::All);
    let by_class: Vec<_> = scopes
        .iter()
        .map(|&s| world.ledger.totals_scoped(s))
        .collect();
    let ledger_closes = all.iter().all(|(cat, t)| {
        let parts: u64 = by_class
            .iter()
            .map(|m| m.get(cat).map_or(0, |t| t.incidents))
            .sum();
        parts == t.incidents
    });
    let report = world.slo.report(world.cfg.horizon);
    let parts: u64 = scopes.iter().map(|&s| report.scope_downtime_secs(s)).sum();
    let slo_closes = parts == report.scope_downtime_secs(SloScope::All);
    checks.check(ledger_closes && slo_closes, || {
        format!("{tag}: scope columns do not close (ledger {ledger_closes}, slo {slo_closes})")
    });
}

/// What exporting the finished worlds cost and produced.
#[derive(Debug, Default)]
pub struct Export {
    /// Host seconds in `run_export_json`, the SLO report and its JSON,
    /// and `jsonv::parse` of both documents, summed over the worlds.
    pub export_s: f64,
    /// Nanoseconds of the SLO report and its JSON alone.
    pub slo_ns: u64,
    /// Nanoseconds of `jsonv::parse` alone.
    pub parse_ns: u64,
    /// Bytes validated by `jsonv::parse`.
    pub bytes: u64,
}

/// One world's evidence documents and what validating them found.
struct Documents {
    run_doc: String,
    slo_doc: String,
    slo_ns: u64,
    parse_ns: u64,
    errors: [Option<String>; 2],
}

/// Build and validate one world's evidence, as `write_evidence_json`
/// does before a file lands.
fn documents(world: &World) -> Documents {
    let mode = format!("{:?}", world.cfg.mode);
    let run_doc = run_export_json(world);
    let (slo_doc, slo_ns) = timed_ns(|| {
        world
            .slo
            .report(world.cfg.horizon)
            .to_json_with_run(world.cfg.seed, &mode)
    });
    let (errors, parse_ns) =
        timed_ns(|| [jsonv::parse(&run_doc).err(), jsonv::parse(&slo_doc).err()]);
    Documents {
        run_doc,
        slo_doc,
        slo_ns,
        parse_ns,
        errors,
    }
}

/// Times each evidence stage (export, ingest) runs per repetition; the
/// stage reports its fastest.
const STAGE_REPEATS: usize = 2;

/// Export every world's evidence the way `write_evidence_json` does
/// (build the documents, validate them with `jsonv`), then write them
/// under `evidence_dir`. Only building and validating are timed, and
/// [`Export::export_s`] is the fastest of [`STAGE_REPEATS`] calls.
pub fn export(
    w: Workload,
    sim: &Sim,
    evidence_dir: &Path,
    checks: &mut Checks,
) -> Result<Export, String> {
    let mut out = Export::default();
    let (docs, secs) = timed(|| sim.worlds.iter().map(documents).collect::<Vec<_>>());
    out.export_s = secs;
    for _ in 1..STAGE_REPEATS {
        let (_, secs) = timed(|| sim.worlds.iter().map(documents).count());
        out.export_s = out.export_s.min(secs);
    }
    for (world, doc) in sim.worlds.iter().zip(&docs) {
        let mode = format!("{:?}", world.cfg.mode);
        out.slo_ns += doc.slo_ns;
        out.parse_ns += doc.parse_ns;
        out.bytes += (doc.run_doc.len() + doc.slo_doc.len()) as u64;
        for err in &doc.errors {
            checks.check(err.is_none(), || {
                format!("seed {} {mode}: evidence fails jsonv: {err:?}", sim.seed)
            });
        }
        let stem = format!("{}_{}", w.name(), mode.to_lowercase());
        write(&evidence_dir.join(format!("{stem}.json")), &doc.run_doc)?;
        write(&evidence_dir.join(format!("{stem}_slo.json")), &doc.slo_doc)?;
    }
    Ok(out)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Build the evidence store over `evidence_dir` [`STAGE_REPEATS`]
/// times, returning the report and the fastest build's host seconds.
pub fn ingest(evidence_dir: &Path, store_dir: &Path) -> Result<(IngestReport, f64), String> {
    let (report, mut fastest) = timed(|| Store::build(evidence_dir, store_dir));
    for _ in 1..STAGE_REPEATS {
        let (again, secs) = timed(|| Store::build(evidence_dir, store_dir));
        again?;
        fastest = fastest.min(secs);
    }
    Ok((report?, fastest))
}

/// The index each query of the mix exercises.
pub const QUERY_INDEXES: [&str; 5] = ["corr", "service", "subsystem", "window", "class"];

/// The fixed query mix: every secondary index of the store, with keys
/// that exist in every workload's evidence and keys that do not.
pub fn query_mix(horizon_days: u64) -> Vec<(&'static str, Query)> {
    let mut mix = Vec::new();
    for corr in 0..8 {
        mix.push((
            "corr",
            Query {
                corr: Some(corr),
                ..Query::default()
            },
        ));
    }
    for service in [
        "dns-1",
        "lsf-master",
        "network",
        "mktdata-1",
        "trades-db-000",
        "trades-db-001",
    ] {
        let q = Query {
            service: Some(service.to_string()),
            ..Query::default()
        };
        mix.push(("service", q));
    }
    for sub in Subsystem::ALL {
        let q = Query {
            subsystem: Some(sub.tag().to_string()),
            ..Query::default()
        };
        mix.push(("subsystem", q));
    }
    for day in 0..horizon_days.min(7) {
        let window = Some((day * 86_400, (day + 1) * 86_400 - 1));
        mix.push((
            "window",
            Query {
                window,
                ..Query::default()
            },
        ));
    }
    for class in FailureClass::ALL {
        let q = Query {
            class: Some(class.label().to_string()),
            ..Query::default()
        };
        mix.push(("class", q));
    }
    for actionable in [true, false] {
        mix.push((
            "class",
            Query {
                actionable: Some(actionable),
                ..Query::default()
            },
        ));
    }
    mix
}

/// One indexed query's answer and cost.
pub struct Answer {
    /// Index the query exercises.
    pub index: &'static str,
    /// Milliseconds in `Store::open` plus `Store::query`: what one
    /// `evdb query` invocation pays past process start.
    pub ms: f64,
    /// Rows the store loaded from segments.
    pub rows_loaded: u64,
    /// Rows that matched.
    pub rows_matched: u64,
}

/// Run the query mix `rounds` times against the store at `store_dir`
/// from one closed-loop client, each query opening the store as the
/// `evdb query` command does. With `checks`, each distinct query is
/// checked once against the reference scan semantics over
/// `evidence_dir`.
pub fn query(
    store_dir: &Path,
    evidence_dir: &Path,
    mix: &[(&'static str, Query)],
    rounds: usize,
    mut checks: Option<&mut Checks>,
) -> Result<Vec<Answer>, String> {
    let reference = match checks {
        Some(_) => extract_dir(evidence_dir)?.records,
        None => Vec::new(),
    };
    let mut answers = Vec::with_capacity(mix.len() * rounds);
    for round in 0..rounds {
        for (index, q) in mix {
            let (result, ns) = timed_ns(|| Store::open(store_dir)?.query(q));
            let (rows, stats) = result?;
            if let (0, Some(checks)) = (round, checks.as_deref_mut()) {
                let expected = scan_reference(&reference, q);
                checks.check(rows == expected, || {
                    format!("indexed answer differs from the scan for {q:?}")
                });
            }
            answers.push(Answer {
                index,
                ms: ns as f64 / 1e6,
                rows_loaded: stats.rows_loaded,
                rows_matched: stats.rows_matched,
            });
        }
    }
    Ok(answers)
}

/// The linear scan's answer over already-extracted records: the same
/// predicate and the same canonical order `scan_query` applies, without
/// re-reading the evidence once per query.
pub fn scan_reference(records: &[Rec], q: &Query) -> Vec<Rec> {
    let mut out: Vec<Rec> = records.iter().filter(|r| q.matches(r)).cloned().collect();
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// A scratch directory for one run's evidence and store, under the
/// build directory (`CARGO_TARGET_DIR`, else `target`) of the checkout.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Create an empty work directory for workload `w`.
    pub fn create(w: Workload) -> Result<WorkDir, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let root = base
            .join("qosbench-work")
            .join(format!("{}-{}", w.name(), std::process::id()));
        let dir = WorkDir { root };
        dir.reset()?;
        Ok(dir)
    }

    /// Empty the evidence and store directories.
    pub fn reset(&self) -> Result<(), String> {
        if self.root.exists() {
            std::fs::remove_dir_all(&self.root)
                .map_err(|e| format!("clear {}: {e}", self.root.display()))?;
        }
        std::fs::create_dir_all(self.evidence())
            .map_err(|e| format!("create {}: {e}", self.root.display()))
    }

    /// Where evidence documents land.
    pub fn evidence(&self) -> PathBuf {
        self.root.join("evidence")
    }

    /// Where the evidence store is built.
    pub fn store(&self) -> PathBuf {
        self.root.join("store")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is gitignored build output.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
