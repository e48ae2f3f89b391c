//! The traced run: per-layer metrics for one workload.
//!
//! The world runs with the program's own profiler on
//! (`World::enable_profile`), in one-hour slices, and the benchmark times
//! public calls into each layer around it: agent runs and flag
//! maintenance on clones of every end-state host, the admin flag check,
//! evidence extraction, and the reference scan. Spans stay in memory
//! and are reported once at the end.

use std::collections::BTreeMap;

use intelliqos_core::agents::{
    run_hardware_agent, run_os_resource_agents, run_service_agent, AgentKind,
};
use intelliqos_core::flags::{agent_dir, clear_flags};
use intelliqos_core::status::run_status_agent;
use intelliqos_core::{NotificationBus, WorldEvent};
use intelliqos_evdb::{extract_dir, scan_query};
use intelliqos_simkern::{MetricsRegistry, Profiler, SimDuration, SimRng};

use crate::metrics::{Values, SWEEPS};
use crate::stats::{fastest_units, median, timed_ns};
use crate::workload::{
    check_world, digest, export, ingest, query, query_mix, scan_reference, simulate, Checks, Sim,
    WorkDir, Workload, AGENT_DAYS, QUERY_INDEXES,
};

/// Figure 2's year-1 total downtime, hours.
const PAPER_YEAR1_HOURS: f64 = 550.0;

/// Rounds of the query mix in the traced run.
const TRACED_QUERY_ROUNDS: usize = 20;

/// Untraced/traced run pairs behind `simkern.trace_overhead_s`.
const OVERHEAD_PAIRS: usize = 2;

/// Run the traced measurement of `w` at the run's scenario seed.
pub fn run(w: Workload, seed: u64, checks: &mut Checks) -> Result<Values, String> {
    let (seed, _) = w.select(seed)?;
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    // Untraced and traced runs alternate; the overhead compares the sums
    // of each hour's fastest run, as the untraced run reports `run_s`.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        let p = simulate(w, seed, false)?;
        let t = simulate(w, seed, true)?;
        let (pd, td) = (digest(&p), digest(&t));
        println!("digest untraced {:016x} traced {:016x}", pd.0, td.0);
        checks.check(pd == td, || {
            format!("seed {seed}: traced run diverged from the untraced run")
        });
        plain.push(p.slices.concat());
        traced.push(t.slices.concat());
        last = Some(t);
    }
    let sim = last.ok_or("no traced run")?;
    for world in &sim.worlds {
        check_world(world, checks);
    }
    let sum = |reps: &[Vec<f64>]| fastest_units(reps).iter().sum::<f64>();
    put("simkern.trace_overhead_s", sum(&traced) - sum(&plain));
    for day in 1..=AGENT_DAYS {
        put(&format!("core.world.day_s.{day}"), sim.day_s(day as usize));
    }
    let days = w
        .config(seed, w.modes()[0])
        .horizon
        .as_secs()
        .div_ceil(86_400);
    let curve: Vec<String> = (1..=days.min(8))
        .map(|d| format!("{:.3}", sim.day_s(d as usize)))
        .collect();
    println!(
        "host seconds per simulated day (first 8): {}",
        curve.join(" ")
    );

    kernel_and_profile(&sim, &mut put);
    host_calls(&sim, &mut put);
    ledger(w, &sim, &mut put);

    // Evidence: export, ingest, query, scan.
    let work = WorkDir::create(w)?;
    let ex = export(w, &sim, &work.evidence(), checks)?;
    put("core.slo.report_ns", ex.slo_ns as f64);
    put("core.jsonv.parse_ns", ex.parse_ns as f64);
    put("core.jsonv.bytes", ex.bytes as f64);
    let (extracted, extract_ns) = timed_ns(|| extract_dir(&work.evidence()));
    let records = extracted?.records;
    put("evdb.extract_ns", extract_ns as f64);
    let (report, _) = ingest(&work.evidence(), &work.store())?;
    put("evdb.records", report.records as f64);
    put("evdb.segments", report.segments as f64);

    let mix = query_mix(w.config(seed, w.modes()[0]).horizon.as_secs() / 86_400);
    let answers = query(
        &work.store(),
        &work.evidence(),
        &mix,
        TRACED_QUERY_ROUNDS,
        Some(checks),
    )?;
    let mut by_index: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for a in &answers {
        by_index.entry(a.index).or_default().push(a.ms * 1e6);
    }
    for index in QUERY_INDEXES {
        let ns = by_index.get(index).map_or(0.0, |xs| median(xs));
        put(&format!("evdb.query_ns.{index}"), ns);
    }
    let loaded: u64 = answers.iter().map(|a| a.rows_loaded).sum();
    let matched: u64 = answers.iter().map(|a| a.rows_matched).sum();
    put("evdb.rows_loaded_ratio", ratio(matched, loaded));
    println!("evdb: rows matched/loaded {matched}/{loaded}");

    // The reference scan, once per index: it re-reads the evidence on
    // every call, so its cost is what the indexes save.
    let mut scan_ns = Vec::new();
    for index in QUERY_INDEXES {
        let Some((_, q)) = mix.iter().find(|(i, _)| *i == index) else {
            continue;
        };
        let (result, ns) = timed_ns(|| scan_query(&work.evidence(), q));
        let (rows, _, _) = result?;
        checks.check(rows == scan_reference(&records, q), || {
            format!("scan_query differs from the reference scan for {q:?}")
        });
        scan_ns.push(ns as f64);
    }
    put("evdb.scan_ns", median(&scan_ns));
    Ok(v)
}

/// Kernel dispatch and the program's own profiler spans, merged over
/// the workload's worlds.
fn kernel_and_profile(sim: &Sim, put: &mut impl FnMut(&str, f64)) {
    let mut prof = Profiler::enabled();
    let mut counters = MetricsRegistry::enabled();
    for world in &sim.worlds {
        prof.merge(&world.profiler);
        counters.merge(&world.metrics);
    }
    for kind in WorldEvent::KINDS {
        let s = prof.span(kind).map(|h| h.summary()).unwrap_or_default();
        put(
            &format!("simkern.dispatch.{kind}.n"),
            counters.counter(kind) as f64,
        );
        put(&format!("simkern.dispatch_ns.{kind}.p50"), s.p50 as f64);
        put(&format!("simkern.dispatch_ns.{kind}.p99"), s.p99 as f64);
        put(&format!("simkern.dispatch_ns.{kind}.total"), s.sum as f64);
    }
    let inject = prof
        .span("inject-fault")
        .map(|h| h.summary())
        .unwrap_or_default();
    put("cluster.faults.inject_ns.p99", inject.p99 as f64);
    put("cluster.faults.inject_ns.max", inject.max as f64);
    put(
        "simkern.events",
        counters.counter("events.processed") as f64,
    );
    let trace_events: u64 = sim.worlds.iter().map(|w| w.trace.total()).sum();
    let trace_dropped: u64 = sim.worlds.iter().map(|w| w.trace.dropped()).sum();
    put("simkern.trace_events", trace_events as f64);
    put("simkern.trace_dropped", trace_dropped as f64);
    for sweep in SWEEPS {
        let total = prof.total_ns(&format!("sweep.{sweep}"));
        put(&format!("core.agents.sweep_ns.{sweep}"), total as f64);
    }
    put(
        "core.admin.dgspl_generate_ns",
        prof.total_ns("dgspl.generate") as f64,
    );
    put(
        "telemetry.perf_sweep_ns",
        prof.total_ns("sweep.performance") as f64,
    );
    put("lsf.dispatch_ns", prof.total_ns("lsf.dispatch") as f64);
    put("lsf.dispatched", counters.counter("lsf.dispatched") as f64);
}

/// Benchmark-timed calls on a clone of every end-state host of the
/// last world (the agents' world where the workload has one): the
/// median nanoseconds per host of each agent run, of listing and of
/// clearing one agent's flags, plus the admin flag check.
fn host_calls(sim: &Sim, put: &mut impl FnMut(&str, f64)) {
    let Some(world) = sim.worlds.last() else {
        return;
    };
    let now = world.now();
    let parts = world.cfg.agent_parts;
    let mut bus = NotificationBus::default();
    let mut rng = SimRng::stream(world.cfg.seed, "qosbench-probe");
    let service_dir = agent_dir(AgentKind::Service.name());
    let mut expected: BTreeMap<_, Vec<String>> = BTreeMap::new();
    for svc in world.registry.iter() {
        let names = expected.entry(svc.server).or_default();
        names.extend(svc.spec.processes.iter().map(|p| p.name.clone()));
    }

    let mut ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut record = |name: &'static str, t: u64| ns.entry(name).or_default().push(t as f64);
    let mut files = Vec::new();
    for (sid, server) in &world.servers {
        files.push(server.fs.list("/").len() as f64);
        if !server.is_up() {
            continue;
        }
        let (_, t) = timed_ns(|| server.fs.list(&service_dir).len());
        record("list", t);
        let mut fs = server.fs.clone();
        let (_, t) = timed_ns(|| clear_flags(&mut fs, AgentKind::Service.name()));
        record("clear_flags", t);

        let mut host = server.clone();
        let mut registry = world.registry.clone();
        let (_, t) = timed_ns(|| {
            run_service_agent(&mut host, &mut registry, parts, &mut bus, &mut rng, now)
        });
        record("service", t);
        let mut host = server.clone();
        let procs = expected.get(sid).map_or(&[][..], Vec::as_slice);
        let (_, t) = timed_ns(|| run_os_resource_agents(&mut host, procs, parts, &mut bus, now));
        record("os-resource", t);
        let mut host = server.clone();
        let (_, t) = timed_ns(|| run_hardware_agent(&mut host, parts, &mut bus, now));
        record("hardware", t);
        let mut host = server.clone();
        let (_, t) = timed_ns(|| run_status_agent(&mut host, &world.registry, &mut rng, now));
        record("status", t);
    }
    let med = |name: &str| ns.get(name).map_or(0.0, |xs| median(xs));
    put("cluster.fs.list_ns", med("list"));
    put("cluster.fs.clear_flags_ns", med("clear_flags"));
    for sweep in SWEEPS {
        put(&format!("core.agents.call_ns.{sweep}"), med(sweep));
    }
    let mean = files.iter().sum::<f64>() / files.len().max(1) as f64;
    put("cluster.fs.files_per_host.mean", mean);
    put(
        "cluster.fs.files_per_host.max",
        files.iter().copied().fold(0.0, f64::max),
    );

    let ids: Vec<_> = world.servers.keys().copied().collect();
    let max_age = world.cfg.admin_period;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (_, t) = timed_ns(|| {
                world
                    .admin
                    .missing_flags(&world.servers, &ids, now, max_age)
            });
            t as f64
        })
        .collect();
    put("core.admin.missing_flags_ns", median(&samples));
}

/// Ledger counts over every world, and the year-1 fidelity figure.
fn ledger(w: Workload, sim: &Sim, put: &mut impl FnMut(&str, f64)) {
    let (mut incidents, mut auto) = (0u64, 0u64);
    for world in &sim.worlds {
        for t in world.ledger.totals().values() {
            incidents += t.incidents;
            auto += t.auto_repaired;
        }
    }
    put("core.ledger.incidents", incidents as f64);
    put("core.ledger.auto_repaired_ratio", ratio(auto, incidents));
    println!("ledger: auto-repaired/incidents {auto}/{incidents}");
    // Only a full ManualOps year is comparable to the paper's year 1.
    let year = SimDuration::from_days(365);
    let err = match (w, sim.worlds.first()) {
        (Workload::SiteManual, Some(world)) if world.cfg.horizon >= year => {
            let hours = world.ledger.total_downtime_hours();
            println!("year-1 downtime {hours:.1} h (paper {PAPER_YEAR1_HOURS} h)");
            (hours - PAPER_YEAR1_HOURS).abs() / PAPER_YEAR1_HOURS * 100.0
        }
        _ => 0.0,
    };
    put("core.ledger.year1_err_pct", err);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
