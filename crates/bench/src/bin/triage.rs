//! TRIAGE — run a paired (manual vs intelliagents) scenario with the
//! structured trace and profiler enabled, verify the observability
//! invariants, and export the incident ledger + trace + profile of both
//! runs as JSON.
//!
//! This is the tool behind `scripts/triage.sh`: when a paired experiment
//! looks wrong, it answers the first questions — did the exogenous
//! tapes diverge (and where), did a *replay* of the same configuration
//! diverge mid-run (a handler-level determinism regression), did any
//! incident violate its injected → detected → diagnosed →
//! repaired/escalated lifecycle, what did each subsystem actually do,
//! and where did the run spend its wall-clock time.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin triage [--seed N] [--days N] [--scope all|service|client]
//! cargo run --release -p intelliqos-bench --bin triage -- --incident N [--seed N] [--days N]
//! cargo run --release -p intelliqos-bench --bin triage -- --incident N --evdb results/evdb
//! cargo run --release -p intelliqos-bench --bin triage -- --incident N --evidence results/evidence
//! ```
//!
//! `--scope` selects which failure classes burn the SLO error budget
//! (default `service`: only actionable service faults). The SLO
//! observatory section reports both the configured burn scope and the
//! scoped vs all-class downtime split, so a noisy client workload can
//! be separated from real service faults at a glance.
//!
//! With `--incident N` the tool instead renders the complete causal
//! timeline of one incident — every trace event carrying that incident's
//! correlation id (inject → pipeline/diagnose → heal/restore/escalate),
//! in both the manual and the agents run, next to the ledger lifecycle.
//!
//! With `--evdb DIR` (indexed evidence store) or `--evidence DIR`
//! (linear reference scan) the incident timeline is answered from
//! previously exported evidence instead of re-running the simulation.
//! Both backends print byte-identical timelines for the same evidence —
//! stats and warnings go to stderr only — which CI verifies with `diff`.
//!
//! Exit status: 0 when every invariant holds and both ledgers are
//! lifecycle-clean; 1 otherwise. JSON lands in `target/triage/`.

use std::path::Path;

use intelliqos_bench::{banner, HarnessOpts};
use intelliqos_core::divergence::{first_divergence, first_trace_divergence};
use intelliqos_core::slo::SloScope;
use intelliqos_core::{
    run_export_json, IncidentId, ManagementMode, ProfileReport, ScenarioConfig, World,
};
use intelliqos_evdb::{render_corr_timelines, scan_query, Query, Rec, Store};
use intelliqos_simkern::{SimDuration, Subsystem};

fn run_instrumented(seed: u64, days: u64, scope: SloScope, mode: ManagementMode) -> World {
    let mut cfg = ScenarioConfig::small(seed, mode);
    cfg.horizon = SimDuration::from_days(days);
    cfg.slo.burn_scope = scope;
    let mut world = World::build(cfg).enable_trace().enable_profile();
    world.run_to_end();
    world
}

/// Render every trace event correlated to `id`, in causal order, next
/// to the ledger's lifecycle record. Returns false when the incident is
/// unknown to this world.
fn render_incident(world: &World, name: &str, id: IncidentId) -> bool {
    let Some(rec) = world.ledger.get(id) else {
        println!("{name}: no incident {id}");
        return false;
    };
    println!("--- {name}: incident {id} ---");
    println!(
        "category={:?} service={} {:?}",
        rec.category, rec.service, rec.description
    );
    // Plain seconds for grep-ability.
    let stamp = |t: Option<intelliqos_simkern::SimTime>| -> String {
        t.map(|t| t.as_secs().to_string())
            .unwrap_or_else(|| "-".into())
    };
    println!(
        "ledger: onset={} detected={} diagnosed={} restored={} escalated={} \
         class={} actionable={}",
        rec.onset.as_secs(),
        stamp(rec.detected),
        stamp(rec.diagnosed),
        stamp(rec.restored),
        rec.escalated,
        rec.failure_class(),
        rec.is_actionable()
    );
    for a in &rec.attempts {
        println!(
            "attempt: at={} actor={:?} action={} resolved={}",
            a.at.as_secs(),
            a.actor,
            a.action,
            a.resolved
        );
    }
    let mut events: Vec<_> = world
        .trace
        .events()
        .into_iter()
        .filter(|e| e.corr == Some(id.0))
        .collect();
    events.sort_by_key(|e| (e.at, e.seq));
    if events.is_empty() {
        println!("timeline: no correlated trace events retained");
    } else {
        println!("timeline ({} event(s)):", events.len());
        for e in events {
            println!("  {}", e.render());
        }
    }
    println!();
    true
}

/// Answer `--incident N` from exported evidence: the indexed store
/// (`--evdb DIR`) or the linear reference scan (`--evidence DIR`).
///
/// Only the timeline goes to stdout — stats and warnings are stderr —
/// so the two backends are byte-comparable with `diff`. Returns the
/// process exit code: 0 incident found, 1 not found, 2 backend error.
fn evidence_incident(id: u64, evdb_dir: Option<&str>, evidence_dir: Option<&str>) -> i32 {
    let q = Query {
        corr: Some(id),
        ..Query::default()
    };
    let recs = match (evdb_dir, evidence_dir) {
        (Some(dir), _) => {
            let store = match Store::open(Path::new(dir)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("triage: {e}");
                    return 2;
                }
            };
            match store.query(&q) {
                Ok((recs, stats)) => {
                    eprintln!(
                        "triage: evdb: {} index file(s), {} segment(s), {} row(s) loaded, \
                         {} matched, {} source file(s) re-read",
                        stats.index_files_read,
                        stats.segments_read,
                        stats.rows_loaded,
                        stats.rows_matched,
                        stats.source_files_read
                    );
                    recs
                }
                Err(e) => {
                    eprintln!("triage: {e}");
                    return 2;
                }
            }
        }
        (None, Some(dir)) => match scan_query(Path::new(dir), &q) {
            Ok((recs, stats, warnings)) => {
                for w in &warnings {
                    eprintln!("triage: warning: {w}");
                }
                eprintln!(
                    "triage: scan: {} source file(s), {} row(s) matched",
                    stats.source_files_read, stats.rows_matched
                );
                recs
            }
            Err(e) => {
                eprintln!("triage: {e}");
                return 2;
            }
        },
        (None, None) => unreachable!("caller checks one backend is set"),
    };
    print!("{}", render_corr_timelines(&recs, id));
    let found = recs
        .iter()
        .any(|r| matches!(r, Rec::Incident(inc) if inc.id == id));
    i32::from(!found)
}

fn main() {
    let opts = HarnessOpts::parse(14, &["--incident", "--evidence"]);
    let args: Vec<String> = std::env::args().collect();
    let incident: Option<u64> = args
        .iter()
        .position(|a| a == "--incident")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let evdb_dir = flag_value("--evdb");
    let evidence_dir = flag_value("--evidence");

    if evdb_dir.is_some() || evidence_dir.is_some() {
        let Some(id) = incident else {
            eprintln!("triage: --evdb/--evidence require --incident N");
            std::process::exit(2);
        };
        std::process::exit(evidence_incident(
            id,
            evdb_dir.as_deref(),
            evidence_dir.as_deref(),
        ));
    }

    if let Some(id) = incident {
        let id = IncidentId(id);
        banner("TRIAGE", "incident-correlated causal timeline");
        println!("seed={} horizon={}d incident={id}\n", opts.seed, opts.days);
        let (manual, agents): (World, World) = std::thread::scope(|s| {
            let m = s.spawn(|| {
                run_instrumented(opts.seed, opts.days, opts.scope, ManagementMode::ManualOps)
            });
            let a = s.spawn(|| {
                run_instrumented(
                    opts.seed,
                    opts.days,
                    opts.scope,
                    ManagementMode::Intelliagents,
                )
            });
            // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
            (m.join().expect("manual run"), a.join().expect("agent run"))
        });
        let mut found = false;
        for (name, world) in [("manual", &manual), ("agents", &agents)] {
            found |= render_incident(world, name, id);
            println!("{}", world.slo.report(world.cfg.horizon).render_summary());
        }
        if !found {
            std::process::exit(1);
        }
        return;
    }

    banner(
        "TRIAGE",
        "paired-run divergence + replay determinism + ledger lifecycle + profile",
    );
    println!("seed={} horizon={}d\n", opts.seed, opts.days);

    let (manual, agents, replay): (World, World, World) = std::thread::scope(|s| {
        let m = s.spawn(|| {
            run_instrumented(opts.seed, opts.days, opts.scope, ManagementMode::ManualOps)
        });
        let a = s.spawn(|| {
            run_instrumented(
                opts.seed,
                opts.days,
                opts.scope,
                ManagementMode::Intelliagents,
            )
        });
        let r = s.spawn(|| {
            run_instrumented(
                opts.seed,
                opts.days,
                opts.scope,
                ManagementMode::Intelliagents,
            )
        });
        (
            // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
            m.join().expect("manual run"),
            a.join().expect("agent run"), // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
            r.join().expect("replay run"), // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
        )
    });

    let mut ok = true;

    println!("--- paired-run invariant ---");
    match first_divergence(&manual, &agents) {
        None => println!("no divergence: fault and workload tapes are identical"),
        Some(d) => {
            ok = false;
            println!("DIVERGENCE at {d}");
        }
    }

    println!("\n--- replay determinism (agents run twice, same config) ---");
    match first_trace_divergence(&agents, &replay) {
        None => println!("no divergence: fault+workload handler streams replay identically"),
        Some(d) => {
            ok = false;
            println!("TRACE DIVERGENCE:\n{d}");
        }
    }

    println!("\n--- incident-ledger lifecycle ---");
    for (name, world) in [("manual", &manual), ("agents", &agents)] {
        let violations = world.ledger.lifecycle_violations();
        let closed = world.ledger.incidents().count() - world.ledger.open_incidents().len();
        println!(
            "{name}: {} incidents ({closed} closed, {} open), {} lifecycle violations",
            world.ledger.incidents().count(),
            world.ledger.open_incidents().len(),
            violations.len()
        );
        for v in &violations {
            ok = false;
            println!("  VIOLATION {v}");
        }
    }

    println!("\n--- slo observatory (burn scope {}) ---", opts.scope);
    for (name, world) in [("manual", &manual), ("agents", &agents)] {
        let report = world.slo.report(world.cfg.horizon);
        println!("{name}: {}", report.render_summary());
        println!(
            "{name}: scope {}: downtime {}s of {}s all-class, availability {:.5}",
            opts.scope,
            report.scope_downtime_secs(opts.scope),
            report.scope_downtime_secs(SloScope::All),
            report.fleet_availability_scoped(opts.scope)
        );
    }

    println!("\n--- trace counters (events by subsystem) ---");
    println!("{:<10} {:>10} {:>10}", "subsystem", "manual", "agents");
    for sub in Subsystem::ALL {
        println!(
            "{:<10} {:>10} {:>10}",
            sub.tag(),
            manual.trace.count(sub),
            agents.trace.count(sub)
        );
    }
    println!(
        "{:<10} {:>10} {:>10}  (evicted: {} / {})",
        "total",
        manual.trace.total(),
        agents.trace.total(),
        manual.trace.evicted(),
        agents.trace.evicted()
    );

    for (name, world) in [("manual", &manual), ("agents", &agents)] {
        println!("\n--- profile: {name} ---");
        print!("{}", ProfileReport::from_world(world).render_table());
    }

    let out_dir = Path::new("target/triage");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    for (name, world) in [("manual", &manual), ("agents", &agents)] {
        let path = out_dir.join(format!("{name}.json"));
        let json = run_export_json(world);
        if let Err(e) = intelliqos_core::jsonv::parse(&json) {
            ok = false;
            eprintln!("{name} export is not valid JSON: {e}");
            continue;
        }
        match std::fs::write(&path, json) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => {
                ok = false;
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    }

    if !ok {
        std::process::exit(1);
    }
}
