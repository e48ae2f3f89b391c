//! Observability-layer integration tests: the incident ledger, the
//! structured trace, the paired-run divergence finder, and the JSON run
//! export, all exercised through whole-datacenter scenarios.

use std::path::PathBuf;

use intelliqos::core::divergence::{first_divergence, Stream};
use intelliqos::core::{run_export_json, validate_spill_dir, IncidentId};
use intelliqos::prelude::*;
use intelliqos::simkern::{SpillConfig, Subsystem, TraceOptions};

fn small(seed: u64, mode: ManagementMode) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(seed, mode);
    cfg.horizon = SimDuration::from_days(7);
    cfg
}

fn run_traced(seed: u64, mode: ManagementMode) -> (World, ScenarioReport) {
    let mut world = World::build(small(seed, mode)).enable_trace();
    let report = world.run_to_end();
    (world, report)
}

/// The report's category tables are *derived* from the ledger, so the
/// two can never disagree — asserted here so the wiring stays that way.
#[test]
fn report_totals_equal_ledger_totals() {
    for mode in [ManagementMode::ManualOps, ManagementMode::Intelliagents] {
        let (world, report) = run_traced(11, mode);
        assert_eq!(report.categories, world.ledger.totals());
        let incidents: u64 = world.ledger.totals().values().map(|t| t.incidents).sum();
        assert_eq!(report.incidents, incidents);
        assert!((report.total_downtime_hours - world.ledger.total_downtime_hours()).abs() < 1e-9);
        assert_eq!(report.open_incidents, world.ledger.open_incidents().len());
        assert_eq!(report.downtime_hours, world.ledger.figure2_rows());
    }
}

/// Every ledger record carries the full injected → detected → diagnosed
/// → repaired/escalated lifecycle, in order, with an actor and a repair
/// action on every closed incident.
#[test]
fn every_incident_has_a_complete_ordered_lifecycle() {
    for mode in [ManagementMode::ManualOps, ManagementMode::Intelliagents] {
        let (world, report) = run_traced(23, mode);
        assert!(report.incidents > 0, "scenario must produce incidents");
        let violations = world.ledger.lifecycle_violations();
        assert!(violations.is_empty(), "{mode:?}: {violations:?}");
        for inc in world.ledger.incidents() {
            if inc.restored.is_some() {
                assert!(
                    inc.repaired_by().is_some(),
                    "{}: closed without actor",
                    inc.id
                );
                assert!(
                    inc.repair_action().is_some_and(|a| !a.is_empty()),
                    "{}: closed without action",
                    inc.id
                );
                assert!(
                    !inc.attempts().is_empty(),
                    "{}: closed without an attempt history",
                    inc.id
                );
            }
        }
        // In manual mode, humans get paged for everything and repair
        // everything; nothing closes automatically.
        if mode == ManagementMode::ManualOps {
            for t in world.ledger.totals().values() {
                assert_eq!(t.auto_repaired, 0);
                assert_eq!(t.escalated, t.incidents);
            }
        }
    }
}

/// Every fault on the exogenous tape that fires within the horizon shows
/// up exactly once as a Fault-subsystem `inject` trace event, in tape
/// order — the injection stream is complete and not duplicated.
#[test]
fn trace_records_each_injected_fault_exactly_once() {
    let (world, _report) = run_traced(23, ManagementMode::Intelliagents);
    let horizon = SimTime::ZERO + world.cfg.horizon;
    let expected: Vec<_> = world
        .fault_tape()
        .iter()
        .filter(|f| f.at <= horizon)
        .collect();
    let injects: Vec<_> = world
        .trace
        .events()
        .into_iter()
        .filter(|e| e.subsystem == Subsystem::Fault && e.code == "inject")
        .collect();
    assert_eq!(
        world.trace.evicted(),
        0,
        "ring must not have dropped events"
    );
    assert_eq!(injects.len(), expected.len());
    for (ev, fault) in injects.iter().zip(&expected) {
        assert_eq!(ev.at, fault.at);
        assert!(ev.detail.contains(&format!("{:?}", fault.mechanism)));
    }
    // And the ledger + repair machinery left their own marks.
    assert!(world.trace.count(Subsystem::Fault) >= injects.len() as u64);
    assert!(world.trace.count(Subsystem::Agent) > 0);
    assert!(world.trace.count(Subsystem::Workload) > 0);
    assert!(world.trace.count(Subsystem::Lsf) > 0);
    assert!(world.trace.count(Subsystem::Kernel) >= 2); // run-start + run-end
}

/// The paired-run invariant, checked by the divergence finder itself:
/// same seed, different management mode → identical exogenous streams,
/// even after both worlds have fully run.
#[test]
fn paired_runs_share_identical_tapes() {
    let (manual, _) = run_traced(42, ManagementMode::ManualOps);
    let (agents, _) = run_traced(42, ManagementMode::Intelliagents);
    assert_eq!(first_divergence(&manual, &agents), None);
}

/// Different seeds must diverge, and the finder pinpoints the *first*
/// differing event with both renderings.
#[test]
fn divergence_finder_pinpoints_first_difference() {
    let (a, _) = run_traced(42, ManagementMode::ManualOps);
    let (b, _) = run_traced(43, ManagementMode::ManualOps);
    let d = first_divergence(&a, &b).expect("different seeds diverge");
    assert_ne!(d.left, d.right);
    match d.stream {
        Stream::FaultTape => {
            assert_eq!(a.fault_tape()[..d.index], b.fault_tape()[..d.index]);
            assert_ne!(a.fault_tape().get(d.index), b.fault_tape().get(d.index));
        }
        Stream::WorkloadTape => {
            assert_eq!(a.workload_tape()[..d.index], b.workload_tape()[..d.index]);
        }
    }
}

/// The JSON export carries both layers and matches the live objects.
#[test]
fn json_export_reflects_ledger_and_trace() {
    let (world, report) = run_traced(11, ManagementMode::Intelliagents);
    let json = run_export_json(&world);
    assert!(json.contains("\"seed\": 11"));
    assert!(json.contains("\"mode\": \"Intelliagents\""));
    assert!(json.contains(&format!("\"open_incidents\": {}", report.open_incidents)));
    for (tag, n) in world.trace.counters() {
        assert!(json.contains(&format!("\"{tag}\": {n}")));
    }
    // One incident object per ledger record.
    assert_eq!(
        json.matches("\"category\": ").count(),
        world.ledger.incidents().count()
    );
}

/// Every correlation id on a trace event resolves to a ledger incident
/// (no orphaned ids, no events emitted for an unknown — e.g. already
/// dropped — incident), the correlated story always starts at the
/// injection, and nothing is emitted for an incident after it closed.
#[test]
fn correlation_ids_reference_known_incidents_and_respect_close() {
    for mode in [ManagementMode::ManualOps, ManagementMode::Intelliagents] {
        let (world, _) = run_traced(23, mode);
        let mut correlated = 0usize;
        for ev in world.trace.events() {
            let Some(corr) = ev.corr else { continue };
            correlated += 1;
            let rec = world
                .ledger
                .get(IncidentId(corr))
                .unwrap_or_else(|| panic!("{mode:?}: event {} has unknown corr {corr}", ev.seq));
            if let Some(restored) = rec.restored {
                assert!(
                    ev.at <= restored,
                    "{mode:?}: {} event for incident {corr} at {} after close {}",
                    ev.code,
                    ev.at.as_secs(),
                    restored.as_secs()
                );
            }
        }
        assert!(correlated > 0, "{mode:?}: no correlated events at all");
        // Every incident's timeline is complete: it begins with the
        // injection ("inject" or "db-crash") and, when the incident
        // closed, ends with a closing event.
        for rec in world.ledger.incidents() {
            let timeline: Vec<_> = world
                .trace
                .events()
                .into_iter()
                .filter(|e| e.corr == Some(rec.id.0))
                .collect();
            assert!(
                !timeline.is_empty(),
                "{mode:?}: incident {} has no correlated events",
                rec.id
            );
            assert!(
                matches!(timeline[0].code, "inject" | "db-crash"),
                "{mode:?}: incident {} timeline starts with {:?}",
                rec.id,
                timeline[0].code
            );
            if rec.restored.is_some() {
                let closes = timeline.iter().any(|e| {
                    matches!(
                        e.code,
                        "restore" | "local-heal" | "cron-repair" | "burn-alert"
                    )
                });
                assert!(
                    closes,
                    "{mode:?}: closed incident {} has no closing event",
                    rec.id
                );
            }
        }
    }
}

/// The SLO observatory's online accounting agrees with the ledger: the
/// total downtime equals the sum over closed incidents, and every
/// service row's incident count matches the ledger's records.
#[test]
fn slo_report_is_consistent_with_the_ledger() {
    for mode in [ManagementMode::ManualOps, ManagementMode::Intelliagents] {
        let (world, _) = run_traced(23, mode);
        let report = world.slo.report(world.cfg.horizon);
        let closed: Vec<_> = world
            .ledger
            .incidents()
            .filter(|i| i.restored.is_some())
            .collect();
        let expected_downtime: u64 = closed
            .iter()
            .map(|i| i.restored.expect("closed").since(i.onset).as_secs())
            .sum();
        assert_eq!(report.total_downtime_secs(), expected_downtime, "{mode:?}");
        let expected_incidents = closed.len() as u64;
        let reported: u64 = report.services.iter().map(|s| s.incidents).sum();
        assert_eq!(reported, expected_incidents, "{mode:?}");
        for row in &report.services {
            let in_ledger = closed.iter().filter(|i| i.service == row.service).count() as u64;
            assert_eq!(row.incidents, in_ledger, "{mode:?} service {}", row.service);
        }
        // Manual hours-long repairs must burn budget faster than agent
        // repairs; the export is schema-valid JSON either way.
        let json = report.to_json_with_run(world.cfg.seed, &format!("{mode:?}"));
        let doc = intelliqos::core::jsonv::parse(&json).expect("slo export parses");
        assert_eq!(
            doc.get("report").and_then(|v| v.as_str()),
            Some("slo"),
            "{mode:?}"
        );
        assert_eq!(
            doc.get("alerts").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(world.slo.alerts().len()),
            "{mode:?}"
        );
    }
}

/// The actionable-failure taxonomy is consistent across all three
/// layers: every ledger incident classifies deterministically from its
/// own fields, the scoped ledger/SLO columns close exactly
/// (`all == service + client + abort`), and the observatory emits one
/// `classified` trace event per closed incident.
#[test]
fn failure_taxonomy_is_consistent_across_ledger_slo_and_trace() {
    use intelliqos::core::downtime::{classify_failure, FailureClass};
    use intelliqos::core::slo::SloScope;
    for mode in [ManagementMode::ManualOps, ManagementMode::Intelliagents] {
        let (world, _) = run_traced(23, mode);

        // Classification is a pure function of the incident record, so
        // a reader re-deriving it from the export agrees with the run.
        let mut class_counts = [0u64; 3];
        for inc in world.ledger.incidents() {
            let rederived = classify_failure(
                inc.category.label(),
                inc.repaired_by().map(|a| a.label()),
                inc.escalated,
            );
            assert_eq!(inc.failure_class(), rederived, "{mode:?} {}", inc.id);
            assert_eq!(
                inc.is_actionable(),
                inc.failure_class() == FailureClass::ServiceFault,
                "{mode:?} {}",
                inc.id
            );
            if inc.restored.is_some() {
                class_counts[inc.failure_class().index()] += 1;
            }
        }

        // Per-category scoped totals close: the all-scope column equals
        // the sum of the three class columns, per integer field.
        let all = world.ledger.totals_scoped(SloScope::All);
        let by_class = [
            world.ledger.totals_scoped(SloScope::Service),
            world.ledger.totals_scoped(SloScope::Client),
            world.ledger.totals_scoped(SloScope::Abort),
        ];
        for (cat, t) in &all {
            let parts: u64 = by_class
                .iter()
                .map(|m| m.get(cat).map(|t| t.incidents).unwrap_or(0))
                .sum();
            assert_eq!(
                t.incidents, parts,
                "{mode:?} {cat:?} incidents do not close"
            );
        }
        assert_eq!(all, world.ledger.totals(), "totals() is the all-scope view");

        // The SLO report's fleet-wide scope split closes the same way,
        // and every service row carries a meaningful target.
        let report = world.slo.report(world.cfg.horizon);
        let parts = report.scope_downtime_secs(SloScope::Service)
            + report.scope_downtime_secs(SloScope::Client)
            + report.scope_downtime_secs(SloScope::Abort);
        assert_eq!(report.scope_downtime_secs(SloScope::All), parts, "{mode:?}");
        for row in &report.services {
            assert!(
                row.target > 0.0 && row.target < 1.0,
                "{mode:?} {}: target {}",
                row.service,
                row.target
            );
        }

        // One `classified` trace event per closed incident, each naming
        // a closed-world class label.
        let classified: Vec<_> = world
            .trace
            .events()
            .into_iter()
            .filter(|e| e.code == "classified")
            .collect();
        let closed: u64 = class_counts.iter().sum();
        assert_eq!(classified.len() as u64, closed, "{mode:?}");
        for ev in &classified {
            assert!(
                FailureClass::ALL
                    .iter()
                    .any(|c| ev.detail.contains(&format!("class={c}"))),
                "{mode:?}: unlabelled classification event: {}",
                ev.detail
            );
        }
        assert!(closed > 0, "{mode:?}: scenario must close incidents");
    }
}

fn spill_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("intelliqos-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_spilled(seed: u64, dir: PathBuf, chunk_records: usize) -> (World, ScenarioReport) {
    let mut spill = SpillConfig::new(dir);
    spill.chunk_records = chunk_records;
    let opts = TraceOptions {
        spill: Some(spill),
        ..TraceOptions::default()
    };
    let mut world =
        World::build(small(seed, ManagementMode::Intelliagents)).enable_trace_with(opts);
    let report = world.run_to_end();
    (world, report)
}

/// Flight-recorder mode: the spill sink persists *every* emitted event
/// (zero drops), rotates chunks at the configured size, the validator
/// finds the directory complete, and the recorded stream is identical
/// to what a ring-sink run of the same scenario retains.
#[test]
fn spill_sink_persists_every_event_and_matches_the_ring() {
    let dir = spill_dir("full");
    let (spilled, report_spilled) = run_spilled(11, dir.clone(), 500);
    let (ringed, report_ringed) = run_traced(11, ManagementMode::Intelliagents);
    assert_eq!(report_spilled, report_ringed, "sink choice changes nothing");

    // Nothing dropped, everything on disk.
    assert_eq!(spilled.trace.dropped(), 0);
    assert_eq!(spilled.trace.sink_kind(), "spill");
    let findings = validate_spill_dir(&dir);
    assert!(findings.is_empty(), "{findings:?}");

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let doc = intelliqos::core::jsonv::parse(&manifest).expect("manifest parses");
    assert_eq!(
        doc.get("total").and_then(|v| v.as_u64()),
        Some(spilled.trace.total()),
        "every emitted event is a disk record"
    );
    let chunks = doc.get("chunks").and_then(|v| v.as_arr()).expect("chunks");
    let expected_chunks = (spilled.trace.total() as usize).div_ceil(500);
    assert_eq!(
        chunks.len(),
        expected_chunks,
        "chunks rotate at 500 records"
    );

    // Same scenario, same stream: the spill's totals and per-subsystem
    // counters match the ring run exactly.
    assert_eq!(spilled.trace.total(), ringed.trace.total());
    let (a, b): (Vec<_>, Vec<_>) = (spilled.trace.counters(), ringed.trace.counters());
    assert_eq!(a, b);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing a run mid-write leaves a truncated final chunk; the
/// validator must say so rather than bless the spill.
#[test]
fn truncated_spill_chunk_is_detected() {
    let dir = spill_dir("trunc");
    let (_world, _) = run_spilled(7, dir.clone(), 1000);
    assert!(validate_spill_dir(&dir).is_empty());

    // Chop the final chunk mid-record.
    let doc = intelliqos::core::jsonv::parse(
        &std::fs::read_to_string(dir.join("manifest.json")).expect("manifest"),
    )
    .expect("parses");
    let chunks = doc.get("chunks").and_then(|v| v.as_arr()).expect("chunks");
    let last = chunks
        .last()
        .and_then(|c| c.get("file"))
        .and_then(|v| v.as_str())
        .expect("last chunk name");
    let path = dir.join(last);
    let text = std::fs::read_to_string(&path).expect("chunk");
    std::fs::write(&path, &text[..text.len() - 20]).expect("truncate");

    let findings = validate_spill_dir(&dir);
    assert!(!findings.is_empty(), "truncated chunk must fail validation");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A world run with tracing left at the default (disabled) must record
/// nothing — the zero-cost path — while producing the same report.
#[test]
fn disabled_trace_records_nothing_and_changes_nothing() {
    let mut silent = World::build(small(11, ManagementMode::Intelliagents));
    let report_silent = silent.run_to_end();
    let (traced, report_traced) = run_traced(11, ManagementMode::Intelliagents);
    assert_eq!(silent.trace.total(), 0);
    assert!(traced.trace.total() > 0);
    assert_eq!(report_silent, report_traced);
}
