//! The store/scan equivalence property: for any synthetic evidence
//! directory — run exports with random incidents and trace events, SLO
//! reports written by the real `SloTracker`, spill directories written
//! by the real `SpillSink` (with random chunk sizes and randomly
//! truncated final chunks) — every random query answered through the
//! indexed store equals the linear scan over the same evidence,
//! record-for-record, and the indexed answer never re-opens a raw
//! evidence file. Correlation queries additionally render byte-
//! identical triage timelines, which is the `triage --evdb` guarantee.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::path::{Path, PathBuf};

use common::{cases, Gen};
use intelliqos_core::downtime::{classify_failure, FailureClass};
use intelliqos_core::slo::{SloConfig, SloTracker};
use intelliqos_core::IncidentId;
use intelliqos_evdb::{render_corr_timelines, scan_query, Kind, Query, Store};
use intelliqos_simkern::trace::{SpillConfig, Subsystem, Trace, TraceOptions, TRACE_REGISTRY};
use intelliqos_simkern::{SimDuration, SimTime};

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_num(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn opt_str(v: Option<&str>) -> String {
    v.map_or_else(|| "null".to_string(), json_str)
}

const CATEGORIES: &[&str] = &[
    "MidJobDbCrash",
    "DiskFull",
    "DaemonHang",
    "NfsStale",
    "Mid-crash",
    "Human",
];
const SERVICES: &[&str] = &["db003", "web001", "lsf", "mail", "nfs02"];
const CODES: &[&str] = &["inject", "detect", "diagnose", "heal", "sweep", "dispatch"];
const ACTORS: &[&str] = &["agent", "admin", "human"];

/// Write one synthetic run export (`{run}.json`) plus its SLO report
/// (`{run}_slo.json`); returns the incident ids it used.
fn write_run(dir: &Path, run: &str, g: &mut Gen) -> Vec<u64> {
    let n_inc = g.usize_in(0, 6);
    let mut tracker = SloTracker::new(SloConfig::default(), 8);
    let mut incidents = Vec::new();
    let mut ids = Vec::new();
    for id in 0..n_inc as u64 {
        ids.push(id);
        let onset = g.u64_in(0, 160_000);
        let detected = g.bool().then(|| onset + g.u64_in(1, 600));
        let diagnosed = detected.map(|d| d + g.u64_in(1, 300)).filter(|_| g.bool());
        let restored = detected
            .map(|d| d + g.u64_in(1, 7_000))
            .filter(|_| g.bool());
        let service = *g.choose(SERVICES);
        let category = *g.choose(CATEGORIES);
        let actor = g.bool().then(|| {
            if g.bool() {
                g.choose(ACTORS).to_string()
            } else {
                g.ident()
            }
        });
        let escalated = g.bool();
        let class = classify_failure(category, actor.as_deref(), escalated);
        if let (Some(det), Some(rest)) = (detected, restored) {
            tracker.on_close(
                service,
                IncidentId(id),
                class,
                SimTime::from_secs(onset),
                SimTime::from_secs(det),
                SimTime::from_secs(rest),
            );
        }
        let n_att = g.usize_in(0, 3);
        let attempts: Vec<String> = (0..n_att)
            .map(|_| {
                format!(
                    "{{\"at\": {}, \"actor\": {}, \"action\": {}, \"resolved\": {}}}",
                    onset + g.u64_in(0, 1000),
                    json_str(&g.ident()),
                    json_str(&g.ascii_value(12)),
                    g.bool()
                )
            })
            .collect();
        let taxonomy = format!(
            ", \"failure_class\": {}, \"is_actionable\": {}",
            json_str(class.label()),
            class.is_actionable()
        );
        incidents.push(format!(
            "{{\"id\": {id}, \"category\": {}, \"service\": {}, \"description\": {}, \
             \"onset\": {onset}, \"detected\": {}, \"diagnosed\": {}, \"restored\": {}, \
             \"actor\": {}, \"action\": {}, \"escalated\": {escalated}{taxonomy}, \
             \"attempts\": [{}]}}",
            json_str(category),
            json_str(service),
            json_str(&g.ascii_value(20)),
            opt_num(detected),
            opt_num(diagnosed),
            opt_num(restored),
            opt_str(actor.as_deref()),
            opt_str(g.bool().then(|| g.ascii_value(10)).as_deref()),
            attempts.join(", ")
        ));
    }
    let n_ev = g.usize_in(0, 24);
    let mut events = Vec::new();
    for seq in 0..n_ev as u64 {
        let corr = if !ids.is_empty() && g.bool() {
            format!(",\"corr\":{}", *g.choose(&ids))
        } else {
            String::new()
        };
        let code = g.choose(CODES);
        events.push(format!(
            "{{\"seq\":{seq},\"at\":{},\"subsystem\":{},\"code\":{}{corr},\"detail\":{}}}",
            g.u64_in(0, 170_000),
            json_str(g.choose(Subsystem::ALL.as_slice()).tag()),
            json_str(code),
            json_str(&g.ascii_value(16))
        ));
    }
    let export = format!(
        "{{\n\"seed\": 1,\n\"mode\": \"Test\",\n\"ledger\": {{\"incidents\": [{}]}},\n\
         \"trace\": {{\"events\": [{}]}}\n}}\n",
        incidents.join(", "),
        events.join(", ")
    );
    std::fs::write(dir.join(format!("{run}.json")), export).unwrap();
    let report = tracker.report(SimDuration::from_days(2));
    std::fs::write(
        dir.join(format!("{run}_slo.json")),
        report.to_json_with_run(1, "Test"),
    )
    .unwrap();
    ids
}

/// Write a real spill directory under `dir/{name}` with random chunk
/// rotation, optionally chopping the final chunk mid-record.
fn write_spill(dir: &Path, name: &str, ids: &[u64], g: &mut Gen) {
    let spill_dir = dir.join(name);
    let chunk_records = g.usize_in(2, 9);
    let mut t = Trace::with_options(TraceOptions {
        capacity: 4,
        spill: Some(SpillConfig {
            dir: spill_dir.clone(),
            chunk_records,
        }),
        ..TraceOptions::default()
    });
    let n = g.usize_in(1, 30);
    for _ in 0..n {
        let at = SimTime::from_secs(g.u64_in(0, 170_000));
        // The live `Trace` enforces the closed world, so a real spill
        // can only ever hold registered (subsystem, code) pairs.
        let spec = g.choose(TRACE_REGISTRY);
        let detail = g.ascii_value(16);
        t.emit(at, spec.subsystem, spec.code, || detail.clone());
        if !ids.is_empty() && g.bool() {
            t.correlate_last(*g.choose(ids));
        }
    }
    t.flush().unwrap();
    if g.bool() {
        // Chop the final chunk mid-record (killed-run shape).
        let mut chunks: Vec<PathBuf> = std::fs::read_dir(&spill_dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("chunk-"))
            })
            .collect();
        chunks.sort();
        if let Some(last) = chunks.last() {
            let text = std::fs::read_to_string(last).unwrap();
            if text.len() > 4 {
                let cut = g.usize_in(1, text.len().min(40));
                std::fs::write(last, &text[..text.len() - cut]).unwrap();
            }
        }
    }
}

fn random_query(g: &mut Gen, runs: &[String]) -> Query {
    let mut q = Query::default();
    if g.usize_in(0, 4) == 0 {
        q.kind = Some(*g.choose(&[Kind::Incident, Kind::Trace, Kind::Slo]));
    }
    if g.bool() {
        q.run = Some(if g.bool() {
            g.choose(runs).clone()
        } else {
            "no_such_run".to_string()
        });
    }
    if g.bool() {
        q.service = Some(g.choose(SERVICES).to_string());
    }
    if g.usize_in(0, 3) == 0 {
        q.category = Some(if g.bool() {
            g.choose(CATEGORIES).to_string()
        } else {
            g.choose(CODES).to_string()
        });
    }
    if g.usize_in(0, 3) == 0 {
        q.subsystem = Some(g.choose(Subsystem::ALL.as_slice()).tag().to_string());
    }
    if g.usize_in(0, 3) == 0 {
        q.class = Some(if g.bool() {
            g.choose(&FailureClass::ALL).label().to_string()
        } else {
            // Programmatic queries skip the CLI's closed-world check;
            // both backends must answer an unknown class emptily.
            "no-such-class".to_string()
        });
    }
    if g.usize_in(0, 4) == 0 {
        q.actionable = Some(g.bool());
    }
    if g.usize_in(0, 3) == 0 {
        q.corr = Some(g.u64_in(0, 6));
    }
    if g.usize_in(0, 3) == 0 {
        let t0 = g.u64_in(0, 160_000);
        q.window = Some((t0, t0 + g.u64_in(0, 90_000)));
    }
    q
}

#[test]
fn every_indexed_query_matches_the_linear_scan() {
    cases(25, |g| {
        let trial_dir = std::env::temp_dir().join(format!(
            "intelliqos-evdb-prop-{}",
            g.u64_in(0, u64::MAX - 1)
        ));
        let evidence = trial_dir.join("evidence");
        let store_dir = trial_dir.join("store");
        let _ = std::fs::remove_dir_all(&trial_dir);
        std::fs::create_dir_all(&evidence).unwrap();

        let n_runs = g.usize_in(1, 4);
        let mut runs = Vec::new();
        let mut all_ids = Vec::new();
        for i in 0..n_runs {
            let run = format!("{}_{i}", g.ident());
            let ids = write_run(&evidence, &run, g);
            all_ids.extend(ids);
            runs.push(run);
        }
        if g.bool() {
            let name = format!("spill_{}", g.usize_in(0, 100));
            write_spill(&evidence, &name, &all_ids, g);
            runs.push(name);
        }
        // A bystander document the extractor must leave alone.
        std::fs::write(
            evidence.join("ontology_check_site.json"),
            "{\"report\": \"ontology\", \"findings\": []}\n",
        )
        .unwrap();

        Store::build(&evidence, &store_dir).unwrap();
        let store = Store::open(&store_dir).unwrap();

        for _ in 0..6 {
            let q = random_query(g, &runs);
            let (indexed, stats) = store.query(&q).unwrap();
            let (scanned, _, _) = scan_query(&evidence, &q).unwrap();
            assert_eq!(
                indexed, scanned,
                "indexed result diverged from scan for {q:?}"
            );
            assert_eq!(
                stats.source_files_read, 0,
                "indexed query re-opened raw evidence for {q:?}"
            );
            assert_eq!(stats.rows_matched as usize, indexed.len());
        }

        // Correlation timelines — the `triage --evdb` path — are byte-
        // identical between backends.
        for id in 0..3 {
            let q = Query {
                corr: Some(id),
                ..Query::default()
            };
            let (indexed, _) = store.query(&q).unwrap();
            let (scanned, _, _) = scan_query(&evidence, &q).unwrap();
            assert_eq!(
                render_corr_timelines(&indexed, id),
                render_corr_timelines(&scanned, id),
                "timelines diverged for incident {id}"
            );
        }

        let _ = std::fs::remove_dir_all(&trial_dir);
    });
}

/// Re-ingesting the same evidence is byte-stable: every store file is
/// reproduced identically, so the store can be rebuilt anywhere and
/// compared with a plain `diff -r`.
#[test]
fn ingest_is_deterministic_across_rebuilds() {
    cases(5, |g| {
        let trial_dir = std::env::temp_dir().join(format!(
            "intelliqos-evdb-rebuild-{}",
            g.u64_in(0, u64::MAX - 1)
        ));
        let evidence = trial_dir.join("evidence");
        let _ = std::fs::remove_dir_all(&trial_dir);
        std::fs::create_dir_all(&evidence).unwrap();
        let ids = write_run(&evidence, "run_a", g);
        write_spill(&evidence, "spill_a", &ids, g);

        let snapshot = |dir: &Path| -> Vec<(String, Vec<u8>)> {
            let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .collect();
            files.sort();
            files
                .into_iter()
                .map(|p| {
                    (
                        p.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read(&p).unwrap(),
                    )
                })
                .collect()
        };
        let store_dir = trial_dir.join("store");
        Store::build(&evidence, &store_dir).unwrap();
        let first = snapshot(&store_dir);
        Store::build(&evidence, &store_dir).unwrap();
        let second = snapshot(&store_dir);
        assert_eq!(first, second, "rebuild changed store bytes");
        let _ = std::fs::remove_dir_all(&trial_dir);
    });
}

/// Extraction reads only the current evidence format. An incident
/// without a known `failure_class`, an SLO row without its own
/// `target` and a trace event that is not an object each become one
/// warning and no record — the same from the linear scan and from the
/// store, which share the extraction.
#[test]
fn records_missing_current_fields_are_warned_and_skipped() {
    let trial_dir = std::env::temp_dir().join("intelliqos-evdb-current-format");
    let evidence = trial_dir.join("evidence");
    let _ = std::fs::remove_dir_all(&trial_dir);
    std::fs::create_dir_all(&evidence).unwrap();

    let export = concat!(
        "{\n\"seed\": 7,\n\"mode\": \"Test\",\n\"ledger\": {\"incidents\": [",
        "{\"id\": 0, \"category\": \"Hardware\", \"service\": \"db003\", ",
        "\"description\": \"disk died\", \"onset\": 100, \"detected\": 160, ",
        "\"diagnosed\": 200, \"restored\": 900, \"actor\": \"agent\", ",
        "\"action\": \"restart\", \"escalated\": false, ",
        "\"failure_class\": \"transient-abort\", \"is_actionable\": false, \"attempts\": []}, ",
        "{\"id\": 1, \"category\": \"Hardware\", \"service\": \"db003\", ",
        "\"description\": \"no class\", \"onset\": 2000, \"detected\": 2050, ",
        "\"diagnosed\": null, \"restored\": 2400, \"actor\": \"agent\", ",
        "\"action\": \"resync\", \"escalated\": false, \"attempts\": []}, ",
        "{\"id\": 2, \"category\": \"Software\", \"service\": \"web001\", ",
        "\"description\": \"unknown class\", \"onset\": 5000, \"detected\": 5100, ",
        "\"diagnosed\": 5200, \"restored\": 9000, \"actor\": \"human\", ",
        "\"action\": \"manual fix\", \"escalated\": true, ",
        "\"failure_class\": \"cosmic-ray\", \"is_actionable\": true, \"attempts\": []}",
        "]},\n\"trace\": {\"events\": [",
        "{\"seq\":0,\"at\":100,\"subsystem\":\"fault\",\"code\":\"inject\",\"corr\":0,\"detail\":\"d\"}, ",
        "\"1|160|agent|detect|d\"",
        "]}\n}\n"
    );
    std::fs::write(evidence.join("run.json"), export).unwrap();
    let slo = concat!(
        "{\n\"report\": \"slo\",\n\"seed\": 7,\n\"mode\": \"Test\",\n",
        "\"target\": 0.999,\n\"services\": [",
        "{\"service\": \"db003\", \"incidents\": 2, \"downtime_secs\": 1200, ",
        "\"availability\": 99.2, \"mttr_secs\": 545.0, \"burn_alerts\": 0, \"target\": 0.9999}, ",
        "{\"service\": \"web001\", \"incidents\": 1, \"downtime_secs\": 3900, ",
        "\"availability\": 97.0, \"mttr_secs\": 3900.0, \"burn_alerts\": 1}",
        "]\n}\n"
    );
    std::fs::write(evidence.join("run_slo.json"), slo).unwrap();

    let store_dir = trial_dir.join("store");
    let report = Store::build(&evidence, &store_dir).unwrap();
    let store = Store::open(&store_dir).unwrap();
    let (indexed, _) = store.query(&Query::default()).unwrap();
    let (scanned, _, scan_warnings) = scan_query(&evidence, &Query::default()).unwrap();
    assert_eq!(indexed, scanned, "backends diverged");
    assert_eq!(
        report.warnings, scan_warnings,
        "backends warned differently"
    );

    let expected = [
        "incidents[1]: incident without failure_class",
        "incidents[2]: incident with unknown failure_class \"cosmic-ray\"",
        "events[1]: event is not an object",
        "services[1] without a target",
    ];
    assert_eq!(
        report.warnings.len(),
        expected.len(),
        "{:?}",
        report.warnings
    );
    for want in expected {
        assert!(
            report.warnings.iter().any(|w| w.ends_with(want)),
            "missing warning {want:?} in {:?}",
            report.warnings
        );
    }
    // One valid incident, trace event and SLO row survive.
    let lines: Vec<String> = indexed.iter().map(|r| r.render_line()).collect();
    for kind in Kind::ALL {
        let n = indexed.iter().filter(|r| r.kind() == kind).count();
        assert_eq!(n, 1, "{} records: {lines:?}", kind.tag());
    }

    let _ = std::fs::remove_dir_all(&trial_dir);
}
