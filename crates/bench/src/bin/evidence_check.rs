//! EVIDENCE-CHECK — validate evidence JSON documents.
//!
//! CI's smoke gate: after a figure binary runs with `--profile`
//! (`--trace`), the documents it dropped under `results/evidence/` must
//! exist, parse with the in-tree JSON reader, and — when they are world
//! run exports — carry an *enabled* profile with per-subsystem time
//! shares and per-event-kind counts. Sample-evidence documents (FIG3/
//! FIG4) only need to parse.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin evidence_check [PATH ...] [--evdb DIR ...]
//! ```
//!
//! With no arguments, checks every `*.json` under `results/evidence/`
//! plus every trace spill directory (any subdirectory holding a
//! `manifest.json`) — a truncated final chunk or a record-count
//! mismatch is a failure. Two taxonomy gates apply to every document
//! of their kind: an SLO report must declare a `burn_scope` and have
//! its per-scope columns close exactly (`all == service + client +
//! abort` for every integer column, per service and fleet-wide), and a
//! run export's ledger must be marked `"taxonomy": 1` and classify
//! every incident with a closed-world `failure_class` whose
//! `is_actionable` bit matches. Directory arguments are validated as
//! spill directories; a directory argument under which no spill
//! `manifest.json` exists is itself a failure (never a silent fallback
//! to the default sweep). `--evdb DIR` validates an indexed evidence
//! store built by `evdb ingest`: segment headers and row counts against
//! the store manifest, index references in bounds, and the recorded
//! source files still present with the ingested byte sizes (a stale
//! store is a failure). Exit status: 0 when every document checks out;
//! 1 otherwise.

use std::path::PathBuf;

use intelliqos_bench::evidence_dir;
use intelliqos_core::jsonv::{parse, JsonValue};
use intelliqos_evdb::Store;

/// Structural checks on a run export's `profile` section. Returns the
/// list of complaints (empty = good).
fn check_profile(profile: &JsonValue) -> Vec<String> {
    let mut bad = Vec::new();
    if profile.get("enabled").and_then(|v| v.as_bool()) != Some(true) {
        bad.push("profile.enabled is not true".to_string());
        return bad; // a disabled profile is legitimately empty
    }
    match profile.get("events_processed").and_then(|v| v.as_u64()) {
        Some(n) if n > 0 => {}
        _ => bad.push("profile.events_processed missing or zero".to_string()),
    }
    match profile.get("subsystems").and_then(|v| v.as_arr()) {
        Some(subs) if !subs.is_empty() => {
            let total: f64 = subs
                .iter()
                .filter_map(|s| s.get("share").and_then(|v| v.as_f64()))
                .sum();
            if (total - 1.0).abs() > 1e-6 {
                bad.push(format!("subsystem shares sum to {total}, not 1"));
            }
        }
        _ => bad.push("profile.subsystems missing or empty".to_string()),
    }
    match profile.get("kinds").and_then(|v| v.as_arr()) {
        Some(kinds) if !kinds.is_empty() => {
            for k in kinds {
                let named = k.get("kind").and_then(|v| v.as_str()).is_some();
                let counted = k
                    .get("count")
                    .and_then(|v| v.as_u64())
                    .is_some_and(|c| c > 0);
                let timed = k
                    .get("ns")
                    .and_then(|v| v.get("p99_ns"))
                    .and_then(|v| v.as_u64())
                    .is_some();
                if !(named && counted && timed) {
                    bad.push("kinds entry lacks kind/count/ns percentiles".to_string());
                    break;
                }
            }
        }
        _ => bad.push("profile.kinds missing or empty".to_string()),
    }
    bad
}

/// Structural checks on an `ontology_check` report document. Returns
/// the list of complaints (empty = good).
fn check_ontology_report(doc: &JsonValue) -> Vec<String> {
    let mut bad = Vec::new();
    let scenarios = match doc.get("scenarios").and_then(|v| v.as_arr()) {
        Some(s) if !s.is_empty() => s,
        _ => {
            bad.push("scenarios missing or empty".to_string());
            return bad;
        }
    };
    let mut per_scenario_total = 0u64;
    for s in scenarios {
        if s.get("scenario").and_then(|v| v.as_str()).is_none() {
            bad.push("scenarios entry lacks a scenario name".to_string());
        }
        match s.get("findings").and_then(|v| v.as_u64()) {
            Some(n) => per_scenario_total += n,
            None => bad.push("scenarios entry lacks a findings count".to_string()),
        }
    }
    let findings = doc.get("findings").and_then(|v| v.as_u64());
    if findings != Some(per_scenario_total) {
        bad.push(format!(
            "findings total {findings:?} disagrees with per-scenario sum {per_scenario_total}"
        ));
    }
    match doc.get("diagnostics").and_then(|v| v.as_arr()) {
        Some(diags) => {
            if Some(diags.len() as u64) != findings {
                bad.push(format!(
                    "diagnostics array has {} entries, findings says {findings:?}",
                    diags.len()
                ));
            }
            for d in diags {
                let complete = d.get("rule").and_then(|v| v.as_str()).is_some()
                    && d.get("severity").and_then(|v| v.as_str()).is_some()
                    && d.get("location").and_then(|v| v.as_str()).is_some()
                    && d.get("message").and_then(|v| v.as_str()).is_some();
                if !complete {
                    bad.push("diagnostics entry lacks rule/severity/location/message".to_string());
                    break;
                }
            }
        }
        None => bad.push("diagnostics array missing".to_string()),
    }
    bad
}

/// Structural checks on an `slo` report document. Returns the list of
/// complaints (empty = good).
fn check_slo_report(doc: &JsonValue) -> Vec<String> {
    let mut bad = Vec::new();
    for key in ["target", "fleet_availability"] {
        match doc.get(key).and_then(|v| v.as_f64()) {
            Some(x) if (0.0..=1.0).contains(&x) => {}
            other => bad.push(format!("{key} missing or outside [0,1]: {other:?}")),
        }
    }
    let horizon = doc.get("horizon_secs").and_then(|v| v.as_u64());
    let fleet = doc.get("fleet_size").and_then(|v| v.as_u64());
    if horizon.is_none_or(|h| h == 0) {
        bad.push("horizon_secs missing or zero".to_string());
    }
    if fleet.is_none_or(|f| f == 0) {
        bad.push("fleet_size missing or zero".to_string());
    }
    let Some(services) = doc.get("services").and_then(|v| v.as_arr()) else {
        bad.push("services array missing".to_string());
        return bad;
    };
    let mut downtime_sum = 0u64;
    let mut alert_sum = 0u64;
    for s in services {
        let named = s.get("service").and_then(|v| v.as_str()).is_some();
        let avail = s.get("availability").and_then(|v| v.as_f64());
        let down = s.get("downtime_secs").and_then(|v| v.as_u64());
        let budgeted = s.get("budget_remaining_secs").and_then(|v| v.as_f64());
        let mttr = s.get("mttr_secs").and_then(|v| v.as_f64());
        if !named || down.is_none() || budgeted.is_none() || mttr.is_none() {
            bad.push("services entry lacks service/downtime/budget/mttr".to_string());
            break;
        }
        if avail.is_none_or(|a| !(0.0..=1.0).contains(&a)) {
            bad.push(format!("service availability outside [0,1]: {avail:?}"));
        }
        downtime_sum += down.unwrap_or(0);
        alert_sum += s.get("burn_alerts").and_then(|v| v.as_u64()).unwrap_or(0);
    }
    if doc.get("total_downtime_secs").and_then(|v| v.as_u64()) != Some(downtime_sum) {
        bad.push(format!(
            "total_downtime_secs disagrees with per-service sum {downtime_sum}"
        ));
    }
    // Fleet availability must be consistent with the recorded downtime.
    if let (Some(avail), Some(h), Some(f)) = (
        doc.get("fleet_availability").and_then(|v| v.as_f64()),
        horizon,
        fleet,
    ) {
        if h > 0 && f > 0 {
            let expect = (1.0 - downtime_sum as f64 / (h * f) as f64).clamp(0.0, 1.0);
            if (avail - expect).abs() > 1e-6 {
                bad.push(format!(
                    "fleet_availability {avail} inconsistent with downtime (expect {expect:.8})"
                ));
            }
        }
    }
    match doc.get("alerts").and_then(|v| v.as_arr()) {
        Some(alerts) => {
            if alerts.len() as u64 != alert_sum {
                bad.push(format!(
                    "alerts array has {} entries, per-service burn_alerts sum to {alert_sum}",
                    alerts.len()
                ));
            }
            for a in alerts {
                let complete = a.get("at").and_then(|v| v.as_u64()).is_some()
                    && a.get("service").and_then(|v| v.as_str()).is_some()
                    && a.get("burn_rate").and_then(|v| v.as_f64()).is_some();
                if !complete {
                    bad.push("alerts entry lacks at/service/burn_rate".to_string());
                    break;
                }
            }
        }
        None => bad.push("alerts array missing".to_string()),
    }
    bad
}

const FAILURE_CLASSES: [&str; 3] = ["service-fault", "client-workload", "transient-abort"];
const SCOPES: [&str; 4] = ["all", "service", "client", "abort"];

/// Per-scope arithmetic on one `scopes` object: every integer column's
/// `all` row must equal the sum of the three class rows. Returns the
/// summed columns as (incidents, downtime_secs) for the caller's own
/// cross-checks.
fn check_scope_arithmetic(scopes: &JsonValue, who: &str, bad: &mut Vec<String>) -> (u64, u64) {
    let col = |scope: &str, key: &str| -> u64 {
        scopes
            .get(scope)
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    for scope in SCOPES {
        if scopes.get(scope).is_none() {
            bad.push(format!("{who}: scopes lacks the {scope:?} row"));
            return (0, 0);
        }
    }
    for key in ["incidents", "downtime_secs", "repair_secs"] {
        let parts = col("service", key) + col("client", key) + col("abort", key);
        if col("all", key) != parts {
            bad.push(format!(
                "{who}: scope {key} does not close: all {} != service+client+abort {parts}",
                col("all", key)
            ));
        }
    }
    (col("all", "incidents"), col("all", "downtime_secs"))
}

/// Taxonomy checks on an SLO report: a declared `burn_scope`, closed
/// per-scope columns and per-row targets.
fn check_slo_scopes(doc: &JsonValue) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(scope) = doc.get("burn_scope").and_then(|v| v.as_str()) else {
        bad.push("burn_scope missing".to_string());
        return bad;
    };
    if !SCOPES.contains(&scope) {
        bad.push(format!("burn_scope {scope:?} is not a failure scope"));
    }
    match doc.get("scope_downtime_secs") {
        Some(sd) => {
            let get = |s: &str| sd.get(s).and_then(|v| v.as_u64()).unwrap_or(0);
            let parts = get("service") + get("client") + get("abort");
            if get("all") != parts {
                bad.push(format!(
                    "scope_downtime_secs does not close: all {} != service+client+abort {parts}",
                    get("all")
                ));
            }
            if doc.get("total_downtime_secs").and_then(|v| v.as_u64()) != Some(get("all")) {
                bad.push("total_downtime_secs disagrees with scope_downtime_secs.all".to_string());
            }
        }
        None => bad.push("scope_downtime_secs missing".to_string()),
    }
    for s in doc.get("services").and_then(|v| v.as_arr()).unwrap_or(&[]) {
        let name = s.get("service").and_then(|v| v.as_str()).unwrap_or("?");
        match s.get("target").and_then(|v| v.as_f64()) {
            Some(t) if (0.0..=1.0).contains(&t) => {}
            other => bad.push(format!(
                "{name}: target missing or outside [0,1]: {other:?}"
            )),
        }
        let Some(scopes) = s.get("scopes") else {
            bad.push(format!("{name}: row lacks a scopes object"));
            continue;
        };
        let (all_inc, all_down) = check_scope_arithmetic(scopes, name, &mut bad);
        // The legacy columns are defined as the all-scope view.
        if s.get("incidents").and_then(|v| v.as_u64()) != Some(all_inc) {
            bad.push(format!("{name}: legacy incidents != scopes.all.incidents"));
        }
        if s.get("downtime_secs").and_then(|v| v.as_u64()) != Some(all_down) {
            bad.push(format!(
                "{name}: legacy downtime_secs != scopes.all.downtime_secs"
            ));
        }
    }
    bad
}

/// Taxonomy checks on a run export's ledger: it must be marked
/// `"taxonomy": 1`, and an unclassified or inconsistently classified
/// incident is a failure.
fn check_ledger_taxonomy(ledger: &JsonValue) -> Vec<String> {
    let mut bad = Vec::new();
    if ledger.get("taxonomy").and_then(|v| v.as_u64()) != Some(1) {
        bad.push("ledger lacks the \"taxonomy\": 1 marker".to_string());
        return bad;
    }
    for inc in ledger
        .get("incidents")
        .and_then(|v| v.as_arr())
        .unwrap_or(&[])
    {
        let id = inc.get("id").and_then(|v| v.as_u64()).unwrap_or(0);
        let class = inc.get("failure_class").and_then(|v| v.as_str());
        match class {
            Some(c) if FAILURE_CLASSES.contains(&c) => {
                let expect = c == "service-fault";
                if inc.get("is_actionable").and_then(|v| v.as_bool()) != Some(expect) {
                    bad.push(format!(
                        "incident {id}: is_actionable disagrees with class {c:?}"
                    ));
                }
            }
            Some(c) => bad.push(format!(
                "incident {id}: failure_class {c:?} is not in the closed world"
            )),
            None => bad.push(format!("incident {id}: unclassified")),
        }
    }
    bad
}

fn check_file(path: &PathBuf) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("unreadable: {e}")],
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => return vec![format!("invalid JSON: {e}")],
    };
    // Ontology reports announce themselves; run exports carry a
    // profile section; sample evidence needs only to parse.
    if doc.get("report").and_then(|v| v.as_str()) == Some("ontology_check") {
        return check_ontology_report(&doc);
    }
    if doc.get("report").and_then(|v| v.as_str()) == Some("slo") {
        let mut bad = check_slo_report(&doc);
        bad.extend(check_slo_scopes(&doc));
        return bad;
    }
    let mut bad = match doc.get("profile") {
        Some(profile) => check_profile(profile),
        None => Vec::new(),
    };
    if let Some(ledger) = doc.get("ledger") {
        bad.extend(check_ledger_taxonomy(ledger));
    }
    bad
}

/// Recursively collect every directory under `dir` (inclusive) that
/// holds a trace-spill `manifest.json`.
fn find_spill_dirs(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    if dir.join("manifest.json").is_file() {
        out.push(dir.to_path_buf());
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                find_spill_dirs(&p, out);
            }
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<PathBuf> = Vec::new();
    let mut evdb_dirs: Vec<PathBuf> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--evdb" {
            match it.next() {
                Some(dir) => evdb_dirs.push(PathBuf::from(dir)),
                None => {
                    eprintln!("--evdb needs a directory");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(PathBuf::from(a));
        }
    }

    let mut failures = 0usize;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut spill_dirs: Vec<PathBuf> = Vec::new();
    let explicit = !args.is_empty();
    for a in args {
        if a.is_dir() {
            let before = spill_dirs.len();
            find_spill_dirs(&a, &mut spill_dirs);
            if spill_dirs.len() == before {
                failures += 1;
                println!(
                    "FAIL {}: no spill manifest.json under directory",
                    a.display()
                );
            }
        } else {
            paths.push(a);
        }
    }
    if !explicit && evdb_dirs.is_empty() {
        let dir = evidence_dir();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "json") {
                    paths.push(p);
                } else if p.is_dir() {
                    find_spill_dirs(&p, &mut spill_dirs);
                }
            }
        }
        paths.sort();
        if paths.is_empty() {
            eprintln!("no evidence documents under {}", dir.display());
            std::process::exit(1);
        }
    }
    spill_dirs.sort();

    for path in &paths {
        let bad = check_file(path);
        if bad.is_empty() {
            println!("ok   {}", path.display());
        } else {
            failures += 1;
            for b in &bad {
                println!("FAIL {}: {b}", path.display());
            }
        }
    }
    for dir in &spill_dirs {
        let bad = intelliqos_core::validate_spill_dir(dir);
        if bad.is_empty() {
            println!("ok   {} (spill)", dir.display());
        } else {
            failures += 1;
            for b in &bad {
                println!("FAIL {}: {b}", dir.display());
            }
        }
    }
    for dir in &evdb_dirs {
        let bad = match Store::open(dir) {
            Ok(store) => store.validate(),
            Err(e) => vec![e],
        };
        if bad.is_empty() {
            println!("ok   {} (evdb store)", dir.display());
        } else {
            failures += 1;
            for b in &bad {
                println!("FAIL {}: {b}", dir.display());
            }
        }
    }
    println!(
        "{} document(s), {} spill dir(s), {} evdb store(s), {failures} failure(s)",
        paths.len(),
        spill_dirs.len(),
        evdb_dirs.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo_doc(burn_scope: &str) -> JsonValue {
        parse(&format!(
            "{{\"report\": \"slo\", \"target\": 0.9999, \"fleet_availability\": 1.0, \
             \"horizon_secs\": 86400, \"fleet_size\": 2, \"total_downtime_secs\": 0, \
             {burn_scope}\"services\": [], \"alerts\": []}}"
        ))
        .unwrap()
    }

    #[test]
    fn unmarked_ledger_fails() {
        let marked = parse("{\"incidents\": [], \"taxonomy\": 1}").unwrap();
        assert!(check_ledger_taxonomy(&marked).is_empty());
        let unmarked = parse("{\"incidents\": []}").unwrap();
        assert_eq!(
            check_ledger_taxonomy(&unmarked),
            ["ledger lacks the \"taxonomy\": 1 marker"]
        );
    }

    #[test]
    fn slo_report_without_burn_scope_fails() {
        let scoped = slo_doc(
            "\"burn_scope\": \"service\", \"scope_downtime_secs\": \
             {\"all\": 0, \"service\": 0, \"client\": 0, \"abort\": 0}, ",
        );
        assert!(check_slo_report(&scoped).is_empty());
        assert!(check_slo_scopes(&scoped).is_empty());
        let unscoped = slo_doc("");
        assert!(check_slo_report(&unscoped).is_empty());
        assert_eq!(check_slo_scopes(&unscoped), ["burn_scope missing"]);
    }
}
