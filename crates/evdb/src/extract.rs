//! Shared evidence extraction: one walk that turns an evidence
//! directory into typed records.
//!
//! Both the store's ingest and the reference linear scan call this —
//! which is the first half of the byte-identity guarantee: the two
//! backends cannot disagree about what a file *means* because they
//! share the code that reads it.
//!
//! Recognised sources, walked in sorted order:
//!
//! * `*.json` run exports (a `ledger` member) → incidents + trace
//!   events, run label = file stem;
//! * `*_slo.json` SLO reports (`"report": "slo"`) → per-service SLO
//!   samples, run label = stem minus `_slo`;
//! * spill directories (a `manifest.json` tagged `trace_spill`) →
//!   trace events from every chunk, run label = directory path
//!   relative to the evidence root.
//!
//! Anything else (ontology reports, stray files) is left alone.
//! Truncated or malformed inputs degrade to warnings, never errors:
//! evidence from a crashed run must stay triagable.

use std::path::{Path, PathBuf};

use intelliqos_core::downtime::FailureClass;
use intelliqos_core::jsonv::{self, JsonValue};
use intelliqos_simkern::trace::read_spill_chunks;

use crate::model::{AttemptRec, IncidentRec, Rec, SloRec, TraceRec};

/// One file the extraction ingested, with its size — the provenance
/// list the store manifest records and the scan charges its cost to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Path relative to the evidence root, `/`-separated.
    pub rel: String,
    /// File size in bytes.
    pub bytes: u64,
}

/// Everything an evidence walk produced.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    /// Every typed record, in walk order (callers sort).
    pub records: Vec<Rec>,
    /// Every ingested file.
    pub sources: Vec<SourceFile>,
    /// Non-fatal problems (truncated chunks, malformed rows).
    pub warnings: Vec<String>,
}

/// Walk `root` and extract every recognised evidence record.
pub fn extract_dir(root: &Path) -> Result<Extraction, String> {
    let mut ex = Extraction::default();
    walk(root, root, &mut ex)?;
    Ok(ex)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn push_source(root: &Path, path: &Path, ex: &mut Extraction) {
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    ex.sources.push(SourceFile {
        rel: rel_path(root, path),
        bytes,
    });
}

fn is_spill_dir(dir: &Path) -> bool {
    let manifest = dir.join("manifest.json");
    let Ok(text) = std::fs::read_to_string(&manifest) else {
        return false;
    };
    jsonv::parse(&text)
        .ok()
        .and_then(|v| v.get("report").and_then(|r| r.as_str().map(String::from)))
        .as_deref()
        == Some("trace_spill")
}

fn walk(root: &Path, dir: &Path, ex: &mut Extraction) -> Result<(), String> {
    if is_spill_dir(dir) {
        extract_spill(root, dir, ex);
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk(root, &path, ex)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("json") {
            extract_json(root, &path, ex);
        }
    }
    Ok(())
}

/// The chunk files of a spill directory, sorted — the order both the
/// reader and the provenance list use.
fn spill_chunk_paths(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut chunks: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("chunk-") && n.ends_with(".jsonl"))
        })
        .collect();
    chunks.sort();
    chunks
}

fn extract_spill(root: &Path, dir: &Path, ex: &mut Extraction) {
    let run = rel_path(root, dir);
    push_source(root, &dir.join("manifest.json"), ex);
    match read_spill_chunks(dir) {
        Ok((records, warnings)) => {
            // Charge every chunk file as a source, in the read order.
            for chunk in spill_chunk_paths(dir) {
                push_source(root, &chunk, ex);
            }
            ex.warnings.extend(warnings);
            ex.records.extend(records.into_iter().map(|r| {
                Rec::Trace(TraceRec {
                    run: run.clone(),
                    seq: r.seq,
                    at: r.at.as_secs(),
                    subsystem: r.subsystem.tag().to_string(),
                    code: r.code,
                    corr: r.corr,
                    detail: r.detail,
                })
            }));
        }
        Err(e) => ex.warnings.push(format!("{}: {e}", dir.display())),
    }
}

fn extract_json(root: &Path, path: &Path, ex: &mut Extraction) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            ex.warnings
                .push(format!("{}: unreadable: {e}", path.display()));
            return;
        }
    };
    let doc = match jsonv::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            ex.warnings
                .push(format!("{}: bad JSON: {e}", path.display()));
            return;
        }
    };
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("")
        .to_string();
    if doc.get("report").and_then(|v| v.as_str()) == Some("slo") {
        let run = stem.strip_suffix("_slo").unwrap_or(&stem).to_string();
        push_source(root, path, ex);
        extract_slo(&doc, &run, path, ex);
    } else if doc.get("ledger").is_some() {
        push_source(root, path, ex);
        extract_run_export(&doc, &stem, path, ex);
    }
}

fn extract_slo(doc: &JsonValue, run: &str, path: &Path, ex: &mut Extraction) {
    let Some(services) = doc.get("services").and_then(|v| v.as_arr()) else {
        ex.warnings
            .push(format!("{}: slo report without services", path.display()));
        return;
    };
    for (i, s) in services.iter().enumerate() {
        let Some(service) = s.get("service").and_then(|v| v.as_str()) else {
            ex.warnings
                .push(format!("{}: services[{i}] without a name", path.display()));
            continue;
        };
        let Some(target) = s.get("target").and_then(|v| v.as_f64()) else {
            ex.warnings.push(format!(
                "{}: services[{i}] without a target",
                path.display()
            ));
            continue;
        };
        ex.records.push(Rec::Slo(SloRec {
            run: run.to_string(),
            service: service.to_string(),
            incidents: s.get("incidents").and_then(|v| v.as_u64()).unwrap_or(0),
            downtime_secs: s.get("downtime_secs").and_then(|v| v.as_u64()).unwrap_or(0),
            availability: s
                .get("availability")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0),
            mttr_secs: s.get("mttr_secs").and_then(|v| v.as_f64()).unwrap_or(0.0),
            burn_alerts: s.get("burn_alerts").and_then(|v| v.as_u64()).unwrap_or(0),
            target,
        }));
    }
}

fn extract_run_export(doc: &JsonValue, run: &str, path: &Path, ex: &mut Extraction) {
    if let Some(incidents) = doc
        .get("ledger")
        .and_then(|l| l.get("incidents"))
        .and_then(|v| v.as_arr())
    {
        for (i, inc) in incidents.iter().enumerate() {
            match extract_incident(inc, run) {
                Ok(rec) => ex.records.push(Rec::Incident(rec)),
                Err(e) => ex
                    .warnings
                    .push(format!("{}: incidents[{i}]: {e}", path.display())),
            }
        }
    }
    if let Some(events) = doc
        .get("trace")
        .and_then(|t| t.get("events"))
        .and_then(|v| v.as_arr())
    {
        for (i, ev) in events.iter().enumerate() {
            match extract_trace_event(ev, run) {
                Ok(rec) => ex.records.push(Rec::Trace(rec)),
                Err(e) => ex
                    .warnings
                    .push(format!("{}: events[{i}]: {e}", path.display())),
            }
        }
    }
}

fn extract_incident(inc: &JsonValue, run: &str) -> Result<IncidentRec, String> {
    let id = inc
        .get("id")
        .and_then(|v| v.as_u64())
        .ok_or("incident without id")?;
    let mut attempts = Vec::new();
    if let Some(arr) = inc.get("attempts").and_then(|v| v.as_arr()) {
        for a in arr {
            attempts.push(AttemptRec {
                at: a.get("at").and_then(|v| v.as_u64()).unwrap_or(0),
                actor: a
                    .get("actor")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
                action: a
                    .get("action")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string(),
                resolved: a.get("resolved").and_then(|v| v.as_bool()).unwrap_or(false),
            });
        }
    }
    let opt_str =
        |key: &str| -> Option<String> { inc.get(key).and_then(|v| v.as_str()).map(String::from) };
    let failure_class = opt_str("failure_class").ok_or("incident without failure_class")?;
    FailureClass::parse(&failure_class)
        .ok_or_else(|| format!("incident with unknown failure_class {failure_class:?}"))?;
    let is_actionable = inc
        .get("is_actionable")
        .and_then(|v| v.as_bool())
        .ok_or("incident without is_actionable")?;
    Ok(IncidentRec {
        run: run.to_string(),
        id,
        category: opt_str("category").unwrap_or_default(),
        service: opt_str("service").unwrap_or_default(),
        description: opt_str("description").unwrap_or_default(),
        onset: inc.get("onset").and_then(|v| v.as_u64()).unwrap_or(0),
        detected: inc.get("detected").and_then(|v| v.as_u64()),
        diagnosed: inc.get("diagnosed").and_then(|v| v.as_u64()),
        restored: inc.get("restored").and_then(|v| v.as_u64()),
        actor: opt_str("actor"),
        action: opt_str("action"),
        escalated: inc
            .get("escalated")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
        failure_class,
        is_actionable,
        attempts,
    })
}

fn extract_trace_event(ev: &JsonValue, run: &str) -> Result<TraceRec, String> {
    // Run exports embed the spill-JSONL object per event.
    if !matches!(ev, JsonValue::Obj(_)) {
        return Err("event is not an object".to_string());
    }
    Ok(TraceRec {
        run: run.to_string(),
        seq: ev
            .get("seq")
            .and_then(|v| v.as_u64())
            .ok_or("event without seq")?,
        at: ev
            .get("at")
            .and_then(|v| v.as_u64())
            .ok_or("event without at")?,
        subsystem: ev
            .get("subsystem")
            .and_then(|v| v.as_str())
            .ok_or("event without subsystem")?
            .to_string(),
        code: ev
            .get("code")
            .and_then(|v| v.as_str())
            .ok_or("event without code")?
            .to_string(),
        corr: ev.get("corr").and_then(|v| v.as_u64()),
        detail: ev
            .get("detail")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_event_carries_corr() {
        let doc =
            jsonv::parse("{\"seq\":1,\"at\":2,\"subsystem\":\"agent\",\"code\":\"detect\",\"corr\":4,\"detail\":\"d\"}")
                .unwrap();
        let rec = extract_trace_event(&doc, "r").unwrap();
        assert_eq!(rec.corr, Some(4));
        assert_eq!(rec.code, "detect");
    }
}
