//! The metric registry and the result line.
//!
//! Every metric the benchmark prints is declared here, and the result
//! line is rendered from these declarations only: a value the run did
//! not produce, or produced under an undeclared name, is an error rather
//! than a silently different result. A test holds the declarations to
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use intelliqos_core::WorldEvent;

use crate::workload::{AGENT_DAYS, QUERY_INDEXES};

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("export_s", "s"),
    ("ingest_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
];

/// Agent sweeps the program's profiler times, by span suffix.
pub const SWEEPS: [&str; 4] = ["service", "os-resource", "hardware", "status"];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for kind in WorldEvent::KINDS {
        m.push((format!("simkern.dispatch.{kind}.n"), "count"));
        for stat in ["p50", "p99", "total"] {
            m.push((format!("simkern.dispatch_ns.{kind}.{stat}"), "ns"));
        }
    }
    let fixed: [(&str, &'static str); 24] = [
        ("simkern.events", "count"),
        ("simkern.trace_events", "count"),
        ("simkern.trace_dropped", "count"),
        ("simkern.trace_overhead_s", "s"),
        ("cluster.fs.files_per_host.mean", "count"),
        ("cluster.fs.files_per_host.max", "count"),
        ("cluster.fs.list_ns", "ns"),
        ("cluster.fs.clear_flags_ns", "ns"),
        ("cluster.faults.inject_ns.p99", "ns"),
        ("cluster.faults.inject_ns.max", "ns"),
        ("core.admin.dgspl_generate_ns", "ns"),
        ("core.admin.missing_flags_ns", "ns"),
        ("telemetry.perf_sweep_ns", "ns"),
        ("lsf.dispatch_ns", "ns"),
        ("lsf.dispatched", "count"),
        ("core.ledger.incidents", "count"),
        ("core.ledger.auto_repaired_ratio", "ratio"),
        ("core.ledger.year1_err_pct", "%"),
        ("core.slo.report_ns", "ns"),
        ("core.jsonv.parse_ns", "ns"),
        ("core.jsonv.bytes", "bytes"),
        ("evdb.extract_ns", "ns"),
        ("evdb.records", "count"),
        ("evdb.segments", "count"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for sweep in SWEEPS {
        m.push((format!("core.agents.sweep_ns.{sweep}"), "ns"));
        m.push((format!("core.agents.call_ns.{sweep}"), "ns"));
    }
    for index in QUERY_INDEXES {
        m.push((format!("evdb.query_ns.{index}"), "ns"));
    }
    m.push(("evdb.rows_loaded_ratio".to_string(), "ratio"));
    m.push(("evdb.scan_ns".to_string(), "ns"));
    for day in 1..=AGENT_DAYS {
        m.push((format!("core.world.day_s.{day}"), "s"));
    }
    m
}

/// The declarations one run prints.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Render the result line: exactly the declared metrics, each with its
/// unit and every digit of its value.
pub fn render(
    declared: &[(String, &'static str)],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use intelliqos_core::jsonv::{self, JsonValue};

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        jsonv::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("array")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(JsonValue::as_str).map(str::to_string);
                let name = field("name").expect("name");
                (name, field("unit").unwrap_or_default())
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn pairs(declared: Vec<(String, &str)>) -> Vec<(String, String)> {
        declared
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let doc = manifest();
        assert_eq!(pairs(declared(false)), entries(&doc, "end_to_end"));
        assert_eq!(pairs(declared(true)), entries(&doc, "per_layer"));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = declared(false).into_iter().map(|(n, _)| n).collect();
        all.extend(declared(true).into_iter().map(|(n, _)| n));
        all.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        assert!(declared(true).len() <= 128);
    }

    #[test]
    fn workloads_match_the_manifest() {
        let names: Vec<String> = entries(&manifest(), "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn render_refuses_missing_and_undeclared_values() {
        let declared = declared(false);
        let mut values: Values = declared.iter().map(|(n, _)| (n.clone(), 1.5)).collect();
        let line = render(&declared, &values, true, 3, 0).expect("complete");
        let doc = jsonv::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(3));
        values.insert("bogus".to_string(), 1.0);
        assert!(render(&declared, &values, true, 3, 0).is_err());
        values.remove("bogus");
        values.remove("run_s");
        assert!(render(&declared, &values, true, 3, 0).is_err());
    }
}
