//! `evdb` — ingest, query, and diff the evidence store.
//!
//! ```text
//! evdb ingest [EVIDENCE_DIR] [--store DIR]
//! evdb query  [--store DIR | --scan EVIDENCE_DIR] [--kind inc|trc|slo]
//!             [--run R] [--service S] [--category C] [--subsystem S]
//!             [--class C] [--actionable true|false]
//!             [--corr N] [--window T0..T1] [--stats]
//! evdb diff RUN_A RUN_B [--store DIR]
//! ```
//!
//! `ingest` deterministically rebuilds the store from the evidence
//! directory, re-parsing every file. `query` answers from
//! the index by default; `--scan` answers from the linear reference
//! scan instead — the two print byte-identical lines for the same
//! filter, which CI checks. `--category` takes an incident category
//! label or a registered trace event code, `--subsystem` a registered
//! subsystem tag, and `--class` one of the three failure-class labels
//! (`service-fault`, `client-workload`, `transient-abort`); anything
//! outside that closed world is rejected with a suggestion rather than
//! answered emptily. `--actionable` filters incidents on whether they
//! count against the error budget. `--stats` writes
//! `query_report.json` (indexed mode) with the `source_files_read`
//! counter that proves the index never re-opened raw evidence. `diff`
//! contrasts two runs side by side.

use std::path::PathBuf;
use std::process::ExitCode;

use intelliqos_evdb::{diff_runs, scan_query, Kind, Query, Store};

const DEFAULT_EVIDENCE: &str = "results/evidence";
const DEFAULT_STORE: &str = "results/evdb";

fn usage() -> ExitCode {
    eprintln!(
        "usage: evdb ingest [EVIDENCE_DIR] [--store DIR]\n       \
         evdb query [--store DIR | --scan EVIDENCE_DIR] [--kind inc|trc|slo] [--run R]\n              \
         [--service S] [--category C] [--subsystem S] [--class C] [--actionable true|false]\n              \
         [--corr N] [--window T0..T1] [--stats]\n       \
         evdb diff RUN_A RUN_B [--store DIR]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("evdb: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => usage(),
    }
}

fn cmd_ingest(args: &[String]) -> ExitCode {
    let mut evidence = PathBuf::from(DEFAULT_EVIDENCE);
    let mut store = PathBuf::from(DEFAULT_STORE);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => match it.next() {
                Some(dir) => store = PathBuf::from(dir),
                None => return fail("--store needs a directory"),
            },
            flag if flag.starts_with("--") => return usage(),
            dir => evidence = PathBuf::from(dir),
        }
    }
    match Store::build(&evidence, &store) {
        Ok(report) => {
            for w in &report.warnings {
                eprintln!("evdb: warning: {w}");
            }
            println!(
                "evdb: ingested {} records from {} source file(s) into {} \
                 ({} segment(s), {} index file(s), {} warning(s))",
                report.records,
                report.sources.len(),
                store.display(),
                report.segments,
                report.index_files,
                report.warnings.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_query(args: &[String]) -> ExitCode {
    let mut store_dir = PathBuf::from(DEFAULT_STORE);
    let mut scan_dir: Option<PathBuf> = None;
    let mut stats_flag = false;
    let mut q = Query::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, ExitCode> {
            it.next()
                .cloned()
                .ok_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--store" => match value("--store") {
                Ok(v) => store_dir = PathBuf::from(v),
                Err(code) => return code,
            },
            "--scan" => match value("--scan") {
                Ok(v) => scan_dir = Some(PathBuf::from(v)),
                Err(code) => return code,
            },
            "--kind" => match value("--kind") {
                Ok(v) => match Kind::from_tag(&v) {
                    Some(k) => q.kind = Some(k),
                    None => return fail(&format!("unknown kind {v:?} (inc|trc|slo)")),
                },
                Err(code) => return code,
            },
            "--run" => match value("--run") {
                Ok(v) => q.run = Some(v),
                Err(code) => return code,
            },
            "--service" => match value("--service") {
                Ok(v) => q.service = Some(v),
                Err(code) => return code,
            },
            "--category" => match value("--category") {
                Ok(v) => q.category = Some(v),
                Err(code) => return code,
            },
            "--subsystem" => match value("--subsystem") {
                Ok(v) => q.subsystem = Some(v),
                Err(code) => return code,
            },
            "--class" => match value("--class") {
                Ok(v) => q.class = Some(v),
                Err(code) => return code,
            },
            "--actionable" => match value("--actionable") {
                Ok(v) => match v.as_str() {
                    "true" | "1" => q.actionable = Some(true),
                    "false" | "0" => q.actionable = Some(false),
                    other => return fail(&format!("bad --actionable {other:?} (true|false)")),
                },
                Err(code) => return code,
            },
            "--corr" => match value("--corr") {
                Ok(v) => match v.parse() {
                    Ok(n) => q.corr = Some(n),
                    Err(e) => return fail(&format!("bad --corr: {e}")),
                },
                Err(code) => return code,
            },
            "--window" => match value("--window") {
                Ok(v) => match Query::parse_window(&v) {
                    Ok(w) => q.window = Some(w),
                    Err(e) => return fail(&e),
                },
                Err(code) => return code,
            },
            "--stats" => stats_flag = true,
            _ => return usage(),
        }
    }

    // Operator-facing closed-world check: a typo'd category or
    // subsystem is an error here, never an empty answer.
    if let Err(e) = q.validate() {
        return fail(&e);
    }

    if let Some(dir) = scan_dir {
        return match scan_query(&dir, &q) {
            Ok((recs, stats, warnings)) => {
                for w in &warnings {
                    eprintln!("evdb: warning: {w}");
                }
                for rec in &recs {
                    println!("{}", rec.render_line());
                }
                if stats_flag {
                    eprintln!(
                        "evdb: scan: {} source file(s), {} byte(s), {} row(s) matched",
                        stats.source_files_read, stats.bytes_read, stats.rows_matched
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }

    let store = match Store::open(&store_dir) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    match store.query(&q) {
        Ok((recs, stats)) => {
            for rec in &recs {
                println!("{}", rec.render_line());
            }
            if stats_flag {
                eprintln!(
                    "evdb: index: {} index file(s), {} segment(s), {} row(s) loaded, \
                     {} matched, {} byte(s), {} source file(s) re-read",
                    stats.index_files_read,
                    stats.segments_read,
                    stats.rows_loaded,
                    stats.rows_matched,
                    stats.bytes_read,
                    stats.source_files_read
                );
                if let Err(e) = store.write_query_report(&q, &stats) {
                    return fail(&e);
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut store_dir = PathBuf::from(DEFAULT_STORE);
    let mut runs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => match it.next() {
                Some(dir) => store_dir = PathBuf::from(dir),
                None => return fail("--store needs a directory"),
            },
            flag if flag.starts_with("--") => return usage(),
            run => runs.push(run.to_string()),
        }
    }
    let [run_a, run_b] = runs.as_slice() else {
        return usage();
    };
    let store = match Store::open(&store_dir) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let fetch = |run: &str| {
        store.query(&Query {
            run: Some(run.to_string()),
            ..Query::default()
        })
    };
    let a = match fetch(run_a) {
        Ok((recs, _)) => recs,
        Err(e) => return fail(&e),
    };
    let b = match fetch(run_b) {
        Ok((recs, _)) => recs,
        Err(e) => return fail(&e),
    };
    if a.is_empty() && b.is_empty() {
        let known = store.runs().join(", ");
        return fail(&format!("no records for either run; known runs: {known}"));
    }
    print!("{}", diff_runs(&a, run_a, &b, run_b));
    ExitCode::SUCCESS
}
