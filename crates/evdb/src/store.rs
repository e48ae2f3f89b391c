//! The indexed store: segments, secondary indexes, and the query
//! planner.
//!
//! ## On-disk layout (all flat ASCII, all deterministic)
//!
//! * `seg-%05d.evseg` — one segment per `(run, kind)` with records,
//!   written in canonical record order. First line is the header
//!   `evseg|1|{kind}|{run}|{rows}`; each following line is one escaped
//!   row ([`crate::model`]).
//! * `idx-{kind}-{field}.evx` — one secondary index per indexed field:
//!   sorted lines `key|seg:row seg:row ...`. The time index buckets
//!   instants into zero-padded hours so a window query is a
//!   lexicographic range over keys.
//! * `manifest.json` — segment/index catalogue plus the provenance of
//!   every ingested evidence file (path and byte size), so a validator
//!   can detect a stale store without rescanning chunk contents.
//! * `ingest_report.json` / `query_report.json` — machine-readable
//!   cost accounting; `query_report.json` carries the
//!   `source_files_read` counter that proves an indexed query never
//!   re-opened the raw evidence.
//!
//! Ingest is deterministic: same evidence in, same bytes out, and
//! re-ingesting is idempotent. [`Store::build`] is the only ingest
//! path; it re-parses everything.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use intelliqos_core::jsonv;

use crate::extract::{extract_dir, SourceFile};
use crate::model::{escape, unescape, Kind, Rec};
use crate::query::Query;

/// Posting lists under construction: `(kind, field) → key → refs`.
type PostingMap = BTreeMap<(Kind, &'static str), BTreeMap<String, Vec<(u64, u64)>>>;

/// The store catalogue file.
pub const STORE_MANIFEST: &str = "manifest.json";
/// The ingest cost report.
pub const INGEST_REPORT: &str = "ingest_report.json";
/// The last query's cost report.
pub const QUERY_REPORT: &str = "query_report.json";

// Version 2 added the failure-taxonomy columns (incident
// `failure_class`/`is_actionable`, SLO per-row `target`).
const SEG_VERSION: u64 = 2;

fn index_fields(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Incident => &[
            "corr",
            "service",
            "category",
            "class",
            "actionable",
            "run",
            "time",
        ],
        Kind::Trace => &["corr", "category", "subsystem", "run", "time"],
        Kind::Slo => &["service", "run"],
    }
}

/// Hour bucket, zero-padded so string order is numeric order.
fn time_bucket(at: u64) -> String {
    format!("{:012}", at / 3600)
}

/// Index keys a record contributes under `field` (empty = unindexed,
/// e.g. an uncorrelated trace event under `corr`).
fn field_keys(rec: &Rec, field: &str) -> Option<String> {
    match (rec, field) {
        (Rec::Incident(r), "corr") => Some(r.id.to_string()),
        (Rec::Incident(r), "service") => Some(r.service.clone()),
        (Rec::Incident(r), "category") => Some(r.category.clone()),
        (Rec::Incident(r), "class") => Some(r.failure_class.clone()),
        (Rec::Incident(r), "actionable") => Some(u8::from(r.is_actionable).to_string()),
        (Rec::Incident(r), "time") => Some(time_bucket(r.onset)),
        (Rec::Trace(r), "corr") => r.corr.map(|c| c.to_string()),
        (Rec::Trace(r), "category") => Some(r.code.clone()),
        (Rec::Trace(r), "subsystem") => Some(r.subsystem.clone()),
        (Rec::Trace(r), "time") => Some(time_bucket(r.at)),
        (Rec::Slo(r), "service") => Some(r.service.clone()),
        (_, "run") => Some(rec.run().to_string()),
        _ => None,
    }
}

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

/// One segment's catalogue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegMeta {
    /// Segment file name.
    pub file: String,
    /// Record kind the segment holds.
    pub kind: Kind,
    /// Run label of every record in it.
    pub run: String,
    /// Row count.
    pub rows: u64,
}

/// What one ingest produced.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Records ingested.
    pub records: u64,
    /// Segment files written.
    pub segments: u64,
    /// Index files written.
    pub index_files: u64,
    /// Evidence files read.
    pub sources: Vec<SourceFile>,
    /// Extraction warnings (truncated chunks, malformed rows).
    pub warnings: Vec<String>,
}

/// Cost counters for one indexed query. `source_files_read` is the
/// acceptance counter: it stays zero because an indexed query touches
/// only `idx-*.evx` and `seg-*.evseg` files, never the raw evidence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Index files opened.
    pub index_files_read: u64,
    /// Segment files opened.
    pub segments_read: u64,
    /// Rows materialised from segments.
    pub rows_loaded: u64,
    /// Rows satisfying the query.
    pub rows_matched: u64,
    /// Bytes read from store files.
    pub bytes_read: u64,
    /// Raw evidence files re-opened — always zero by construction.
    pub source_files_read: u64,
}

/// An opened store: the parsed manifest plus the directory handle.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    /// The evidence directory the store was built from, as given at
    /// ingest time.
    pub evidence_dir: String,
    /// Total records across all segments.
    pub records: u64,
    /// Segment catalogue, in file order.
    pub segments: Vec<SegMeta>,
    /// Index file names.
    pub indexes: Vec<String>,
    /// Provenance of every ingested evidence file.
    pub sources: Vec<SourceFile>,
}

impl Store {
    /// Build (or deterministically rebuild) the store under
    /// `store_dir` from the evidence under `evidence_dir`, re-parsing
    /// every evidence file.
    pub fn build(evidence_dir: &Path, store_dir: &Path) -> Result<IngestReport, String> {
        let ex = extract_dir(evidence_dir)?;
        let mut records = ex.records;
        records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));

        prepare_store_dir(store_dir)?;

        // Segments: one per (kind, run) group, in canonical order.
        let mut segments: Vec<SegMeta> = Vec::new();
        let mut postings: PostingMap = BTreeMap::new();
        let mut i = 0;
        while i < records.len() {
            let kind = records[i].kind();
            let run = records[i].run().to_string();
            let mut j = i;
            while j < records.len() && records[j].kind() == kind && records[j].run() == run {
                j += 1;
            }
            let seg_id = segments.len() as u64;
            let file = format!("seg-{seg_id:05}.evseg");
            let mut body = format!(
                "evseg|{SEG_VERSION}|{}|{}|{}\n",
                kind.tag(),
                escape(&run),
                j - i
            );
            for (row, rec) in records[i..j].iter().enumerate() {
                body.push_str(&rec.to_row());
                body.push('\n');
                for field in index_fields(kind) {
                    if let Some(key) = field_keys(rec, field) {
                        postings
                            .entry((kind, field))
                            .or_default()
                            .entry(key)
                            .or_default()
                            .push((seg_id, row as u64));
                    }
                }
            }
            std::fs::write(store_dir.join(&file), body)
                .map_err(|e| format!("write {file}: {e}"))?;
            segments.push(SegMeta {
                file,
                kind,
                run,
                rows: (j - i) as u64,
            });
            i = j;
        }

        // Indexes.
        let mut index_files: Vec<String> = Vec::new();
        for ((kind, field), keys) in &postings {
            let file = format!("idx-{}-{field}.evx", kind.tag());
            let mut body = String::new();
            for (key, refs) in keys {
                body.push_str(&escape(key));
                body.push('|');
                for (k, (seg, row)) in refs.iter().enumerate() {
                    if k > 0 {
                        body.push(' ');
                    }
                    body.push_str(&format!("{seg}:{row}"));
                }
                body.push('\n');
            }
            std::fs::write(store_dir.join(&file), body)
                .map_err(|e| format!("write {file}: {e}"))?;
            index_files.push(file);
        }

        write_manifest(
            store_dir,
            evidence_dir,
            records.len() as u64,
            &segments,
            &index_files,
            &ex.sources,
        )?;

        let report = IngestReport {
            records: records.len() as u64,
            segments: segments.len() as u64,
            index_files: index_files.len() as u64,
            sources: ex.sources,
            warnings: ex.warnings,
        };
        write_ingest_report(store_dir, &report)?;
        Ok(report)
    }

    /// Open an existing store by reading its manifest (and nothing
    /// else — segments and indexes load lazily per query).
    pub fn open(dir: &Path) -> Result<Store, String> {
        let path = dir.join(STORE_MANIFEST);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = jsonv::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("report").and_then(|v| v.as_str()) != Some("evdb_manifest") {
            return Err(format!("{}: not an evdb manifest", path.display()));
        }
        let mut segments = Vec::new();
        for (i, s) in doc
            .get("segments")
            .and_then(|v| v.as_arr())
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            let file = s
                .get("file")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("segments[{i}]: no file"))?;
            let kind = s
                .get("kind")
                .and_then(|v| v.as_str())
                .and_then(Kind::from_tag)
                .ok_or_else(|| format!("segments[{i}]: bad kind"))?;
            let run = s
                .get("run")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("segments[{i}]: no run"))?;
            let rows = s
                .get("rows")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("segments[{i}]: no rows"))?;
            segments.push(SegMeta {
                file: file.to_string(),
                kind,
                run: run.to_string(),
                rows,
            });
        }
        let indexes = doc
            .get("indexes")
            .and_then(|v| v.as_arr())
            .unwrap_or_default()
            .iter()
            .filter_map(|v| v.as_str().map(String::from))
            .collect();
        let sources = doc
            .get("sources")
            .and_then(|v| v.as_arr())
            .unwrap_or_default()
            .iter()
            .filter_map(|s| {
                Some(SourceFile {
                    rel: s.get("path").and_then(|v| v.as_str())?.to_string(),
                    bytes: s.get("bytes").and_then(|v| v.as_u64())?,
                })
            })
            .collect();
        Ok(Store {
            dir: dir.to_path_buf(),
            evidence_dir: doc
                .get("evidence_dir")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            records: doc.get("records").and_then(|v| v.as_u64()).unwrap_or(0),
            segments,
            indexes,
            sources,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every distinct run label in the store, sorted.
    pub fn runs(&self) -> Vec<String> {
        let mut runs: Vec<String> = self.segments.iter().map(|s| s.run.clone()).collect();
        runs.sort();
        runs.dedup();
        runs
    }

    /// Run `q` through the indexes. Returns matching records in
    /// canonical order plus the cost counters.
    pub fn query(&self, q: &Query) -> Result<(Vec<Rec>, QueryStats), String> {
        let mut stats = QueryStats::default();
        let mut out: Vec<Rec> = Vec::new();
        for kind in Kind::ALL {
            if !q.admits_kind(kind) {
                continue;
            }
            match self.plan(kind, q) {
                Plan::Index { field, lo, hi } => {
                    let postings = self.load_index(kind, field, &mut stats)?;
                    let mut refs: Vec<(u64, u64)> = postings
                        .range(lo..=hi)
                        .flat_map(|(_, v)| v.iter().copied())
                        .collect();
                    refs.sort_unstable();
                    refs.dedup();
                    self.load_refs(kind, &refs, q, &mut out, &mut stats)?;
                }
                Plan::Scan => {
                    for (seg_id, seg) in self.segments.iter().enumerate() {
                        if seg.kind != kind {
                            continue;
                        }
                        if q.run.as_deref().is_some_and(|r| seg.run != r) {
                            continue;
                        }
                        let rows = self.load_segment(seg_id as u64, None, &mut stats)?;
                        out.extend(rows.into_iter().filter(|r| q.matches(r)));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        stats.rows_matched = out.len() as u64;
        Ok((out, stats))
    }

    fn plan(&self, kind: Kind, q: &Query) -> Plan {
        let has = |f: &str| index_fields(kind).contains(&f);
        if let Some(c) = q.corr {
            if has("corr") {
                return Plan::exact("corr", c.to_string());
            }
        }
        if let Some(s) = &q.service {
            if has("service") {
                return Plan::exact("service", s.clone());
            }
        }
        if let Some(c) = &q.category {
            if has("category") {
                return Plan::exact("category", c.clone());
            }
        }
        if let Some(s) = &q.subsystem {
            if has("subsystem") {
                return Plan::exact("subsystem", s.clone());
            }
        }
        if let Some(c) = &q.class {
            if has("class") {
                return Plan::exact("class", c.clone());
            }
        }
        if let Some(a) = q.actionable {
            if has("actionable") {
                return Plan::exact("actionable", u8::from(a).to_string());
            }
        }
        if let Some(r) = &q.run {
            return Plan::exact("run", r.clone());
        }
        if let Some((t0, t1)) = q.window {
            if has("time") {
                return Plan::Index {
                    field: "time",
                    lo: time_bucket(t0),
                    hi: time_bucket(t1),
                };
            }
        }
        Plan::Scan
    }

    fn load_index(
        &self,
        kind: Kind,
        field: &str,
        stats: &mut QueryStats,
    ) -> Result<BTreeMap<String, Vec<(u64, u64)>>, String> {
        let name = format!("idx-{}-{field}.evx", kind.tag());
        let mut map = BTreeMap::new();
        if !self.indexes.iter().any(|i| i == &name) {
            return Ok(map); // no records of this kind were indexed
        }
        let path = self.dir.join(&name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        stats.index_files_read += 1;
        stats.bytes_read += text.len() as u64;
        for (lineno, line) in text.lines().enumerate() {
            let (key, refs) = line
                .split_once('|')
                .ok_or_else(|| format!("{name}:{}: no key separator", lineno + 1))?;
            let key = unescape(key).map_err(|e| format!("{name}:{}: {e}", lineno + 1))?;
            let mut list = Vec::new();
            for part in refs.split(' ').filter(|p| !p.is_empty()) {
                let (seg, row) = part
                    .split_once(':')
                    .ok_or_else(|| format!("{name}:{}: bad ref {part:?}", lineno + 1))?;
                let seg: u64 = seg
                    .parse()
                    .map_err(|e| format!("{name}:{}: bad seg: {e}", lineno + 1))?;
                let row: u64 = row
                    .parse()
                    .map_err(|e| format!("{name}:{}: bad row: {e}", lineno + 1))?;
                list.push((seg, row));
            }
            map.insert(key, list);
        }
        Ok(map)
    }

    /// Load specific `(seg, row)` refs (sorted), filter, and append.
    fn load_refs(
        &self,
        kind: Kind,
        refs: &[(u64, u64)],
        q: &Query,
        out: &mut Vec<Rec>,
        stats: &mut QueryStats,
    ) -> Result<(), String> {
        let mut i = 0;
        while i < refs.len() {
            let seg_id = refs[i].0;
            let mut rows = Vec::new();
            while i < refs.len() && refs[i].0 == seg_id {
                rows.push(refs[i].1);
                i += 1;
            }
            let seg = self
                .segments
                .get(seg_id as usize)
                .ok_or_else(|| format!("index references unknown segment {seg_id}"))?;
            if seg.kind != kind {
                return Err(format!(
                    "index for {} references {} segment {seg_id}",
                    kind.tag(),
                    seg.kind.tag()
                ));
            }
            let recs = self.load_segment(seg_id, Some(&rows), stats)?;
            out.extend(recs.into_iter().filter(|r| q.matches(r)));
        }
        Ok(())
    }

    /// Load a segment; `rows` restricts to specific row numbers
    /// (sorted), `None` loads everything.
    fn load_segment(
        &self,
        seg_id: u64,
        rows: Option<&[u64]>,
        stats: &mut QueryStats,
    ) -> Result<Vec<Rec>, String> {
        let seg = self
            .segments
            .get(seg_id as usize)
            .ok_or_else(|| format!("unknown segment {seg_id}"))?;
        let path = self.dir.join(&seg.file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        stats.segments_read += 1;
        stats.bytes_read += text.len() as u64;
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let (kind, run, declared) =
            parse_segment_header(header).map_err(|e| format!("{}: {e}", path.display()))?;
        if kind != seg.kind || run != seg.run || declared != seg.rows {
            return Err(format!(
                "{}: header disagrees with manifest",
                path.display()
            ));
        }
        let mut out = Vec::new();
        let mut want = rows.map(|r| r.iter().copied().peekable());
        for (row_no, line) in lines.enumerate() {
            let take = match &mut want {
                None => true,
                Some(it) => {
                    if it.peek() == Some(&(row_no as u64)) {
                        it.next();
                        true
                    } else {
                        false
                    }
                }
            };
            if take {
                let rec = Rec::from_row(seg.kind, &seg.run, line)
                    .map_err(|e| format!("{}:{}: {e}", path.display(), row_no + 2))?;
                out.push(rec);
                stats.rows_loaded += 1;
            }
        }
        Ok(out)
    }

    /// Structural validation for `evidence_check --evdb`: every
    /// catalogued file exists and agrees with the manifest, postings
    /// stay in bounds, and — crucially — every ingested evidence file
    /// still exists with the ingested byte size, so a stale store
    /// cannot silently answer for evidence that changed under it.
    /// Spill manifests among the sources are re-read (they are tiny)
    /// to keep the `io_errors == 0` guarantee without rescanning any
    /// chunk.
    pub fn validate(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let mut total_rows = 0u64;
        for seg in &self.segments {
            total_rows += seg.rows;
            let path = self.dir.join(&seg.file);
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    findings.push(format!("{}: unreadable: {e}", path.display()));
                    continue;
                }
            };
            let mut lines = text.lines();
            match parse_segment_header(lines.next().unwrap_or("")) {
                Ok((kind, run, rows)) => {
                    if kind != seg.kind || run != seg.run || rows != seg.rows {
                        findings.push(format!(
                            "{}: header disagrees with manifest",
                            path.display()
                        ));
                    }
                }
                Err(e) => findings.push(format!("{}: {e}", path.display())),
            }
            let mut body_rows = 0u64;
            for (row_no, line) in lines.enumerate() {
                body_rows += 1;
                if let Err(e) = Rec::from_row(seg.kind, &seg.run, line) {
                    findings.push(format!("{}:{}: {e}", path.display(), row_no + 2));
                }
            }
            if body_rows != seg.rows {
                findings.push(format!(
                    "{}: {body_rows} rows, manifest promises {}",
                    path.display(),
                    seg.rows
                ));
            }
        }
        if total_rows != self.records {
            findings.push(format!(
                "segments hold {total_rows} rows, manifest promises {}",
                self.records
            ));
        }
        for name in &self.indexes {
            let path = self.dir.join(name);
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    findings.push(format!("{}: unreadable: {e}", path.display()));
                    continue;
                }
            };
            for (lineno, line) in text.lines().enumerate() {
                let Some((_, refs)) = line.split_once('|') else {
                    findings.push(format!("{name}:{}: no key separator", lineno + 1));
                    continue;
                };
                for part in refs.split(' ').filter(|p| !p.is_empty()) {
                    let parsed = part
                        .split_once(':')
                        .and_then(|(s, r)| Some((s.parse::<u64>().ok()?, r.parse::<u64>().ok()?)));
                    match parsed {
                        Some((seg, row)) => {
                            let in_bounds = self
                                .segments
                                .get(seg as usize)
                                .is_some_and(|m| row < m.rows);
                            if !in_bounds {
                                findings.push(format!(
                                    "{name}:{}: ref {part} out of bounds",
                                    lineno + 1
                                ));
                            }
                        }
                        None => findings.push(format!("{name}:{}: bad ref {part:?}", lineno + 1)),
                    }
                }
            }
        }
        let evidence_root = PathBuf::from(&self.evidence_dir);
        for src in &self.sources {
            let path = evidence_root.join(&src.rel);
            match std::fs::metadata(&path) {
                Ok(m) if m.len() == src.bytes => {}
                Ok(m) => findings.push(format!(
                    "{}: {} bytes now, {} at ingest (stale store — re-ingest)",
                    path.display(),
                    m.len(),
                    src.bytes
                )),
                Err(e) => findings.push(format!(
                    "{}: source gone: {e} (stale store — re-ingest)",
                    path.display()
                )),
            }
            if src.rel.ends_with("manifest.json") {
                check_spill_manifest(&path, &mut findings);
            }
        }
        findings
    }

    /// Write `query_report.json` describing the last query's cost —
    /// the exported evidence that an indexed answer skipped the raw
    /// evidence entirely.
    pub fn write_query_report(&self, q: &Query, stats: &QueryStats) -> Result<PathBuf, String> {
        let path = self.dir.join(QUERY_REPORT);
        let window = q
            .window
            .map_or_else(|| "null".to_string(), |(a, b)| format!("\"{a}..{b}\""));
        let body = format!(
            "{{\n  \"report\": \"evdb_query\",\n  \"query\": {{\n    \"kind\": {},\n    \
             \"run\": {},\n    \"service\": {},\n    \"category\": {},\n    \"subsystem\": {},\n    \
             \"class\": {},\n    \"actionable\": {},\n    \"corr\": {},\n    \
             \"window\": {}\n  }},\n  \"stats\": {{\n    \"index_files_read\": {},\n    \
             \"segments_read\": {},\n    \"rows_loaded\": {},\n    \"rows_matched\": {},\n    \
             \"bytes_read\": {},\n    \"source_files_read\": {}\n  }}\n}}\n",
            q.kind
                .map_or_else(|| "null".to_string(), |k| json_str(k.tag())),
            q.run
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            q.service
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            q.category
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            q.subsystem
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            q.class
                .as_deref()
                .map_or_else(|| "null".to_string(), json_str),
            q.actionable
                .map_or_else(|| "null".to_string(), |a| a.to_string()),
            q.corr.map_or_else(|| "null".to_string(), |c| c.to_string()),
            window,
            stats.index_files_read,
            stats.segments_read,
            stats.rows_loaded,
            stats.rows_matched,
            stats.bytes_read,
            stats.source_files_read,
        );
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

enum Plan {
    Index {
        field: &'static str,
        lo: String,
        hi: String,
    },
    Scan,
}

impl Plan {
    fn exact(field: &'static str, key: String) -> Plan {
        Plan::Index {
            field,
            lo: key.clone(),
            hi: key,
        }
    }
}

fn parse_segment_header(header: &str) -> Result<(Kind, String, u64), String> {
    let f: Vec<&str> = header.split('|').collect();
    if f.len() != 5 || f[0] != "evseg" {
        return Err(format!("bad segment header {header:?}"));
    }
    if f[1] != SEG_VERSION.to_string() {
        return Err(format!("unsupported segment version {:?}", f[1]));
    }
    let kind = Kind::from_tag(f[2]).ok_or_else(|| format!("bad segment kind {:?}", f[2]))?;
    let run = unescape(f[3])?;
    let rows: u64 = f[4]
        .parse()
        .map_err(|e| format!("bad segment row count: {e}"))?;
    Ok((kind, run, rows))
}

fn check_spill_manifest(path: &Path, findings: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // already reported as a missing source
    };
    let Ok(doc) = jsonv::parse(&text) else {
        findings.push(format!("{}: spill manifest unparsable", path.display()));
        return;
    };
    if doc.get("report").and_then(|v| v.as_str()) != Some("trace_spill") {
        return; // some other manifest.json; not a spill
    }
    match doc.get("io_errors").and_then(|v| v.as_u64()) {
        Some(0) => {}
        Some(n) => findings.push(format!(
            "{}: spill manifest reports {n} io error(s)",
            path.display()
        )),
        None => findings.push(format!(
            "{}: spill manifest missing io_errors count",
            path.display()
        )),
    }
}

fn prepare_store_dir(store_dir: &Path) -> Result<(), String> {
    if store_dir.exists() {
        let manifest = store_dir.join(STORE_MANIFEST);
        let is_store = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|t| jsonv::parse(&t).ok())
            .and_then(|d| d.get("report").and_then(|v| v.as_str().map(String::from)))
            .as_deref()
            == Some("evdb_manifest");
        let empty = std::fs::read_dir(store_dir)
            .map(|mut d| d.next().is_none())
            .unwrap_or(false);
        if !is_store && !empty {
            return Err(format!(
                "{}: exists and is not an evdb store; refusing to clobber",
                store_dir.display()
            ));
        }
        std::fs::remove_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    }
    std::fs::create_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))
}

fn write_manifest(
    store_dir: &Path,
    evidence_dir: &Path,
    records: u64,
    segments: &[SegMeta],
    indexes: &[String],
    sources: &[SourceFile],
) -> Result<(), String> {
    let mut out = String::from("{\n  \"report\": \"evdb_manifest\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"evidence_dir\": {},\n  \"records\": {records},\n",
        json_str(&evidence_dir.display().to_string())
    ));
    out.push_str("  \"segments\": [");
    for (i, s) in segments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"kind\": {}, \"run\": {}, \"rows\": {}}}",
            json_str(&s.file),
            json_str(s.kind.tag()),
            json_str(&s.run),
            s.rows
        ));
    }
    if !segments.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"indexes\": [");
    for (i, name) in indexes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}", json_str(name)));
    }
    if !indexes.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"sources\": [");
    for (i, s) in sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"bytes\": {}}}",
            json_str(&s.rel),
            s.bytes
        ));
    }
    if !sources.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    let path = store_dir.join(STORE_MANIFEST);
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_ingest_report(store_dir: &Path, report: &IngestReport) -> Result<(), String> {
    let mut out = String::from("{\n  \"report\": \"evdb_ingest\",\n");
    out.push_str(&format!(
        "  \"records\": {},\n  \"segments\": {},\n  \"index_files\": {},\n  \"sources\": {},\n",
        report.records,
        report.segments,
        report.index_files,
        report.sources.len()
    ));
    out.push_str("  \"warnings\": [");
    for (i, w) in report.warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}", json_str(w)));
    }
    if !report.warnings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    let path = store_dir.join(INGEST_REPORT);
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}
