//! Structured event tracing for the simulation kernel.
//!
//! Every subsystem (fault injector, intelliagents, admin pair, LSF
//! dispatcher, baseline ops) can emit structured events into a single
//! [`Trace`] owned by the run. The trace is **zero-cost when disabled**:
//! `emit` takes the detail as a closure and returns before evaluating it
//! unless tracing is on, so a production run pays one branch per call
//! site and nothing else.
//!
//! Retention is pluggable behind the [`TraceSink`] trait:
//!
//! * [`RingSink`] follows the paper's circular-measurement-file
//!   discipline (§3.5): a bounded ring keeps the most recent events,
//!   per-subsystem counters keep exact lifetime totals even after
//!   eviction.
//! * [`SpillSink`] is the flight recorder: every event is appended to
//!   chunked JSONL files on disk (nothing is ever lost), while a
//!   bounded in-memory tail keeps recent events available to
//!   in-process consumers (divergence finder, `triage`).
//!
//! Rendered lines use the same pipe-delimited flat-ASCII shape as the
//! ontology documents, so a trace dump greps like everything else in
//! the system.
//!
//! Events may carry a **correlation id** (the incident id they belong
//! to) so a post-hoc reader can reassemble the complete causal
//! timeline of one incident: inject → detect → diagnose → heal or
//! escalate. Correlation ids never appear in the rendered pipe lines —
//! the flat-ASCII shape is stable — but they are written to spill
//! records and are queryable in-process.

use std::io::Write;
use std::path::PathBuf;

use crate::ring::CircularQueue;
use crate::time::SimTime;

/// Which layer of the system emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The fault tape / injector.
    Fault,
    /// Any intelliagent sweep.
    Agent,
    /// The administration-pair (DLSP collection, DGSPL regeneration,
    /// rescheduling decisions).
    Admin,
    /// The LSF-like batch dispatcher.
    Lsf,
    /// Manual-operations baseline (human detection/repair).
    Manual,
    /// Workload tape: job arrivals and completions.
    Workload,
    /// The simulation kernel itself (run lifecycle markers).
    Kernel,
    /// The online SLO observatory (availability budgets, burn alerts).
    Slo,
}

impl Subsystem {
    /// All subsystems, in counter order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Fault,
        Subsystem::Agent,
        Subsystem::Admin,
        Subsystem::Lsf,
        Subsystem::Manual,
        Subsystem::Workload,
        Subsystem::Kernel,
        Subsystem::Slo,
    ];

    /// Short lower-case tag used in rendered lines.
    pub fn tag(self) -> &'static str {
        match self {
            Subsystem::Fault => "fault",
            Subsystem::Agent => "agent",
            Subsystem::Admin => "admin",
            Subsystem::Lsf => "lsf",
            Subsystem::Manual => "manual",
            Subsystem::Workload => "work",
            Subsystem::Kernel => "kern",
            Subsystem::Slo => "slo",
        }
    }

    /// Inverse of [`Subsystem::tag`]; used by CLI subsystem filters and
    /// evidence readers.
    pub fn from_tag(tag: &str) -> Option<Subsystem> {
        Subsystem::ALL.iter().copied().find(|s| s.tag() == tag)
    }

    fn index(self) -> usize {
        match self {
            Subsystem::Fault => 0,
            Subsystem::Agent => 1,
            Subsystem::Admin => 2,
            Subsystem::Lsf => 3,
            Subsystem::Manual => 4,
            Subsystem::Workload => 5,
            Subsystem::Kernel => 6,
            Subsystem::Slo => 7,
        }
    }
}

/// One declared trace category: a `(Subsystem, code)` pair plus the
/// one-line documentation that makes the taxonomy reviewable.
///
/// The registry below is the **closed world** of trace categories.
/// Three layers consume it: `Trace::emit`/`emit_corr` panic on an
/// unregistered pair (when tracing is enabled), qoslint's trace
/// ontology rules check every emit call site statically, and evdb
/// validates `--category` / `--subsystem` query arguments against it —
/// so a typo'd category can neither be emitted, committed, nor silently
/// queried into an empty result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategorySpec {
    /// The only subsystem allowed to emit this code.
    pub subsystem: Subsystem,
    /// The machine-stable event code, e.g. `"db-crash"`.
    pub code: &'static str,
    /// What an event with this code means. Must be non-empty — the
    /// `trace-undocumented` lint rule and a unit test both enforce it.
    pub doc: &'static str,
}

/// Every `(Subsystem, code)` pair the system may emit. Adding a
/// category means adding a row here (with documentation) *first*; both
/// the runtime validator and the static checker refuse anything else.
pub const TRACE_REGISTRY: &[CategorySpec] = &[
    CategorySpec {
        subsystem: Subsystem::Fault,
        code: "inject",
        doc: "the fault tape injected a fault into the world",
    },
    CategorySpec {
        subsystem: Subsystem::Fault,
        code: "db-crash",
        doc: "the mid-job database crash mechanism fired",
    },
    CategorySpec {
        subsystem: Subsystem::Agent,
        code: "diagnose",
        doc: "an intelliagent sweep pinned a fault down to a cause",
    },
    CategorySpec {
        subsystem: Subsystem::Agent,
        code: "local-heal",
        doc: "an intelliagent repaired the fault locally on the server",
    },
    CategorySpec {
        subsystem: Subsystem::Agent,
        code: "e2e-fail",
        doc: "an end-to-end probe failed: detected, but not locally repairable",
    },
    CategorySpec {
        subsystem: Subsystem::Agent,
        code: "restore",
        doc: "an agent-driven service restart brought the service back",
    },
    CategorySpec {
        subsystem: Subsystem::Admin,
        code: "cron-repair",
        doc: "the admin pair re-enabled a disabled crontab",
    },
    CategorySpec {
        subsystem: Subsystem::Admin,
        code: "resubmit",
        doc: "the admin pair resubmitted jobs killed by a fault",
    },
    CategorySpec {
        subsystem: Subsystem::Admin,
        code: "dgspl",
        doc: "DGSPL regeneration produced a new dispatch schedule",
    },
    CategorySpec {
        subsystem: Subsystem::Lsf,
        code: "dispatch",
        doc: "the dispatcher placed a batch job on a server",
    },
    CategorySpec {
        subsystem: Subsystem::Lsf,
        code: "done",
        doc: "a batch job ran to completion",
    },
    CategorySpec {
        subsystem: Subsystem::Manual,
        code: "pipeline",
        doc: "the human detection/paging/repair pipeline was scheduled",
    },
    CategorySpec {
        subsystem: Subsystem::Manual,
        code: "restore",
        doc: "a human repair closed the incident",
    },
    CategorySpec {
        subsystem: Subsystem::Workload,
        code: "submit",
        doc: "the workload tape submitted a batch job",
    },
    CategorySpec {
        subsystem: Subsystem::Kernel,
        code: "run-start",
        doc: "a simulation run began",
    },
    CategorySpec {
        subsystem: Subsystem::Kernel,
        code: "run-end",
        doc: "a simulation run reached its horizon",
    },
    CategorySpec {
        subsystem: Subsystem::Kernel,
        code: "tick",
        doc: "kernel heartbeat used by the bench harness",
    },
    CategorySpec {
        subsystem: Subsystem::Slo,
        code: "burn-alert",
        doc: "an error-budget burn crossed the paging threshold",
    },
    CategorySpec {
        subsystem: Subsystem::Slo,
        code: "classified",
        doc: "an incident was assigned its failure class at ledger close",
    },
    CategorySpec {
        subsystem: Subsystem::Slo,
        code: "burn-scope",
        doc: "a run declared which failure classes burn the error budget",
    },
];

/// Edit distance at or under which an unregistered code is reported as
/// a near-miss of a registered one ("did you mean ...?").
pub const NEAR_MISS_DISTANCE: usize = 2;

/// Look a `(subsystem, code)` pair up in the registry.
pub fn registry_lookup(subsystem: Subsystem, code: &str) -> Option<&'static CategorySpec> {
    TRACE_REGISTRY
        .iter()
        .find(|s| s.subsystem == subsystem && s.code == code)
}

/// All registered codes, sorted and deduplicated — the vocabulary evdb
/// accepts for trace category queries.
pub fn registered_codes() -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = TRACE_REGISTRY.iter().map(|s| s.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Levenshtein edit distance, used for near-miss suggestions.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The registered code nearest to `code` by edit distance, with the
/// distance. `None` only when the registry is empty.
pub fn nearest_registered_code(code: &str) -> Option<(&'static str, usize)> {
    registered_codes()
        .into_iter()
        .map(|c| (c, edit_distance(code, c)))
        .min_by_key(|&(c, d)| (d, c))
}

/// Check a `(subsystem, code)` pair against the registry. The error
/// string distinguishes the three failure modes — wrong subsystem,
/// near-miss typo, and plain unknown — because each wants a different
/// fix.
pub fn validate_category(subsystem: Subsystem, code: &str) -> Result<(), String> {
    if registry_lookup(subsystem, code).is_some() {
        return Ok(());
    }
    let elsewhere: Vec<&'static str> = TRACE_REGISTRY
        .iter()
        .filter(|s| s.code == code)
        .map(|s| s.subsystem.tag())
        .collect();
    if !elsewhere.is_empty() {
        return Err(format!(
            "trace category {code:?} is registered under `{}`, not `{}`",
            elsewhere.join("`/`"),
            subsystem.tag()
        ));
    }
    match nearest_registered_code(code) {
        Some((near, d)) if d <= NEAR_MISS_DISTANCE => Err(format!(
            "unregistered trace category ({}, {code:?}); did you mean {near:?}?",
            subsystem.tag()
        )),
        _ => Err(format!(
            "unregistered trace category ({}, {code:?}); declare it in \
             simkern::trace::TRACE_REGISTRY",
            subsystem.tag()
        )),
    }
}

/// One retained trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number over the trace's lifetime (0-based);
    /// survives ring eviction, so gaps at the front reveal how much
    /// history was dropped.
    pub seq: u64,
    /// Simulated time of the event.
    pub at: SimTime,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// Short machine-stable event code, e.g. `inject`, `detect`, `repair`.
    pub code: &'static str,
    /// Correlation id: the incident this event belongs to, when known.
    /// Not part of the rendered pipe line (the flat-ASCII shape is
    /// stable); written to spill records as `corr`.
    pub corr: Option<u64>,
    /// Free-form detail (already rendered; escaped on output).
    pub detail: String,
}

impl TraceEvent {
    /// Pipe-delimited single-line rendering:
    /// `seq|at_secs|subsystem|code|detail` with `|` and newlines escaped
    /// inside the detail so the line stays greppable and splittable.
    pub fn render(&self) -> String {
        let mut detail = String::with_capacity(self.detail.len());
        for ch in self.detail.chars() {
            match ch {
                '|' => detail.push_str("\\p"),
                '\\' => detail.push_str("\\\\"),
                '\n' => detail.push_str("\\n"),
                '\r' => detail.push_str("\\r"),
                c => detail.push(c),
            }
        }
        format!(
            "{}|{}|{}|{}|{}",
            self.seq,
            self.at.as_secs(),
            self.subsystem.tag(),
            self.code,
            detail
        )
    }

    /// One spill record: a single JSON object per line (JSONL). The
    /// `corr` key is present only when the event is incident-correlated.
    pub fn render_jsonl(&self) -> String {
        let mut line = String::with_capacity(self.detail.len() + 64);
        line.push_str("{\"seq\":");
        line.push_str(&self.seq.to_string());
        line.push_str(",\"at\":");
        line.push_str(&self.at.as_secs().to_string());
        line.push_str(",\"subsystem\":\"");
        line.push_str(self.subsystem.tag());
        line.push_str("\",\"code\":\"");
        line.push_str(self.code);
        line.push('"');
        if let Some(c) = self.corr {
            line.push_str(",\"corr\":");
            line.push_str(&c.to_string());
        }
        line.push_str(",\"detail\":\"");
        json_escape_into(&self.detail, &mut line);
        line.push_str("\"}");
        line
    }
}

/// Escape `s` for inclusion inside a JSON string literal.
fn json_escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Default ring capacity: enough for the interesting tail of a year-long
/// run without letting a pathological run grow without bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default spill chunk size, in records per JSONL chunk file.
pub const DEFAULT_CHUNK_RECORDS: usize = 65_536;

/// Name of the spill-directory manifest written by [`SpillSink::flush`].
pub const SPILL_MANIFEST: &str = "manifest.json";

/// Where recorded events go. The trace owns exactly one sink; the sink
/// decides what is retained in memory, what is persisted, and what is
/// dropped. Sinks are `Send` so traced worlds can run on the paired
/// before/after threads.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Consume one event. Events arrive in strictly increasing `seq`
    /// order.
    fn record(&mut self, ev: TraceEvent);

    /// Events still available in memory, oldest → newest. Spill sinks
    /// retain a bounded tail; the full stream lives on disk.
    fn retained(&self) -> Vec<&TraceEvent>;

    /// Events durably lost: evicted from a ring with no disk copy, or
    /// failed to reach disk. A spill sink that is keeping up reports 0.
    fn dropped(&self) -> u64;

    /// Per-subsystem breakdown of [`TraceSink::dropped`], in
    /// [`Subsystem::ALL`] order.
    fn dropped_by_subsystem(&self) -> [u64; Subsystem::ALL.len()];

    /// Retroactively attach a correlation id to the most recently
    /// recorded event. Used when an event is emitted just before the
    /// incident it belongs to is opened (e.g. the fault injector's
    /// `inject` line).
    fn set_last_corr(&mut self, corr: u64);

    /// Flush buffered output to durable storage (no-op for rings).
    fn flush(&mut self) -> Result<(), String>;

    /// Stable sink name for exports: `"ring"` or `"spill"`.
    fn kind(&self) -> &'static str;
}

/// The in-memory ring sink: one bounded ring of the most recent
/// events.
#[derive(Debug)]
pub struct RingSink {
    ring: CircularQueue<TraceEvent>,
    dropped_by: [u64; Subsystem::ALL.len()],
}

impl RingSink {
    /// A ring sink retaining the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            ring: CircularQueue::new(capacity),
            dropped_by: [0; Subsystem::ALL.len()],
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: TraceEvent) {
        if let Some(evicted) = self.ring.push(ev) {
            self.dropped_by[evicted.subsystem.index()] += 1;
        }
    }

    fn retained(&self) -> Vec<&TraceEvent> {
        self.ring.iter().collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped_by.iter().sum()
    }

    fn dropped_by_subsystem(&self) -> [u64; Subsystem::ALL.len()] {
        self.dropped_by
    }

    fn set_last_corr(&mut self, corr: u64) {
        if let Some(e) = self.ring.back_mut() {
            e.corr = Some(corr);
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "ring"
    }
}

/// Configuration for the spill-to-disk sink.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory receiving `chunk-NNNNN.jsonl` files and the manifest.
    /// Created on first write.
    pub dir: PathBuf,
    /// Records per chunk file before rotating to the next chunk.
    pub chunk_records: usize,
}

impl SpillConfig {
    /// Spill into `dir` with default chunking.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            chunk_records: DEFAULT_CHUNK_RECORDS,
        }
    }
}

/// The flight recorder: every event is appended to chunked JSONL files
/// under [`SpillConfig::dir`], so nothing is lost no matter how long
/// the run; a bounded tail ring keeps recent events for in-process
/// consumers. [`SpillSink::flush`] writes a `manifest.json` naming
/// every chunk and its record count so a validator can detect
/// truncation.
///
/// Writing is deliberately one event behind: the newest event is held
/// pending so a correlation id assigned immediately after emission
/// (see [`TraceSink::set_last_corr`]) still reaches the disk record.
#[derive(Debug)]
pub struct SpillSink {
    cfg: SpillConfig,
    tail: CircularQueue<TraceEvent>,
    pending: Option<TraceEvent>,
    writer: Option<std::io::BufWriter<std::fs::File>>,
    records_in_chunk: u64,
    chunks_done: Vec<(String, u64)>,
    written_total: u64,
    io_errors: u64,
    io_errors_by: [u64; Subsystem::ALL.len()],
    last_error: Option<String>,
}

impl SpillSink {
    /// A spill sink writing under `cfg.dir` and keeping the last
    /// `tail_capacity` events in memory. The directory is created
    /// lazily on the first record.
    ///
    /// # Panics
    /// Panics if `cfg.chunk_records == 0` or `tail_capacity == 0`.
    pub fn new(cfg: SpillConfig, tail_capacity: usize) -> Self {
        assert!(cfg.chunk_records > 0, "spill chunk size must be positive");
        let tail = CircularQueue::new(tail_capacity);
        SpillSink {
            cfg,
            tail,
            pending: None,
            writer: None,
            records_in_chunk: 0,
            chunks_done: Vec::new(),
            written_total: 0,
            io_errors: 0,
            io_errors_by: [0; Subsystem::ALL.len()],
            last_error: None,
        }
    }

    /// Records written to disk so far (the newest event may still be
    /// pending in memory until the next record or flush).
    pub fn written_total(&self) -> u64 {
        self.written_total
    }

    /// The most recent IO error, if any write has failed.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    fn chunk_name(index: usize) -> String {
        format!("chunk-{index:05}.jsonl")
    }

    fn note_error(&mut self, sub: Subsystem, err: String) {
        self.io_errors += 1;
        self.io_errors_by[sub.index()] += 1;
        self.last_error = Some(err);
    }

    fn write_out(&mut self, ev: &TraceEvent) {
        if self.writer.is_none() {
            if let Err(e) = std::fs::create_dir_all(&self.cfg.dir) {
                self.note_error(
                    ev.subsystem,
                    format!("create {}: {e}", self.cfg.dir.display()),
                );
                return;
            }
            let path = self.cfg.dir.join(Self::chunk_name(self.chunks_done.len()));
            match std::fs::File::create(&path) {
                Ok(f) => self.writer = Some(std::io::BufWriter::new(f)),
                Err(e) => {
                    self.note_error(ev.subsystem, format!("create {}: {e}", path.display()));
                    return;
                }
            }
        }
        let line = ev.render_jsonl();
        let ok = match self.writer.as_mut() {
            Some(w) => writeln!(w, "{line}").map_err(|e| e.to_string()),
            None => Err("spill writer unavailable".to_string()),
        };
        match ok {
            Ok(()) => {
                self.records_in_chunk += 1;
                self.written_total += 1;
                if self.records_in_chunk >= self.cfg.chunk_records as u64 {
                    self.rotate_chunk();
                }
            }
            Err(e) => self.note_error(ev.subsystem, e),
        }
    }

    fn rotate_chunk(&mut self) {
        if let Some(mut w) = self.writer.take() {
            if let Err(e) = w.flush() {
                self.last_error = Some(e.to_string());
                self.io_errors += 1;
            }
        }
        self.chunks_done.push((
            Self::chunk_name(self.chunks_done.len()),
            self.records_in_chunk,
        ));
        self.records_in_chunk = 0;
    }

    fn write_manifest(&mut self) -> Result<(), String> {
        let mut chunks: Vec<(String, u64)> = self.chunks_done.clone();
        if self.records_in_chunk > 0 {
            chunks.push((Self::chunk_name(chunks.len()), self.records_in_chunk));
        }
        let mut body = String::with_capacity(256);
        body.push_str("{\n  \"report\": \"trace_spill\",\n");
        body.push_str(&format!(
            "  \"chunk_records\": {},\n  \"total\": {},\n  \"io_errors\": {},\n",
            self.cfg.chunk_records, self.written_total, self.io_errors
        ));
        body.push_str("  \"chunks\": [");
        for (i, (name, records)) in chunks.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "\n    {{\"file\": \"{name}\", \"records\": {records}}}"
            ));
        }
        if !chunks.is_empty() {
            body.push_str("\n  ");
        }
        body.push_str("]\n}\n");
        std::fs::create_dir_all(&self.cfg.dir)
            .map_err(|e| format!("create {}: {e}", self.cfg.dir.display()))?;
        let path = self.cfg.dir.join(SPILL_MANIFEST);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

impl TraceSink for SpillSink {
    fn record(&mut self, ev: TraceEvent) {
        if let Some(prev) = self.pending.take() {
            self.write_out(&prev);
        }
        self.tail.push(ev.clone());
        self.pending = Some(ev);
    }

    fn retained(&self) -> Vec<&TraceEvent> {
        self.tail.iter().collect()
    }

    fn dropped(&self) -> u64 {
        // Tail evictions are not losses — the disk copy has the event.
        self.io_errors
    }

    fn dropped_by_subsystem(&self) -> [u64; Subsystem::ALL.len()] {
        self.io_errors_by
    }

    fn set_last_corr(&mut self, corr: u64) {
        if let Some(ev) = self.pending.as_mut() {
            ev.corr = Some(corr);
        }
        if let Some(ev) = self.tail.back_mut() {
            ev.corr = Some(corr);
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        if let Some(prev) = self.pending.take() {
            self.write_out(&prev);
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.flush() {
                let msg = e.to_string();
                self.io_errors += 1;
                self.last_error = Some(msg.clone());
                return Err(msg);
            }
        }
        self.write_manifest()
    }

    fn kind(&self) -> &'static str {
        "spill"
    }
}

impl Drop for SpillSink {
    fn drop(&mut self) {
        // Best-effort: don't lose the pending event or the manifest if
        // the owner forgot the final flush.
        let _ = self.flush();
    }
}

/// One record read back from a spill chunk: the parsed form of
/// [`TraceEvent::render_jsonl`]. `code` is owned — the writing
/// process's static string table is gone by read time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRecord {
    /// Sequence number as written.
    pub seq: u64,
    /// Simulated time of the event.
    pub at: SimTime,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// Machine-stable event code.
    pub code: String,
    /// Correlation id, when the record carried one.
    pub corr: Option<u64>,
    /// Free-form detail, unescaped.
    pub detail: String,
}

/// Positional reader over one spill JSONL line. The writer emits a
/// fixed key order (`seq`, `at`, `subsystem`, `code`, optional `corr`,
/// `detail`), so the reader can be a cursor rather than a JSON parser.
struct LineCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LineCursor<'a> {
    fn tag(&mut self, lit: &str) -> Result<(), String> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    fn peek(&self, lit: &str) -> bool {
        self.bytes
            .get(self.pos..self.pos + lit.len())
            .is_some_and(|s| s == lit.as_bytes())
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    /// A quoted value with no escapes (subsystem tags, event codes);
    /// consumes the closing quote.
    fn plain_string(&mut self) -> Result<String, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("bad UTF-8 at byte {start}"))?;
                    self.pos += 1;
                    return Ok(s.to_string());
                }
                b'\\' => return Err(format!("unexpected escape at byte {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err(format!("unterminated string at byte {start}"))
    }

    /// A quoted value with JSON escapes (the detail field); consumes
    /// the closing quote.
    fn escaped_string(&mut self) -> Result<String, String> {
        let mut out: Vec<u8> = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| "bad UTF-8 in string".to_string())
                }
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("dangling escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| format!("bad \\u codepoint {hex:#x}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => out.push(b),
            }
        }
    }
}

impl SpillRecord {
    /// Parse one spill-chunk JSONL line (the exact shape
    /// [`TraceEvent::render_jsonl`] writes). Trailing garbage is an
    /// error — a concatenation of two records must not half-parse.
    pub fn parse(line: &str) -> Result<SpillRecord, String> {
        let mut c = LineCursor {
            bytes: line.as_bytes(),
            pos: 0,
        };
        c.tag("{\"seq\":")?;
        let seq = c.number()?;
        c.tag(",\"at\":")?;
        let at = SimTime::from_secs(c.number()?);
        c.tag(",\"subsystem\":\"")?;
        let sub_tag = c.plain_string()?;
        let subsystem = Subsystem::from_tag(&sub_tag)
            .ok_or_else(|| format!("unknown subsystem tag {sub_tag:?}"))?;
        c.tag(",\"code\":\"")?;
        let code = c.plain_string()?;
        let corr = if c.peek(",\"corr\":") {
            c.tag(",\"corr\":")?;
            Some(c.number()?)
        } else {
            None
        };
        c.tag(",\"detail\":\"")?;
        let detail = c.escaped_string()?;
        c.tag("}")?;
        if c.pos != line.len() {
            return Err(format!("trailing bytes after record at byte {}", c.pos));
        }
        Ok(SpillRecord {
            seq,
            at,
            subsystem,
            code,
            corr,
            detail,
        })
    }
}

/// Read every complete record from a spill directory's chunk files, in
/// chunk order. Returns the records plus a warning for anything
/// incomplete: a truncated final record (no trailing newline — a killed
/// run or a full disk) or a line that does not parse. The reader is
/// deliberately permissive — triage over a crashed run's flight
/// recording must surface everything that did reach disk — while the
/// warnings let a strict validator still fail the artifact.
pub fn read_spill_chunks(dir: &std::path::Path) -> Result<(Vec<SpillRecord>, Vec<String>), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("chunk-") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut lines: Vec<&str> = text.lines().collect();
        if !text.is_empty() && !text.ends_with('\n') {
            lines.pop();
            warnings.push(format!(
                "{}: truncated final record ignored",
                path.display()
            ));
        }
        for (lineno, line) in lines.iter().enumerate() {
            match SpillRecord::parse(line) {
                Ok(r) => records.push(r),
                Err(e) => warnings.push(format!("{}:{}: {e}", path.display(), lineno + 1)),
            }
        }
    }
    Ok((records, warnings))
}

/// Everything configurable about a trace, bundled for CLI plumbing.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// In-memory capacity: ring size for [`RingSink`], tail size for
    /// [`SpillSink`].
    pub capacity: usize,
    /// When set, use a [`SpillSink`] writing under this configuration.
    pub spill: Option<SpillConfig>,
    /// When set, record only these subsystems; everything else is
    /// counted as filtered and never reaches the sink.
    pub only: Option<Vec<Subsystem>>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            capacity: DEFAULT_TRACE_CAPACITY,
            spill: None,
            only: None,
        }
    }
}

/// A run-wide structured event log.
///
/// Construct with [`Trace::disabled`] (the default for production
/// simulations — every `emit` is a single branch), [`Trace::enabled`],
/// or [`Trace::with_options`] for spill / capacity / filter control.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    sink: Box<dyn TraceSink>,
    next_seq: u64,
    counts: [u64; Subsystem::ALL.len()],
    filter: [bool; Subsystem::ALL.len()],
    filtered: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

impl Trace {
    /// A disabled trace: `emit` returns immediately, nothing is retained.
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            // Capacity 1: the ring is never pushed to while disabled.
            sink: Box::new(RingSink::new(1)),
            next_seq: 0,
            counts: [0; Subsystem::ALL.len()],
            filter: [true; Subsystem::ALL.len()],
            filtered: 0,
        }
    }

    /// An enabled trace retaining the last [`DEFAULT_TRACE_CAPACITY`]
    /// events.
    pub fn enabled() -> Self {
        Trace::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled trace retaining the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace::with_options(TraceOptions {
            capacity,
            ..TraceOptions::default()
        })
    }

    /// An enabled trace configured by `opts`: ring or spill sink,
    /// capacity, subsystem filter.
    ///
    /// # Panics
    /// Panics if any configured capacity or chunk size is zero.
    pub fn with_options(opts: TraceOptions) -> Self {
        let sink: Box<dyn TraceSink> = match opts.spill {
            Some(spill) => Box::new(SpillSink::new(spill, opts.capacity)),
            None => Box::new(RingSink::new(opts.capacity)),
        };
        let mut filter = [opts.only.is_none(); Subsystem::ALL.len()];
        if let Some(only) = opts.only {
            for sub in only {
                filter[sub.index()] = true;
            }
        }
        Trace {
            enabled: true,
            sink,
            next_seq: 0,
            counts: [0; Subsystem::ALL.len()],
            filter,
            filtered: 0,
        }
    }

    /// Is the trace recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event. `detail` is only evaluated when the trace is
    /// enabled — pass the formatting closure, not a formatted string, at
    /// hot call sites.
    #[inline]
    pub fn emit(
        &mut self,
        at: SimTime,
        subsystem: Subsystem,
        code: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        self.emit_corr(at, subsystem, code, None, detail);
    }

    /// Record one incident-correlated event. Identical to [`Trace::emit`]
    /// except the event carries `corr` (an incident id) for timeline
    /// reassembly.
    #[inline]
    pub fn emit_corr(
        &mut self,
        at: SimTime,
        subsystem: Subsystem,
        code: &'static str,
        corr: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        // Closed-world check: an enabled trace refuses categories the
        // registry does not declare. Sits after the `enabled` early
        // return so disabled traces stay one-branch-and-out.
        if let Err(why) = validate_category(subsystem, code) {
            panic!("trace: {why}");
        }
        if !self.filter[subsystem.index()] {
            self.filtered += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counts[subsystem.index()] += 1;
        self.sink.record(TraceEvent {
            seq,
            at,
            subsystem,
            code,
            corr,
            detail: detail(),
        });
    }

    /// Retroactively attach a correlation id to the most recently
    /// emitted event. Used when the incident id only exists *after* the
    /// event was emitted (the fault injector's `inject` line precedes
    /// the ledger open).
    pub fn correlate_last(&mut self, corr: u64) {
        if self.enabled {
            self.sink.set_last_corr(corr);
        }
    }

    /// Lifetime event count for one subsystem (evicted events included).
    pub fn count(&self, subsystem: Subsystem) -> u64 {
        self.counts[subsystem.index()]
    }

    /// Lifetime event count across all subsystems.
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// How many events the sink has durably lost (ring evictions with
    /// no disk copy; failed spill writes). Kept under the historical
    /// name — `dropped` is an alias.
    pub fn evicted(&self) -> u64 {
        self.sink.dropped()
    }

    /// How many events the sink has durably lost.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Per-subsystem breakdown of dropped events as `(tag, count)`
    /// pairs, in [`Subsystem::ALL`] order.
    pub fn dropped_by_subsystem(&self) -> Vec<(&'static str, u64)> {
        let by = self.sink.dropped_by_subsystem();
        Subsystem::ALL
            .iter()
            .map(|&s| (s.tag(), by[s.index()]))
            .collect()
    }

    /// Events suppressed by the subsystem filter (never counted, never
    /// sequenced, never recorded).
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Stable name of the active sink: `"ring"` or `"spill"`.
    pub fn sink_kind(&self) -> &'static str {
        self.sink.kind()
    }

    /// Flush the sink to durable storage. No-op for ring sinks; writes
    /// pending records and the chunk manifest for spill sinks.
    pub fn flush(&mut self) -> Result<(), String> {
        self.sink.flush()
    }

    /// Retained events, oldest → newest.
    pub fn events(&self) -> Vec<&TraceEvent> {
        self.sink.retained()
    }

    /// Retained events rendered as pipe-delimited lines, oldest → newest.
    pub fn render_lines(&self) -> Vec<String> {
        self.sink.retained().iter().map(|e| e.render()).collect()
    }

    /// Per-subsystem lifetime counters as `(tag, count)` pairs, in
    /// [`Subsystem::ALL`] order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        Subsystem::ALL
            .iter()
            .map(|&s| (s.tag(), self.counts[s.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("intelliqos-trace-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_trace_never_evaluates_detail() {
        let mut t = Trace::disabled();
        let mut evaluated = false;
        t.emit(SimTime::ZERO, Subsystem::Fault, "inject", || {
            evaluated = true;
            "x".into()
        });
        assert!(!evaluated);
        assert_eq!(t.total(), 0);
        assert_eq!(t.count(Subsystem::Fault), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_records_and_counts() {
        let mut t = Trace::enabled();
        t.emit(SimTime::from_secs(5), Subsystem::Fault, "inject", || {
            "db000|MidJobDbCrash".into()
        });
        t.emit(SimTime::from_secs(9), Subsystem::Agent, "diagnose", || {
            "db000".into()
        });
        assert_eq!(t.total(), 2);
        assert_eq!(t.count(Subsystem::Fault), 1);
        assert_eq!(t.count(Subsystem::Agent), 1);
        assert_eq!(t.count(Subsystem::Lsf), 0);
        let lines = t.render_lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "0|5|fault|inject|db000\\pMidJobDbCrash");
        assert_eq!(lines[1], "1|9|agent|diagnose|db000");
    }

    #[test]
    fn ring_evicts_but_counters_survive() {
        let mut t = Trace::with_capacity(4);
        for i in 0..10u64 {
            t.emit(SimTime::from_secs(i), Subsystem::Workload, "submit", || {
                String::new()
            });
        }
        assert_eq!(t.total(), 10);
        assert_eq!(t.count(Subsystem::Workload), 10);
        assert_eq!(t.evicted(), 6);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let by = t.dropped_by_subsystem();
        assert!(by.contains(&("work", 6)));
    }

    #[test]
    fn render_escapes_structural_characters() {
        let e = TraceEvent {
            seq: 3,
            at: SimTime::from_secs(60),
            subsystem: Subsystem::Admin,
            code: "dgspl",
            corr: None,
            detail: "a|b\\c\nd\re".into(),
        };
        assert_eq!(e.render(), "3|60|admin|dgspl|a\\pb\\\\c\\nd\\re");
        // Exactly five pipe-separated columns survive.
        assert_eq!(e.render().split('|').count(), 5);
    }

    #[test]
    fn corr_never_changes_the_rendered_line() {
        let mut plain = TraceEvent {
            seq: 0,
            at: SimTime::from_secs(5),
            subsystem: Subsystem::Fault,
            code: "inject",
            corr: None,
            detail: "db000".into(),
        };
        let rendered = plain.render();
        plain.corr = Some(42);
        assert_eq!(plain.render(), rendered);
        // ... but the spill record carries it.
        assert!(plain.render_jsonl().contains("\"corr\":42"));
    }

    #[test]
    fn jsonl_escapes_quotes_and_controls() {
        let e = TraceEvent {
            seq: 1,
            at: SimTime::from_secs(2),
            subsystem: Subsystem::Agent,
            code: "diagnose",
            corr: Some(7),
            detail: "say \"hi\"\nback\\slash".into(),
        };
        assert_eq!(
            e.render_jsonl(),
            "{\"seq\":1,\"at\":2,\"subsystem\":\"agent\",\"code\":\"diagnose\",\
             \"corr\":7,\"detail\":\"say \\\"hi\\\"\\nback\\\\slash\"}"
        );
    }

    #[test]
    fn counters_listing_covers_all_subsystems() {
        let t = Trace::enabled();
        let tags: Vec<&str> = t.counters().into_iter().map(|(tag, _)| tag).collect();
        assert_eq!(
            tags,
            vec!["fault", "agent", "admin", "lsf", "manual", "work", "kern", "slo"]
        );
    }

    #[test]
    fn subsystem_tags_round_trip() {
        for sub in Subsystem::ALL {
            assert_eq!(Subsystem::from_tag(sub.tag()), Some(sub));
        }
        assert_eq!(Subsystem::from_tag("nope"), None);
    }

    #[test]
    fn subsystem_filter_suppresses_without_sequencing() {
        let mut t = Trace::with_options(TraceOptions {
            only: Some(vec![Subsystem::Fault, Subsystem::Agent]),
            ..TraceOptions::default()
        });
        t.emit(SimTime::ZERO, Subsystem::Workload, "submit", || "w".into());
        t.emit(SimTime::ZERO, Subsystem::Fault, "inject", || "f".into());
        t.emit(SimTime::ZERO, Subsystem::Lsf, "dispatch", || "l".into());
        t.emit(SimTime::ZERO, Subsystem::Agent, "diagnose", || "a".into());
        assert_eq!(t.total(), 2);
        assert_eq!(t.filtered(), 2);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]); // no gaps: filtered events never sequence
        assert_eq!(t.count(Subsystem::Workload), 0);
    }

    #[test]
    fn correlate_last_patches_ring_event() {
        let mut t = Trace::enabled();
        t.emit(SimTime::ZERO, Subsystem::Fault, "inject", || "f".into());
        t.correlate_last(9);
        assert_eq!(t.events()[0].corr, Some(9));
    }

    #[test]
    fn spill_writes_every_event_and_rotates_chunks() {
        let dir = test_dir("rotate");
        let mut t = Trace::with_options(TraceOptions {
            capacity: 4, // tiny tail: tail eviction must not lose records
            spill: Some(SpillConfig {
                dir: dir.clone(),
                chunk_records: 10,
            }),
            ..TraceOptions::default()
        });
        for i in 0..25u64 {
            t.emit(SimTime::from_secs(i), Subsystem::Workload, "submit", || {
                format!("job{i}")
            });
        }
        t.correlate_last(3);
        t.flush().unwrap();
        assert_eq!(t.sink_kind(), "spill");
        assert_eq!(t.dropped(), 0);
        // Chunks: 10 + 10 + 5.
        let c0 = std::fs::read_to_string(dir.join("chunk-00000.jsonl")).unwrap();
        let c1 = std::fs::read_to_string(dir.join("chunk-00001.jsonl")).unwrap();
        let c2 = std::fs::read_to_string(dir.join("chunk-00002.jsonl")).unwrap();
        assert_eq!(c0.lines().count(), 10);
        assert_eq!(c1.lines().count(), 10);
        assert_eq!(c2.lines().count(), 5);
        // The last record carries the retro-correlation.
        assert!(c2.lines().last().unwrap().contains("\"corr\":3"));
        // Manifest names all three chunks and the full total.
        let manifest = std::fs::read_to_string(dir.join(SPILL_MANIFEST)).unwrap();
        assert!(manifest.contains("\"total\": 25"));
        assert!(manifest.contains("chunk-00002.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_tail_serves_in_process_consumers() {
        let dir = test_dir("tail");
        let mut t = Trace::with_options(TraceOptions {
            capacity: 3,
            spill: Some(SpillConfig::new(dir.clone())),
            ..TraceOptions::default()
        });
        for i in 0..8u64 {
            t.emit(SimTime::from_secs(i), Subsystem::Agent, "diagnose", || {
                String::new()
            });
        }
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        assert_eq!(t.dropped(), 0); // tail eviction is not loss
        t.flush().unwrap();
        let chunk = std::fs::read_to_string(dir.join("chunk-00000.jsonl")).unwrap();
        assert_eq!(chunk.lines().count(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_record_round_trips_render_jsonl() {
        let cases = [
            TraceEvent {
                seq: 0,
                at: SimTime::from_secs(5),
                subsystem: Subsystem::Fault,
                code: "inject",
                corr: None,
                detail: "db000|MidJobDbCrash".into(),
            },
            TraceEvent {
                seq: 17,
                at: SimTime::from_secs(86_400),
                subsystem: Subsystem::Agent,
                code: "diagnose",
                corr: Some(7),
                detail: "say \"hi\"\nback\\slash\ttab\u{1}ctl".into(),
            },
            TraceEvent {
                seq: 3,
                at: SimTime::ZERO,
                subsystem: Subsystem::Slo,
                code: "burn_alert",
                corr: Some(0),
                detail: String::new(),
            },
        ];
        for ev in cases {
            let line = ev.render_jsonl();
            let rec = SpillRecord::parse(&line).unwrap();
            assert_eq!(rec.seq, ev.seq);
            assert_eq!(rec.at, ev.at);
            assert_eq!(rec.subsystem, ev.subsystem);
            assert_eq!(rec.code, ev.code);
            assert_eq!(rec.corr, ev.corr);
            assert_eq!(rec.detail, ev.detail);
        }
    }

    #[test]
    fn spill_record_rejects_malformed_lines() {
        assert!(SpillRecord::parse("").is_err());
        assert!(SpillRecord::parse("{\"seq\":1").is_err());
        assert!(SpillRecord::parse("not json at all").is_err());
        // Unknown subsystem tag.
        assert!(SpillRecord::parse(
            "{\"seq\":1,\"at\":2,\"subsystem\":\"nope\",\"code\":\"x\",\"detail\":\"d\"}"
        )
        .is_err());
        // Trailing garbage after a well-formed record.
        assert!(SpillRecord::parse(
            "{\"seq\":1,\"at\":2,\"subsystem\":\"agent\",\"code\":\"x\",\"detail\":\"d\"}extra"
        )
        .is_err());
        // A record sliced mid-detail (the truncated-final-line shape).
        assert!(SpillRecord::parse(
            "{\"seq\":1,\"at\":2,\"subsystem\":\"agent\",\"code\":\"x\",\"detail\":\"d"
        )
        .is_err());
    }

    #[test]
    fn read_spill_chunks_recovers_all_records_in_order() {
        let dir = test_dir("readback");
        let mut t = Trace::with_options(TraceOptions {
            capacity: 4,
            spill: Some(SpillConfig {
                dir: dir.clone(),
                chunk_records: 7,
            }),
            ..TraceOptions::default()
        });
        for i in 0..23u64 {
            t.emit(SimTime::from_secs(i), Subsystem::Workload, "submit", || {
                format!("job{i}|with\npipe and newline")
            });
        }
        t.correlate_last(5);
        t.flush().unwrap();
        let (records, warnings) = read_spill_chunks(&dir).unwrap();
        assert!(
            warnings.is_empty(),
            "clean spill must read clean: {warnings:?}"
        );
        assert_eq!(records.len(), 23);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..23).collect::<Vec<u64>>());
        assert_eq!(records[22].corr, Some(5));
        assert_eq!(records[0].detail, "job0|with\npipe and newline");
        assert_eq!(records[0].subsystem, Subsystem::Workload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_spill_chunks_skips_truncated_final_record_with_warning() {
        let dir = test_dir("truncated");
        let mut t = Trace::with_options(TraceOptions {
            capacity: 4,
            spill: Some(SpillConfig {
                dir: dir.clone(),
                chunk_records: 100,
            }),
            ..TraceOptions::default()
        });
        for i in 0..6u64 {
            t.emit(SimTime::from_secs(i), Subsystem::Agent, "diagnose", || {
                format!("pass{i}")
            });
        }
        t.flush().unwrap();
        // Simulate a killed run: chop the final record mid-line.
        let chunk = dir.join("chunk-00000.jsonl");
        let text = std::fs::read_to_string(&chunk).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&chunk, &text[..cut]).unwrap();
        let (records, warnings) = read_spill_chunks(&dir).unwrap();
        assert_eq!(records.len(), 5, "complete records all survive");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("truncated final record"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_pairs_are_unique_and_documented() {
        for (i, a) in TRACE_REGISTRY.iter().enumerate() {
            assert!(!a.code.is_empty(), "empty code at row {i}");
            assert!(
                !a.doc.is_empty(),
                "({}, {:?}) undocumented",
                a.subsystem.tag(),
                a.code
            );
            for b in &TRACE_REGISTRY[i + 1..] {
                assert!(
                    !(a.subsystem == b.subsystem && a.code == b.code),
                    "duplicate registry row ({}, {:?})",
                    a.subsystem.tag(),
                    a.code
                );
            }
        }
    }

    #[test]
    fn validate_category_explains_each_failure_mode() {
        assert_eq!(validate_category(Subsystem::Fault, "db-crash"), Ok(()));
        // Wrong subsystem: the code exists, but not there.
        let err = validate_category(Subsystem::Lsf, "db-crash").unwrap_err();
        assert!(err.contains("registered under `fault`, not `lsf`"), "{err}");
        // Near miss: suggest the nearest registered code.
        let err = validate_category(Subsystem::Fault, "db-carsh").unwrap_err();
        assert!(err.contains("did you mean \"db-crash\"?"), "{err}");
        // Plain unknown: point at the registry.
        let err = validate_category(Subsystem::Fault, "quux-flux-zot").unwrap_err();
        assert!(err.contains("TRACE_REGISTRY"), "{err}");
    }

    #[test]
    fn nearest_code_suggestion_is_deterministic() {
        assert_eq!(edit_distance("db-crash", "db-crash"), 0);
        assert_eq!(edit_distance("db-carsh", "db-crash"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
        let (near, d) = nearest_registered_code("db-carsh").unwrap();
        assert_eq!((near, d), ("db-crash", 2));
    }

    #[test]
    #[should_panic(expected = "unregistered trace category")]
    fn enabled_trace_panics_on_unregistered_category() {
        let mut t = Trace::enabled();
        t.emit(
            SimTime::ZERO,
            Subsystem::Fault,
            "definitely-not-a-code",
            String::new,
        );
    }

    #[test]
    fn disabled_trace_skips_category_validation() {
        // The zero-cost contract: a disabled trace returns before the
        // registry check, so call sites compiled out of a run are never
        // validated at runtime (qoslint checks them statically instead).
        let mut t = Trace::disabled();
        t.emit(
            SimTime::ZERO,
            Subsystem::Fault,
            "definitely-not-a-code",
            String::new,
        );
        assert_eq!(t.total(), 0);
    }
}
