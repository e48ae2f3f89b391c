//! Typed evidence entities and the flat row codec they serialise to.
//!
//! Three entity kinds cover everything the evidence pipeline writes:
//! ledger **incidents**, **trace** events (from run exports and spill
//! chunks alike), and per-service **SLO** samples. Every entity carries
//! the label of the run that produced it, so cross-run queries and
//! paired-run diffs are first-class.
//!
//! On disk a record is one escaped pipe-delimited line. The escape set
//! extends the trace codec (`|` → `\p`, `\` → `\\`, newlines) with `,`
//! → `\c` and `;` → `\s` so nested lists (incident attempts) can use
//! `,` and `;` as structural separators. Floats are written with
//! Rust's shortest-round-trip `Display`, so parse-back is bit-exact and
//! a store rebuild is byte-stable.

/// The three entity kinds the store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A ledger incident (one fault's full lifecycle).
    Incident,
    /// One structured trace event.
    Trace,
    /// One per-service SLO sample row.
    Slo,
}

impl Kind {
    /// Every kind, in sort-rank order.
    pub const ALL: [Kind; 3] = [Kind::Incident, Kind::Trace, Kind::Slo];

    /// Short stable tag used in file names and CLI arguments.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Incident => "inc",
            Kind::Trace => "trc",
            Kind::Slo => "slo",
        }
    }

    /// Inverse of [`Kind::tag`].
    pub fn from_tag(tag: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    fn rank(self) -> u8 {
        match self {
            Kind::Incident => 0,
            Kind::Trace => 1,
            Kind::Slo => 2,
        }
    }
}

/// One repair attempt inside an incident record.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRec {
    /// When the attempt ran.
    pub at: u64,
    /// Who attempted (agent or operator name).
    pub actor: String,
    /// What was tried.
    pub action: String,
    /// Whether this attempt closed the incident.
    pub resolved: bool,
}

/// One ledger incident, as exported in a run document.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRec {
    /// Label of the run that produced it (evidence file stem).
    pub run: String,
    /// Ledger incident id; doubles as the trace correlation id.
    pub id: u64,
    /// Fault category.
    pub category: String,
    /// Service (or host / domain) the incident charges.
    pub service: String,
    /// Human description.
    pub description: String,
    /// Fault-injection instant, seconds.
    pub onset: u64,
    /// Detection instant, if reached.
    pub detected: Option<u64>,
    /// Diagnosis instant, if reached.
    pub diagnosed: Option<u64>,
    /// Restoration instant, if reached.
    pub restored: Option<u64>,
    /// Closing actor, if closed.
    pub actor: Option<String>,
    /// Closing action, if closed.
    pub action: Option<String>,
    /// Whether the incident escalated to a human.
    pub escalated: bool,
    /// Failure-class label (`service-fault`, `client-workload`,
    /// `transient-abort`), as the run export recorded it.
    pub failure_class: String,
    /// Whether the incident counts against the error budget by default.
    pub is_actionable: bool,
    /// Every repair attempt, in time order.
    pub attempts: Vec<AttemptRec>,
}

/// One structured trace event (run export or spill chunk).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRec {
    /// Label of the producing run.
    pub run: String,
    /// Emission sequence number, unique within the run.
    pub seq: u64,
    /// Simulated time, seconds.
    pub at: u64,
    /// Emitting subsystem tag (`fault`, `agent`, ...).
    pub subsystem: String,
    /// Machine-stable event code.
    pub code: String,
    /// Correlated incident id, if any.
    pub corr: Option<u64>,
    /// Free-form detail.
    pub detail: String,
}

/// One per-service SLO sample from an `slo` report document.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRec {
    /// Label of the producing run.
    pub run: String,
    /// The accounting key.
    pub service: String,
    /// Closed incidents charged to the service.
    pub incidents: u64,
    /// Total downtime charged, seconds.
    pub downtime_secs: u64,
    /// `1 - downtime / horizon`.
    pub availability: f64,
    /// Mean time to repair, seconds.
    pub mttr_secs: f64,
    /// Fast-burn alerts fired.
    pub burn_alerts: u64,
    /// The availability target this service reports against. Old
    /// reports without a per-row target inherit the document-level
    /// target at extraction.
    pub target: f64,
}

/// Any stored evidence record.
#[derive(Debug, Clone, PartialEq)]
pub enum Rec {
    /// A ledger incident.
    Incident(IncidentRec),
    /// A trace event.
    Trace(TraceRec),
    /// An SLO sample.
    Slo(SloRec),
}

impl Rec {
    /// The record's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Rec::Incident(_) => Kind::Incident,
            Rec::Trace(_) => Kind::Trace,
            Rec::Slo(_) => Kind::Slo,
        }
    }

    /// The producing run's label.
    pub fn run(&self) -> &str {
        match self {
            Rec::Incident(r) => &r.run,
            Rec::Trace(r) => &r.run,
            Rec::Slo(r) => &r.run,
        }
    }

    /// The total order every query result is returned in: kind rank,
    /// then run label, then the kind's natural key. Both the indexed
    /// store and the linear scan sort by this, which is half of the
    /// byte-identity guarantee (the other half is the shared
    /// extraction).
    pub fn sort_key(&self) -> (u8, &str, u64, &str) {
        match self {
            Rec::Incident(r) => (self.kind().rank(), &r.run, r.id, ""),
            Rec::Trace(r) => (self.kind().rank(), &r.run, r.seq, ""),
            Rec::Slo(r) => (self.kind().rank(), &r.run, 0, &r.service),
        }
    }

    /// One deterministic human line per record — the `evdb query`
    /// output format.
    pub fn render_line(&self) -> String {
        match self {
            Rec::Incident(r) => format!(
                "inc {} #{} {} {} onset={} restored={} escalated={} class={} actionable={} {}",
                r.run,
                r.id,
                r.category,
                r.service,
                r.onset,
                r.restored
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
                r.escalated,
                r.failure_class,
                r.is_actionable,
                r.description
            ),
            Rec::Trace(r) => format!(
                "trc {} seq={} at={} {} {} corr={} {}",
                r.run,
                r.seq,
                r.at,
                r.subsystem,
                r.code,
                r.corr.map_or_else(|| "-".to_string(), |v| v.to_string()),
                r.detail
            ),
            Rec::Slo(r) => format!(
                "slo {} {} incidents={} downtime={} availability={:.8} mttr={:.2} alerts={} \
                 target={:.6}",
                r.run,
                r.service,
                r.incidents,
                r.downtime_secs,
                r.availability,
                r.mttr_secs,
                r.burn_alerts,
                r.target
            ),
        }
    }
}

/// Escape one field for the flat row codec.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\p"),
            ',' => out.push_str("\\c"),
            ';' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
    out
}

/// Inverse of [`escape`].
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('p') => out.push('|'),
            Some('c') => out.push(','),
            Some('s') => out.push(';'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("bad escape \\{other}")),
            None => return Err("dangling escape".to_string()),
        }
    }
    Ok(out)
}

fn opt_u64_field(v: Option<u64>) -> String {
    v.map_or_else(String::new, |n| n.to_string())
}

fn parse_opt_u64(field: &str) -> Result<Option<u64>, String> {
    if field.is_empty() {
        return Ok(None);
    }
    field
        .parse()
        .map(Some)
        .map_err(|e| format!("bad integer {field:?}: {e}"))
}

fn parse_u64(field: &str) -> Result<u64, String> {
    field
        .parse()
        .map_err(|e| format!("bad integer {field:?}: {e}"))
}

fn parse_f64(field: &str) -> Result<f64, String> {
    field
        .parse()
        .map_err(|e| format!("bad float {field:?}: {e}"))
}

fn opt_str_field(v: Option<&str>) -> String {
    // `=` marks presence so `Some("")` and `None` stay distinct.
    v.map_or_else(String::new, |s| format!("={}", escape(s)))
}

fn parse_opt_str(field: &str) -> Result<Option<String>, String> {
    match field.strip_prefix('=') {
        Some(rest) => unescape(rest).map(Some),
        None if field.is_empty() => Ok(None),
        None => Err(format!("optional string without '=' prefix: {field:?}")),
    }
}

fn parse_bool(field: &str) -> Result<bool, String> {
    match field {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(format!("bad bool {other:?}")),
    }
}

impl IncidentRec {
    /// Serialise to one segment row (run lives in the segment header).
    pub fn to_row(&self) -> String {
        let attempts = self
            .attempts
            .iter()
            .map(|a| {
                format!(
                    "{},{},{},{}",
                    a.at,
                    escape(&a.actor),
                    escape(&a.action),
                    u8::from(a.resolved)
                )
            })
            .collect::<Vec<_>>()
            .join(";");
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.id,
            escape(&self.category),
            escape(&self.service),
            escape(&self.description),
            self.onset,
            opt_u64_field(self.detected),
            opt_u64_field(self.diagnosed),
            opt_u64_field(self.restored),
            opt_str_field(self.actor.as_deref()),
            opt_str_field(self.action.as_deref()),
            u8::from(self.escalated),
            escape(&self.failure_class),
            u8::from(self.is_actionable),
            attempts
        )
    }

    /// Parse a segment row written by [`IncidentRec::to_row`].
    pub fn from_row(run: &str, row: &str) -> Result<IncidentRec, String> {
        let f: Vec<&str> = row.split('|').collect();
        if f.len() != 14 {
            return Err(format!("incident row has {} fields, want 14", f.len()));
        }
        let mut attempts = Vec::new();
        if !f[13].is_empty() {
            for part in f[13].split(';') {
                let a: Vec<&str> = part.split(',').collect();
                if a.len() != 4 {
                    return Err(format!("attempt has {} fields, want 4", a.len()));
                }
                attempts.push(AttemptRec {
                    at: parse_u64(a[0])?,
                    actor: unescape(a[1])?,
                    action: unescape(a[2])?,
                    resolved: parse_bool(a[3])?,
                });
            }
        }
        Ok(IncidentRec {
            run: run.to_string(),
            id: parse_u64(f[0])?,
            category: unescape(f[1])?,
            service: unescape(f[2])?,
            description: unescape(f[3])?,
            onset: parse_u64(f[4])?,
            detected: parse_opt_u64(f[5])?,
            diagnosed: parse_opt_u64(f[6])?,
            restored: parse_opt_u64(f[7])?,
            actor: parse_opt_str(f[8])?,
            action: parse_opt_str(f[9])?,
            escalated: parse_bool(f[10])?,
            failure_class: unescape(f[11])?,
            is_actionable: parse_bool(f[12])?,
            attempts,
        })
    }
}

impl TraceRec {
    /// Serialise to one segment row.
    pub fn to_row(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.seq,
            self.at,
            escape(&self.subsystem),
            escape(&self.code),
            opt_u64_field(self.corr),
            escape(&self.detail)
        )
    }

    /// Parse a segment row written by [`TraceRec::to_row`].
    pub fn from_row(run: &str, row: &str) -> Result<TraceRec, String> {
        let f: Vec<&str> = row.split('|').collect();
        if f.len() != 6 {
            return Err(format!("trace row has {} fields, want 6", f.len()));
        }
        Ok(TraceRec {
            run: run.to_string(),
            seq: parse_u64(f[0])?,
            at: parse_u64(f[1])?,
            subsystem: unescape(f[2])?,
            code: unescape(f[3])?,
            corr: parse_opt_u64(f[4])?,
            detail: unescape(f[5])?,
        })
    }
}

impl SloRec {
    /// Serialise to one segment row. Floats use shortest-round-trip
    /// `Display`, so the parse-back is bit-exact.
    pub fn to_row(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}",
            escape(&self.service),
            self.incidents,
            self.downtime_secs,
            self.availability,
            self.mttr_secs,
            self.burn_alerts,
            self.target
        )
    }

    /// Parse a segment row written by [`SloRec::to_row`].
    pub fn from_row(run: &str, row: &str) -> Result<SloRec, String> {
        let f: Vec<&str> = row.split('|').collect();
        if f.len() != 7 {
            return Err(format!("slo row has {} fields, want 7", f.len()));
        }
        Ok(SloRec {
            run: run.to_string(),
            service: unescape(f[0])?,
            incidents: parse_u64(f[1])?,
            downtime_secs: parse_u64(f[2])?,
            availability: parse_f64(f[3])?,
            mttr_secs: parse_f64(f[4])?,
            burn_alerts: parse_u64(f[5])?,
            target: parse_f64(f[6])?,
        })
    }
}

impl Rec {
    /// Serialise to one segment row.
    pub fn to_row(&self) -> String {
        match self {
            Rec::Incident(r) => r.to_row(),
            Rec::Trace(r) => r.to_row(),
            Rec::Slo(r) => r.to_row(),
        }
    }

    /// Parse a segment row of the given kind.
    pub fn from_row(kind: Kind, run: &str, row: &str) -> Result<Rec, String> {
        match kind {
            Kind::Incident => IncidentRec::from_row(run, row).map(Rec::Incident),
            Kind::Trace => TraceRec::from_row(run, row).map(Rec::Trace),
            Kind::Slo => SloRec::from_row(run, row).map(Rec::Slo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_structural_characters() {
        let nasty = "a|b\\c,d;e\nf\rg plain";
        assert_eq!(unescape(&escape(nasty)).unwrap(), nasty);
        assert!(!escape(nasty).contains('|'));
        assert!(!escape(nasty).contains(','));
        assert!(!escape(nasty).contains(';'));
    }

    #[test]
    fn incident_row_round_trips() {
        let rec = IncidentRec {
            run: "fig2_manual".to_string(),
            id: 7,
            category: "MidJobDbCrash".to_string(),
            service: "db|003".to_string(),
            description: "crash, then; hang".to_string(),
            onset: 120,
            detected: Some(130),
            diagnosed: None,
            restored: Some(900),
            actor: Some("db_agent".to_string()),
            action: None,
            escalated: false,
            failure_class: "client-workload".to_string(),
            is_actionable: false,
            attempts: vec![
                AttemptRec {
                    at: 140,
                    actor: "db_agent".to_string(),
                    action: "restart, forcibly".to_string(),
                    resolved: false,
                },
                AttemptRec {
                    at: 200,
                    actor: "operator".to_string(),
                    action: "failover;manual".to_string(),
                    resolved: true,
                },
            ],
        };
        let back = IncidentRec::from_row("fig2_manual", &rec.to_row()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn trace_and_slo_rows_round_trip() {
        let t = TraceRec {
            run: "r".to_string(),
            seq: 9,
            at: 77,
            subsystem: "agent".to_string(),
            code: "diagnose".to_string(),
            corr: Some(3),
            detail: "pipe|comma,semi;".to_string(),
        };
        assert_eq!(TraceRec::from_row("r", &t.to_row()).unwrap(), t);
        let s = SloRec {
            run: "r".to_string(),
            service: "web001".to_string(),
            incidents: 4,
            downtime_secs: 1234,
            availability: 1.0 - 1234.0 / 172_800.0,
            mttr_secs: 1234.0 / 4.0,
            burn_alerts: 1,
            target: 0.99999,
        };
        let back = SloRec::from_row("r", &s.to_row()).unwrap();
        assert_eq!(back.availability.to_bits(), s.availability.to_bits());
        assert_eq!(back.mttr_secs.to_bits(), s.mttr_secs.to_bits());
        assert_eq!(back.target.to_bits(), s.target.to_bits());
        assert_eq!(back, s);
    }

    #[test]
    fn none_and_empty_string_stay_distinct() {
        let mut rec = IncidentRec {
            run: "r".to_string(),
            id: 0,
            category: "c".to_string(),
            service: "s".to_string(),
            description: String::new(),
            onset: 0,
            detected: None,
            diagnosed: None,
            restored: None,
            actor: None,
            action: Some(String::new()),
            escalated: true,
            failure_class: "service-fault".to_string(),
            is_actionable: true,
            attempts: Vec::new(),
        };
        let back = IncidentRec::from_row("r", &rec.to_row()).unwrap();
        assert_eq!(back.actor, None);
        assert_eq!(back.action, Some(String::new()));
        rec.actor = Some(String::new());
        rec.action = None;
        let back = IncidentRec::from_row("r", &rec.to_row()).unwrap();
        assert_eq!(back.actor, Some(String::new()));
        assert_eq!(back.action, None);
    }

    #[test]
    fn sort_key_orders_kinds_then_runs_then_ids() {
        let inc = Rec::Incident(IncidentRec {
            run: "z".to_string(),
            id: 0,
            category: String::new(),
            service: String::new(),
            description: String::new(),
            onset: 0,
            detected: None,
            diagnosed: None,
            restored: None,
            actor: None,
            action: None,
            escalated: false,
            failure_class: "service-fault".to_string(),
            is_actionable: true,
            attempts: Vec::new(),
        });
        let trc = Rec::Trace(TraceRec {
            run: "a".to_string(),
            seq: 5,
            at: 0,
            subsystem: "kern".to_string(),
            code: "x".to_string(),
            corr: None,
            detail: String::new(),
        });
        assert!(
            inc.sort_key() < trc.sort_key(),
            "incidents sort before traces"
        );
    }
}
