//! The downtime ledger: incidents, categories, and the Figure 2
//! accounting.
//!
//! Every fault — exogenous or endogenous — opens an **incident** in the
//! category Figure 2 charts it under, and the incident carries the full
//! lifecycle: `injected → detected → diagnosed → repaired/escalated`,
//! each with its timestamp, plus the **repair attempt history** — every
//! try in order (typically an agent try first, then the human
//! escalation), with the resolving attempt flagged.
//! Total downtime per category is the sum of incident durations, exactly
//! the "breakdown in hours based on the type of errors that caused
//! downtime" the customer reported — and the run report's category
//! tables are *derived* from this ledger, so the two can never disagree.

use std::collections::BTreeMap;

use intelliqos_cluster::faults::FaultCategory;
use intelliqos_simkern::lifecycle::{self, LifecycleState};
use intelliqos_simkern::{SimDuration, SimTime};

/// Incident identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IncidentId(pub u64);

impl std::fmt::Display for IncidentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inc{:05}", self.0)
    }
}

/// Who executed the repair that closed an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// An intelliagent healed it locally on the server.
    Agent,
    /// The admin pair repaired it centrally (flag monitoring, crontab
    /// re-enable, resubmission machinery).
    Admin,
    /// A human operator or engineer.
    Human,
}

impl Actor {
    /// Lower-case tag for rendered output.
    pub fn label(self) -> &'static str {
        match self {
            Actor::Agent => "agent",
            Actor::Admin => "admin",
            Actor::Human => "human",
        }
    }

    /// Does this count as an automatic repair in the Figure 2
    /// accounting? (Everything the software layer did on its own.)
    pub fn is_automatic(self) -> bool {
        !matches!(self, Actor::Human)
    }
}

/// Why an incident burned (or should not burn) the error budget — the
/// actionable-failure taxonomy. Mixing these together makes the burn
/// rate un-actionable: a page about an operator-induced outage or an
/// auto-healed blip is noise, a page about a real service fault is the
/// signal the budget exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// The service itself failed and the failure needed (or still
    /// needs) human attention — the actionable class.
    ServiceFault,
    /// Induced by operators or the job stream (the `Human` and
    /// `Mid-crash` Figure 2 categories): real downtime, but the fix is
    /// on the client/workload side, not the service.
    ClientWorkload,
    /// A transient blip the software layer healed on its own without
    /// ever paging a human — the retried-abort shape that should not
    /// page anyone twice.
    TransientAbort,
}

impl FailureClass {
    /// Every class, taxonomy order. Index positions are stable and used
    /// as accumulator slots by the SLO tracker.
    pub const ALL: [FailureClass; 3] = [
        FailureClass::ServiceFault,
        FailureClass::ClientWorkload,
        FailureClass::TransientAbort,
    ];

    /// Lower-case tag used in exports and query filters.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::ServiceFault => "service-fault",
            FailureClass::ClientWorkload => "client-workload",
            FailureClass::TransientAbort => "transient-abort",
        }
    }

    /// Parse the closed-world label set; anything else is `None`.
    pub fn parse(s: &str) -> Option<FailureClass> {
        FailureClass::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Stable accumulator index (position in [`FailureClass::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether failures of this class should count against the error
    /// budget by default. Only real service faults are actionable.
    pub fn is_actionable(self) -> bool {
        matches!(self, FailureClass::ServiceFault)
    }
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classify a failure from fields the ledger export also carries —
/// the injected fault's Figure 2 label, the resolving actor (if
/// closed), and whether humans were paged — so a reader can re-derive
/// any exported class from the same record.
///
/// Precedence: operator/workload-induced categories are
/// `client-workload` regardless of who repaired them; otherwise a
/// fault the software layer closed on its own without paging anyone is
/// a `transient-abort`; everything else — escalated, human-repaired,
/// or still open — is a `service-fault` (the conservative fallback:
/// unclassifiable records burn budget rather than hide).
pub fn classify_failure(
    category_label: &str,
    resolving_actor: Option<&str>,
    escalated: bool,
) -> FailureClass {
    if matches!(category_label, "Human" | "Mid-crash") {
        return FailureClass::ClientWorkload;
    }
    let auto = matches!(resolving_actor, Some("agent") | Some("admin"));
    if auto && !escalated {
        return FailureClass::TransientAbort;
    }
    FailureClass::ServiceFault
}

/// One recorded repair try on an incident.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairAttempt {
    /// When the attempt was made (or recorded).
    pub at: SimTime,
    /// Who tried.
    pub actor: Actor,
    /// What they tried.
    pub action: String,
    /// Whether this attempt closed the incident.
    pub resolved: bool,
}

/// One tracked incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Identity.
    pub id: IncidentId,
    /// Figure 2 category.
    pub category: FaultCategory,
    /// The service (or host / infrastructure domain) whose availability
    /// this incident charges — the SLO accounting key. `"site"` when the
    /// incident is not attributable to one service.
    pub service: String,
    /// Free-form description (mechanism, target).
    pub description: String,
    /// Fault onset (injection time).
    pub onset: SimTime,
    /// When monitoring/humans first knew.
    pub detected: Option<SimTime>,
    /// When the cause was pinned down (rule fired, engineer engaged).
    pub diagnosed: Option<SimTime>,
    /// When service was restored.
    pub restored: Option<SimTime>,
    /// Every repair try, in order; the resolving one (if any) is the
    /// last and carries `resolved: true`. An agent try that failed to
    /// stick followed by the human escalation is two entries.
    pub attempts: Vec<RepairAttempt>,
    /// Humans were paged about it at some point.
    pub escalated: bool,
}

impl Incident {
    /// Who executed the repair that closed the incident, if closed.
    pub fn repaired_by(&self) -> Option<Actor> {
        self.attempts.iter().find(|a| a.resolved).map(|a| a.actor)
    }

    /// The repair action that closed the incident, if closed.
    pub fn repair_action(&self) -> Option<&str> {
        self.attempts
            .iter()
            .find(|a| a.resolved)
            .map(|a| a.action.as_str())
    }

    /// The full attempt history, oldest first.
    pub fn attempts(&self) -> &[RepairAttempt] {
        &self.attempts
    }

    /// This incident's failure class under the actionable-failure
    /// taxonomy (derived, never stored).
    pub fn failure_class(&self) -> FailureClass {
        classify_failure(
            self.category.label(),
            self.repaired_by().map(Actor::label),
            self.escalated,
        )
    }

    /// Whether this incident counts against the error budget by
    /// default.
    pub fn is_actionable(&self) -> bool {
        self.failure_class().is_actionable()
    }

    /// Detection latency, if detected.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        self.detected.map(|d| d.since(self.onset))
    }

    /// Repair time (detected → restored), if both known.
    pub fn repair_time(&self) -> Option<SimDuration> {
        match (self.detected, self.restored) {
            (Some(d), Some(r)) => Some(r.since(d)),
            _ => None,
        }
    }

    /// Total downtime (onset → restored), if closed.
    pub fn downtime(&self) -> Option<SimDuration> {
        self.restored.map(|r| r.since(self.onset))
    }

    /// Whether the repair was automatic (agent or admin).
    pub fn auto_repaired(&self) -> bool {
        self.repaired_by().map(Actor::is_automatic).unwrap_or(false)
    }

    /// When (if ever) the record first occupied an automaton state —
    /// the projection [`Incident::lifecycle_violation`] interprets.
    /// `Escalated` is a flag, not a timestamp, so it projects to `None`.
    fn state_observed_at(&self, s: LifecycleState) -> Option<SimTime> {
        match s {
            LifecycleState::Injected => Some(self.onset),
            LifecycleState::Detected => self.detected,
            LifecycleState::Diagnosed => self.diagnosed,
            LifecycleState::Attempting => self.attempts.first().map(|a| a.at),
            LifecycleState::Escalated => None,
            LifecycleState::Repaired => self.restored,
        }
    }

    /// The ledger field name a spine state's timestamp is recorded in,
    /// for violation messages.
    fn state_field(s: LifecycleState) -> &'static str {
        match s {
            LifecycleState::Injected => "onset",
            LifecycleState::Detected => "detected",
            LifecycleState::Diagnosed => "diagnosed",
            LifecycleState::Attempting => "attempted",
            LifecycleState::Escalated => "escalated",
            LifecycleState::Repaired => "restored",
        }
    }

    /// A closed incident must witness a complete run of the declared
    /// lifecycle automaton ([`intelliqos_simkern::lifecycle`]); an open
    /// one must at least keep its observed states in automaton order.
    /// Returns the first violation found, or `None` when the record is
    /// sound.
    ///
    /// This is an *interpreter* over the declared automaton, not a list
    /// of hand-written field checks: the record is projected onto
    /// automaton states, timestamps must be non-decreasing along the
    /// one-shot spine (the states [`lifecycle::revisitable`] rules out
    /// of cycles), the completeness obligations for closed incidents
    /// are exactly the mandatory waypoints
    /// [`lifecycle::required_for_terminal`] derives from the edges, and
    /// the attempt-history checks are the `Attempting` self-loop's
    /// obligations (ordered retries, one resolving entry, nothing after
    /// it).
    pub fn lifecycle_violation(&self) -> Option<String> {
        if self.restored.is_none() {
            // Open incidents only need ordering on what exists so far:
            // detection precedes diagnosis. (The other spine pairs are
            // clamped by the transition API itself until close.)
            if let (Some(d), Some(g)) = (self.detected, self.diagnosed) {
                if g < d {
                    return Some(format!("{}: diagnosed {g} before detected {d}", self.id));
                }
            }
            return None;
        }

        // Mandatory waypoints: states on every Injected → Repaired
        // path must have been recorded. `Attempting`'s obligation is
        // the resolving-attempt block below (a resolved attempt is how
        // the record witnesses it).
        for s in lifecycle::required_for_terminal() {
            if s == LifecycleState::Attempting {
                continue;
            }
            if self.state_observed_at(s).is_none() {
                let what = match s {
                    LifecycleState::Detected => "detection",
                    LifecycleState::Diagnosed => "diagnosis",
                    other => Self::state_field(other),
                };
                return Some(format!("{}: closed without a {what} time", self.id));
            }
        }

        // Spine ordering: the one-shot states are visited at most once,
        // so their timestamps must be non-decreasing in automaton
        // order. (Revisitable states — the attempt/escalation loop —
        // interleave freely; an agent may attempt before the diagnosis
        // is final.)
        let spine: Vec<(LifecycleState, SimTime)> = LifecycleState::ALL
            .into_iter()
            .filter(|&s| !lifecycle::revisitable(s))
            .filter_map(|s| self.state_observed_at(s).map(|t| (s, t)))
            .collect();
        for w in spine.windows(2) {
            let ((a, ta), (b, tb)) = (w[0], w[1]);
            debug_assert!(
                lifecycle::reachable(a, b),
                "spine order must follow the automaton: {} -> {}",
                a.name(),
                b.name()
            );
            if tb < ta {
                return Some(format!(
                    "{}: {} {tb} before {} {ta}",
                    self.id,
                    Self::state_field(b),
                    Self::state_field(a)
                ));
            }
        }

        // Entering the terminal state requires the resolving attempt —
        // the automaton's `Attempting` waypoint — with an actor and an
        // action, exactly once, as the final history entry.
        if self.repaired_by().is_none() {
            return Some(format!("{}: closed without an actor", self.id));
        }
        if self.repair_action().map(str::is_empty).unwrap_or(true) {
            return Some(format!("{}: closed without a repair action", self.id));
        }
        if self.attempts.iter().filter(|a| a.resolved).count() > 1 {
            return Some(format!("{}: multiple resolving attempts", self.id));
        }
        if let Some(pos) = self.attempts.iter().position(|a| a.resolved) {
            if pos + 1 != self.attempts.len() {
                return Some(format!(
                    "{}: attempts recorded after the resolving one",
                    self.id
                ));
            }
        }
        // The `Attempting` self-loop: retries are ordered among
        // themselves.
        for pair in self.attempts.windows(2) {
            if pair[1].at < pair[0].at {
                return Some(format!("{}: attempt history out of order", self.id));
            }
        }
        None
    }
}

/// Aggregate statistics for one category.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryTotals {
    /// Closed incidents.
    pub incidents: u64,
    /// Total downtime hours.
    pub downtime_hours: f64,
    /// Total detection-latency hours.
    pub detection_hours: f64,
    /// Total repair hours.
    pub repair_hours: f64,
    /// How many were auto-repaired.
    pub auto_repaired: u64,
    /// How many involved paging humans.
    pub escalated: u64,
}

impl CategoryTotals {
    /// Mean downtime per incident (0 when none).
    pub fn mean_downtime_hours(&self) -> f64 {
        if self.incidents == 0 {
            0.0
        } else {
            self.downtime_hours / self.incidents as f64
        }
    }

    /// Mean detection latency per incident (0 when none).
    pub fn mean_detection_hours(&self) -> f64 {
        if self.incidents == 0 {
            0.0
        } else {
            self.detection_hours / self.incidents as f64
        }
    }
}

/// The ledger.
#[derive(Debug, Clone, Default)]
pub struct DowntimeLedger {
    incidents: BTreeMap<IncidentId, Incident>,
    next: u64,
}

impl DowntimeLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        DowntimeLedger::default()
    }

    /// Open a new incident at fault onset, charged to the whole site.
    /// Prefer [`DowntimeLedger::open_scoped`] when the affected service
    /// or host is known — the SLO observatory keys availability on it.
    pub fn open(
        &mut self,
        category: FaultCategory,
        description: impl Into<String>,
        onset: SimTime,
    ) -> IncidentId {
        self.open_scoped(category, "site", description, onset)
    }

    /// Open a new incident at fault onset, charging the downtime to
    /// `service` (a service name, hostname, or infrastructure domain
    /// such as `"network"`).
    pub fn open_scoped(
        &mut self,
        category: FaultCategory,
        service: impl Into<String>,
        description: impl Into<String>,
        onset: SimTime,
    ) -> IncidentId {
        let id = IncidentId(self.next);
        self.next += 1;
        self.incidents.insert(
            id,
            Incident {
                id,
                category,
                service: service.into(),
                description: description.into(),
                onset,
                detected: None,
                diagnosed: None,
                restored: None,
                attempts: Vec::new(),
                escalated: false,
            },
        );
        id
    }

    /// Record detection (first knowledge). Idempotent — the earliest
    /// detection wins.
    pub fn detect(&mut self, id: IncidentId, at: SimTime) -> bool {
        if let Some(inc) = self.incidents.get_mut(&id) {
            if inc.detected.is_none_or(|t| at < t) {
                inc.detected = Some(at);
            }
            true
        } else {
            false
        }
    }

    /// Record diagnosis (cause pinned down). Idempotent — the earliest
    /// diagnosis wins. Detection defaults to the same instant if it was
    /// never recorded.
    pub fn diagnose(&mut self, id: IncidentId, at: SimTime) -> bool {
        if let Some(inc) = self.incidents.get_mut(&id) {
            if inc.diagnosed.is_none_or(|t| at < t) {
                inc.diagnosed = Some(at);
            }
            if inc.detected.is_none() {
                inc.detected = Some(at);
            }
            true
        } else {
            false
        }
    }

    /// Record a repair try that did **not** (or has not yet) closed the
    /// incident — e.g. an agent detecting and paging a fault it is not
    /// allowed to heal, before the human escalation. Ignored on closed
    /// incidents (the history is frozen at restore).
    pub fn attempt(
        &mut self,
        id: IncidentId,
        at: SimTime,
        actor: Actor,
        action: impl Into<String>,
    ) -> bool {
        if let Some(inc) = self.incidents.get_mut(&id) {
            if inc.restored.is_none() {
                inc.attempts.push(RepairAttempt {
                    at,
                    actor,
                    action: action.into(),
                    resolved: false,
                });
            }
            true
        } else {
            false
        }
    }

    /// Record that humans were paged about the incident.
    pub fn escalate(&mut self, id: IncidentId, at: SimTime) -> bool {
        if let Some(inc) = self.incidents.get_mut(&id) {
            inc.escalated = true;
            if inc.detected.is_none() {
                inc.detected = Some(at);
            }
            true
        } else {
            false
        }
    }

    /// Close the incident at restoration, appending the **resolving**
    /// attempt to the history. Detection and diagnosis default to the
    /// restore instant if they were never recorded — and are clamped
    /// *down* to it if they were pre-recorded for a later time (a manual
    /// pipeline may stamp its scheduled detection/engagement ahead of
    /// time, then lose the race to an agent repair). Attempts recorded
    /// for a *later* time than the resolution are dropped for the same
    /// reason. Every closed record is thus lifecycle-complete and
    /// ordered.
    pub fn restore(
        &mut self,
        id: IncidentId,
        at: SimTime,
        actor: Actor,
        action: impl Into<String>,
    ) -> bool {
        if let Some(inc) = self.incidents.get_mut(&id) {
            if inc.restored.is_none() {
                inc.restored = Some(at);
                let detected = inc.detected.map_or(at, |t| t.min(at));
                inc.detected = Some(detected);
                inc.diagnosed = Some(inc.diagnosed.map_or(at, |t| t.min(at)).max(detected));
                inc.attempts.retain(|a| a.at <= at);
                inc.attempts.push(RepairAttempt {
                    at,
                    actor,
                    action: action.into(),
                    resolved: true,
                });
            }
            true
        } else {
            false
        }
    }

    /// Incident accessor.
    pub fn get(&self, id: IncidentId) -> Option<&Incident> {
        self.incidents.get(&id)
    }

    /// All incidents (id order).
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.values()
    }

    /// Incidents still open.
    pub fn open_incidents(&self) -> Vec<&Incident> {
        self.incidents
            .values()
            .filter(|i| i.restored.is_none())
            .collect()
    }

    /// Lifecycle violations across the whole ledger (empty when every
    /// record is sound — the triage invariant).
    pub fn lifecycle_violations(&self) -> Vec<String> {
        self.incidents
            .values()
            .filter_map(Incident::lifecycle_violation)
            .collect()
    }

    /// Per-category totals over closed incidents.
    pub fn totals(&self) -> BTreeMap<FaultCategory, CategoryTotals> {
        self.totals_scoped(crate::slo::SloScope::All)
    }

    /// Per-category totals over closed incidents admitted by `scope` —
    /// the Figure 2 accounting restricted to one failure class (or all
    /// of them). `totals_scoped(SloScope::All)` equals [`Self::totals`].
    pub fn totals_scoped(
        &self,
        scope: crate::slo::SloScope,
    ) -> BTreeMap<FaultCategory, CategoryTotals> {
        let mut out: BTreeMap<FaultCategory, CategoryTotals> = BTreeMap::new();
        for inc in self.incidents.values() {
            let Some(downtime) = inc.downtime() else {
                continue;
            };
            if !scope.admits(inc.failure_class()) {
                continue;
            }
            let t = out.entry(inc.category).or_default();
            t.incidents += 1;
            t.downtime_hours += downtime.as_hours_f64();
            if let Some(d) = inc.detection_latency() {
                t.detection_hours += d.as_hours_f64();
            }
            if let Some(r) = inc.repair_time() {
                t.repair_hours += r.as_hours_f64();
            }
            if inc.auto_repaired() {
                t.auto_repaired += 1;
            }
            if inc.escalated {
                t.escalated += 1;
            }
        }
        out
    }

    /// Total downtime hours over all closed incidents.
    pub fn total_downtime_hours(&self) -> f64 {
        self.totals().values().map(|t| t.downtime_hours).sum()
    }

    /// Render the Figure 2 style breakdown, category order of the
    /// figure legend.
    pub fn figure2_rows(&self) -> Vec<(FaultCategory, f64)> {
        let totals = self.totals();
        FaultCategory::ALL
            .iter()
            .map(|c| (*c, totals.get(c).map(|t| t.downtime_hours).unwrap_or(0.0)))
            .collect()
    }

    /// The Figure 2 breakdown restricted to one accounting scope.
    pub fn figure2_rows_scoped(&self, scope: crate::slo::SloScope) -> Vec<(FaultCategory, f64)> {
        let totals = self.totals_scoped(scope);
        FaultCategory::ALL
            .iter()
            .map(|c| (*c, totals.get(c).map(|t| t.downtime_hours).unwrap_or(0.0)))
            .collect()
    }

    /// Serialise the full ledger as JSON (incidents with their lifecycle
    /// plus the per-category totals). Hand-rolled because the build
    /// environment has no serde; the shape is stable and consumed by the
    /// triage tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"incidents\": [\n");
        let mut first = true;
        for inc in self.incidents.values() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    {");
            out.push_str(&format!("\"id\": {}, ", inc.id.0));
            out.push_str(&format!(
                "\"category\": {}, ",
                json_str(inc.category.label())
            ));
            out.push_str(&format!("\"service\": {}, ", json_str(&inc.service)));
            out.push_str(&format!(
                "\"description\": {}, ",
                json_str(&inc.description)
            ));
            out.push_str(&format!("\"onset\": {}, ", inc.onset.as_secs()));
            out.push_str(&format!("\"detected\": {}, ", json_opt_time(inc.detected)));
            out.push_str(&format!(
                "\"diagnosed\": {}, ",
                json_opt_time(inc.diagnosed)
            ));
            out.push_str(&format!("\"restored\": {}, ", json_opt_time(inc.restored)));
            out.push_str(&format!(
                "\"actor\": {}, ",
                inc.repaired_by()
                    .map(|a| json_str(a.label()))
                    .unwrap_or_else(|| "null".into())
            ));
            out.push_str(&format!(
                "\"action\": {}, ",
                inc.repair_action()
                    .map(json_str)
                    .unwrap_or_else(|| "null".into())
            ));
            out.push_str("\"attempts\": [");
            for (i, a) in inc.attempts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"at\": {}, \"actor\": {}, \"action\": {}, \"resolved\": {}}}",
                    a.at.as_secs(),
                    json_str(a.actor.label()),
                    json_str(&a.action),
                    a.resolved
                ));
            }
            out.push_str("], ");
            out.push_str(&format!("\"escalated\": {}, ", inc.escalated));
            out.push_str(&format!(
                "\"failure_class\": {}, ",
                json_str(inc.failure_class().label())
            ));
            out.push_str(&format!("\"is_actionable\": {}", inc.is_actionable()));
            out.push('}');
        }
        out.push_str("\n  ],\n  \"totals\": {\n");
        let totals = self.totals();
        let mut first = true;
        for (cat, t) in &totals {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {}: {{\"incidents\": {}, \"downtime_hours\": {:.4}, \"detection_hours\": {:.4}, \"repair_hours\": {:.4}, \"auto_repaired\": {}, \"escalated\": {}}}",
                json_str(cat.label()),
                t.incidents,
                t.downtime_hours,
                t.detection_hours,
                t.repair_hours,
                t.auto_repaired,
                t.escalated,
            ));
        }
        out.push_str(&format!(
            "\n  }},\n  \"total_downtime_hours\": {:.4},\n  \"open_incidents\": {},\n  \"taxonomy\": 1\n}}\n",
            self.total_downtime_hours(),
            self.open_incidents().len()
        ));
        out
    }
}

/// Minimal JSON string escaping (quote, backslash, control chars).
pub(crate) fn json_str(s: &str) -> String {
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

fn json_opt_time(t: Option<SimTime>) -> String {
    t.map(|t| t.as_secs().to_string())
        .unwrap_or_else(|| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_simkern::SimDuration;

    #[test]
    fn incident_lifecycle() {
        let mut l = DowntimeLedger::new();
        let id = l.open(
            FaultCategory::HumanError,
            "killed oracle",
            SimTime::from_hours(1),
        );
        assert_eq!(l.open_incidents().len(), 1);
        assert!(l.detect(id, SimTime::from_hours(2)));
        assert!(l.diagnose(id, SimTime::from_hours(3)));
        assert!(l.restore(id, SimTime::from_hours(4), Actor::Human, "restart oracle"));
        let inc = l.get(id).unwrap();
        assert_eq!(inc.detection_latency(), Some(SimDuration::from_hours(1)));
        assert_eq!(inc.repair_time(), Some(SimDuration::from_hours(2)));
        assert_eq!(inc.downtime(), Some(SimDuration::from_hours(3)));
        assert_eq!(inc.diagnosed, Some(SimTime::from_hours(3)));
        assert_eq!(inc.repaired_by(), Some(Actor::Human));
        assert_eq!(inc.repair_action(), Some("restart oracle"));
        assert_eq!(inc.attempts().len(), 1);
        assert!(inc.attempts()[0].resolved);
        assert!(!inc.auto_repaired());
        assert!(inc.lifecycle_violation().is_none());
        assert!(l.open_incidents().is_empty());
        assert!(l.lifecycle_violations().is_empty());
    }

    #[test]
    fn scoped_open_records_service_and_exports_it() {
        let mut l = DowntimeLedger::new();
        let id = l.open_scoped(
            FaultCategory::MidJobDbCrash,
            "db003",
            "crash",
            SimTime::ZERO,
        );
        assert_eq!(l.get(id).unwrap().service, "db003");
        let plain = l.open(FaultCategory::Hardware, "cpu", SimTime::ZERO);
        assert_eq!(l.get(plain).unwrap().service, "site");
        assert!(l.to_json().contains("\"service\": \"db003\""));
    }

    #[test]
    fn earliest_detection_and_diagnosis_win() {
        let mut l = DowntimeLedger::new();
        let id = l.open(FaultCategory::LsfError, "x", SimTime::ZERO);
        l.detect(id, SimTime::from_mins(5));
        l.detect(id, SimTime::from_mins(50));
        l.diagnose(id, SimTime::from_mins(40));
        l.diagnose(id, SimTime::from_mins(10));
        assert_eq!(l.get(id).unwrap().detected, Some(SimTime::from_mins(5)));
        assert_eq!(l.get(id).unwrap().diagnosed, Some(SimTime::from_mins(10)));
    }

    #[test]
    fn restore_defaults_detection_and_diagnosis() {
        let mut l = DowntimeLedger::new();
        let id = l.open(FaultCategory::Hardware, "x", SimTime::ZERO);
        l.restore(id, SimTime::from_hours(2), Actor::Agent, "offline cpu");
        {
            let inc = l.get(id).unwrap();
            assert_eq!(inc.detected, Some(SimTime::from_hours(2)));
            assert_eq!(inc.diagnosed, Some(SimTime::from_hours(2)));
            assert!(inc.auto_repaired());
            assert!(inc.lifecycle_violation().is_none());
        }
        // Second restore is a no-op.
        l.restore(id, SimTime::from_hours(9), Actor::Human, "late");
        assert_eq!(l.get(id).unwrap().restored, Some(SimTime::from_hours(2)));
        assert_eq!(l.get(id).unwrap().repaired_by(), Some(Actor::Agent));
        assert_eq!(l.get(id).unwrap().attempts().len(), 1);
    }

    #[test]
    fn attempt_history_keeps_agent_try_then_human_escalation() {
        let mut l = DowntimeLedger::new();
        let id = l.open(FaultCategory::FirewallNetwork, "switch", SimTime::ZERO);
        assert!(l.attempt(id, SimTime::from_mins(5), Actor::Agent, "detect-and-page"));
        l.escalate(id, SimTime::from_mins(5));
        l.restore(id, SimTime::from_hours(3), Actor::Human, "fix switch");
        let inc = l.get(id).unwrap();
        assert_eq!(inc.attempts().len(), 2);
        assert_eq!(inc.attempts()[0].actor, Actor::Agent);
        assert!(!inc.attempts()[0].resolved);
        assert_eq!(inc.attempts()[1].actor, Actor::Human);
        assert!(inc.attempts()[1].resolved);
        // The resolving attempt is what the headline accessors report.
        assert_eq!(inc.repaired_by(), Some(Actor::Human));
        assert_eq!(inc.repair_action(), Some("fix switch"));
        assert!(!inc.auto_repaired());
        assert!(inc.lifecycle_violation().is_none());
        // The history is frozen after close.
        assert!(l.attempt(id, SimTime::from_hours(4), Actor::Agent, "late"));
        assert_eq!(l.get(id).unwrap().attempts().len(), 2);
    }

    #[test]
    fn restore_drops_attempts_stamped_after_resolution() {
        let mut l = DowntimeLedger::new();
        let id = l.open(FaultCategory::LsfError, "x", SimTime::ZERO);
        // A manual pipeline pre-records its (future) scheduled try, then
        // loses the race to an agent repair.
        l.attempt(id, SimTime::from_hours(5), Actor::Human, "scheduled");
        l.restore(id, SimTime::from_mins(10), Actor::Agent, "self-heal");
        let inc = l.get(id).unwrap();
        assert_eq!(inc.attempts().len(), 1);
        assert!(inc.attempts()[0].resolved);
        assert!(inc.lifecycle_violation().is_none());
    }

    #[test]
    fn escalation_is_recorded() {
        let mut l = DowntimeLedger::new();
        let id = l.open(
            FaultCategory::FirewallNetwork,
            "segment down",
            SimTime::ZERO,
        );
        l.escalate(id, SimTime::from_mins(5));
        l.restore(id, SimTime::from_hours(1), Actor::Human, "fix switch");
        let inc = l.get(id).unwrap();
        assert!(inc.escalated);
        assert_eq!(l.totals()[&FaultCategory::FirewallNetwork].escalated, 1);
    }

    #[test]
    fn totals_aggregate_per_category() {
        let mut l = DowntimeLedger::new();
        for i in 0..3u64 {
            let id = l.open(
                FaultCategory::MidJobDbCrash,
                "crash",
                SimTime::from_hours(i * 10),
            );
            l.detect(id, SimTime::from_hours(i * 10 + 1));
            let actor = if i % 2 == 0 {
                Actor::Agent
            } else {
                Actor::Human
            };
            l.restore(id, SimTime::from_hours(i * 10 + 3), actor, "restart db");
        }
        let open = l.open(
            FaultCategory::MidJobDbCrash,
            "still down",
            SimTime::from_hours(99),
        );
        let _ = open; // open incidents don't count
        let t = l.totals()[&FaultCategory::MidJobDbCrash];
        assert_eq!(t.incidents, 3);
        assert!((t.downtime_hours - 9.0).abs() < 1e-9);
        assert!((t.detection_hours - 3.0).abs() < 1e-9);
        assert!((t.repair_hours - 6.0).abs() < 1e-9);
        assert_eq!(t.auto_repaired, 2);
        assert!((t.mean_downtime_hours() - 3.0).abs() < 1e-9);
        assert!((l.total_downtime_hours() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn figure2_rows_cover_all_categories() {
        let mut l = DowntimeLedger::new();
        let id = l.open(FaultCategory::FrontEndError, "hang", SimTime::ZERO);
        l.restore(id, SimTime::from_hours(2), Actor::Agent, "bounce");
        let rows = l.figure2_rows();
        assert_eq!(rows.len(), 8);
        let fe = rows
            .iter()
            .find(|(c, _)| *c == FaultCategory::FrontEndError)
            .unwrap();
        assert!((fe.1 - 2.0).abs() < 1e-9);
        // Untouched categories report zero.
        let hw = rows
            .iter()
            .find(|(c, _)| *c == FaultCategory::Hardware)
            .unwrap();
        assert_eq!(hw.1, 0.0);
    }

    #[test]
    fn bad_ids_are_rejected() {
        let mut l = DowntimeLedger::new();
        assert!(!l.detect(IncidentId(42), SimTime::ZERO));
        assert!(!l.diagnose(IncidentId(42), SimTime::ZERO));
        assert!(!l.escalate(IncidentId(42), SimTime::ZERO));
        assert!(!l.restore(IncidentId(42), SimTime::ZERO, Actor::Human, "x"));
    }

    #[test]
    fn lifecycle_violations_catch_incomplete_records() {
        let mut l = DowntimeLedger::new();
        let id = l.open(FaultCategory::Hardware, "x", SimTime::from_hours(1));
        // Hand-build a broken record: restored without actor.
        // (Only reachable by construction — the API always sets both.)
        let mut inc = l.get(id).unwrap().clone();
        inc.restored = Some(SimTime::from_hours(2));
        inc.detected = Some(SimTime::from_hours(1));
        inc.diagnosed = Some(SimTime::from_hours(1));
        assert!(inc
            .lifecycle_violation()
            .unwrap()
            .contains("without an actor"));
        // An unresolved attempt alone does not make an actor.
        inc.attempts.push(RepairAttempt {
            at: SimTime::from_hours(1),
            actor: Actor::Agent,
            action: "try".into(),
            resolved: false,
        });
        assert!(inc
            .lifecycle_violation()
            .unwrap()
            .contains("without an actor"));
        inc.attempts.push(RepairAttempt {
            at: SimTime::from_hours(2),
            actor: Actor::Human,
            action: String::new(),
            resolved: true,
        });
        assert!(inc
            .lifecycle_violation()
            .unwrap()
            .contains("without a repair action"));
        inc.attempts[1].action = "swap board".into();
        assert!(inc.lifecycle_violation().is_none());
        // Attempts after the resolving one are a violation.
        inc.attempts.push(RepairAttempt {
            at: SimTime::from_hours(3),
            actor: Actor::Agent,
            action: "late".into(),
            resolved: false,
        });
        assert!(inc
            .lifecycle_violation()
            .unwrap()
            .contains("after the resolving"));
        inc.attempts.pop();
        // Out-of-order attempt history.
        inc.attempts[0].at = SimTime::from_hours(9);
        inc.attempts[1].at = SimTime::from_hours(2);
        assert!(inc.lifecycle_violation().unwrap().contains("out of order"));
        inc.attempts[0].at = SimTime::from_hours(1);
        // Out-of-order lifecycle.
        inc.diagnosed = Some(SimTime::from_mins(10));
        assert!(inc.lifecycle_violation().unwrap().contains("diagnosed"));
    }

    #[test]
    fn json_export_is_wellformed_and_complete() {
        let mut l = DowntimeLedger::new();
        let a = l.open(
            FaultCategory::MidJobDbCrash,
            "db \"x\" crashed",
            SimTime::from_hours(1),
        );
        l.detect(a, SimTime::from_hours(1));
        l.diagnose(a, SimTime::from_hours(1));
        l.restore(a, SimTime::from_hours(2), Actor::Agent, "restart-service");
        let _open = l.open(
            FaultCategory::Hardware,
            "cpu|degrading",
            SimTime::from_hours(3),
        );
        let json = l.to_json();
        assert!(json.contains("\"incidents\": ["));
        assert!(json.contains("\"actor\": \"agent\""));
        assert!(json.contains("\"db \\\"x\\\" crashed\""));
        assert!(json.contains("\"restored\": null"));
        assert!(json.contains("\"open_incidents\": 1"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the tree).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
