//! The online QoS observatory: per-service availability budgets,
//! MTTR, and windowed error-budget burn rate, maintained **during**
//! `World::run` instead of reconstructed post-hoc from the ledger.
//!
//! The paper's headline claim is an availability number — 99.99% after
//! deploying intelliagents — so the reproduction treats availability as
//! an explicit SLO: every incident charges its downtime to a service
//! key (service name, hostname, or infrastructure domain), the tracker
//! keeps the remaining downtime budget against the target, and a
//! windowed burn-rate check fires an `SloAlert` the moment a service
//! consumes budget faster than the configured multiple of its
//! sustainable rate — the Google-SRE-style fast-burn page, evaluated
//! online at incident close.
//!
//! Two refinements make the budget actionable rather than a mixed bag:
//!
//! * every closed incident carries a [`FailureClass`], and the burn
//!   accounting is **scoped** — by default only `service-fault`
//!   (actionable) downtime burns the budget, with `client-workload`
//!   and `transient-abort` downtime tracked separately and reported
//!   per scope;
//! * targets are **declared, differentiated objects** on the scenario
//!   ([`SloConfig::service_targets`]) instead of one compile-time
//!   constant, validated at `World::try_build`, so a best-effort batch
//!   tier and a 99.99% database tier each report against their own
//!   budget line.
//!
//! Everything here is simulation-time arithmetic over ledger events:
//! deterministic, allocation-light, and always on (a run without
//! incidents costs nothing beyond the struct).

use std::collections::BTreeMap;

use intelliqos_simkern::{SimDuration, SimTime};

use crate::downtime::{json_str, FailureClass, IncidentId};

/// Which failure classes an accounting view admits. `Service` (the
/// default burn scope) counts only actionable failures; `All` is the
/// legacy undifferentiated view; `Client` and `Abort` isolate the
/// non-actionable classes so the arithmetic closes:
/// `all == service + client + abort` in every integer column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloScope {
    /// Every closed incident, regardless of class.
    All,
    /// Only `service-fault` incidents — the actionable budget view.
    Service,
    /// Only `client-workload` incidents.
    Client,
    /// Only `transient-abort` incidents.
    Abort,
}

impl SloScope {
    /// Every scope, report order.
    pub const ALL: [SloScope; 4] = [
        SloScope::All,
        SloScope::Service,
        SloScope::Client,
        SloScope::Abort,
    ];

    /// Lower-case tag used in exports and the `--scope` CLI toggle.
    pub fn label(self) -> &'static str {
        match self {
            SloScope::All => "all",
            SloScope::Service => "service",
            SloScope::Client => "client",
            SloScope::Abort => "abort",
        }
    }

    /// Parse the closed-world label set; anything else is `None`.
    pub fn parse(s: &str) -> Option<SloScope> {
        SloScope::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Does an incident of `class` count under this scope?
    pub fn admits(self, class: FailureClass) -> bool {
        match self {
            SloScope::All => true,
            SloScope::Service => class == FailureClass::ServiceFault,
            SloScope::Client => class == FailureClass::ClientWorkload,
            SloScope::Abort => class == FailureClass::TransientAbort,
        }
    }
}

impl std::fmt::Display for SloScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Availability-SLO parameters — the declared QoS objectives of a
/// scenario, carried on `ScenarioConfig` and validated at
/// `World::try_build` (targets in `(0, 1)`, no duplicate service keys,
/// keys resolving to real hosts/services).
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Scenario-wide availability target in `(0, 1)`; the paper claims
    /// 99.99%. Services without an override report against this.
    pub availability_target: f64,
    /// Burn-rate evaluation window.
    pub window: SimDuration,
    /// Alert when the window's downtime exceeds `burn_threshold ×` the
    /// budget the window is allotted at the target rate. At 99.99% a
    /// 24 h window earns ~8.6 s of budget, so the default of 100 fires
    /// on ≳14 min of downtime per day — routine for hours-long manual
    /// repairs, rare for minutes-long agent heals.
    pub burn_threshold: f64,
    /// Which failure classes burn the budget. Defaults to
    /// [`SloScope::Service`]: only actionable failures page.
    pub burn_scope: SloScope,
    /// Per-service target overrides, `(slo key, target)` pairs. The
    /// key is whatever the ledger charges the incident to — a service
    /// name (`trades-db-003`), a hostname (`db003`), or an
    /// infrastructure domain (`network`, `site`).
    pub service_targets: Vec<(String, f64)>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            availability_target: 0.9999,
            window: SimDuration::from_hours(24),
            burn_threshold: 100.0,
            burn_scope: SloScope::Service,
            service_targets: Vec::new(),
        }
    }
}

impl SloConfig {
    /// The availability target `service` reports against: its declared
    /// override, or the scenario-wide default.
    pub fn target_for(&self, service: &str) -> f64 {
        self.service_targets
            .iter()
            .find(|(k, _)| k == service)
            .map(|&(_, t)| t)
            .unwrap_or(self.availability_target)
    }
}

/// One fast-burn alert: `service` consumed its error budget at
/// `burn_rate ×` the sustainable rate over the configured window ending
/// at `at`. Only incidents admitted by the configured burn scope feed
/// the window, so the page is actionable by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// When the alert fired (the incident-close instant).
    pub at: SimTime,
    /// The service (or host / domain) burning budget.
    pub service: String,
    /// The incident whose close triggered the evaluation.
    pub incident: IncidentId,
    /// Window downtime ÷ window budget.
    pub burn_rate: f64,
}

/// Integer accumulators for one failure class of one service.
#[derive(Debug, Clone, Copy, Default)]
struct ClassSlo {
    incidents: u64,
    downtime: SimDuration,
    repair: SimDuration,
}

#[derive(Debug, Clone, Default)]
struct ServiceSlo {
    /// Accumulators indexed by [`FailureClass::index`].
    by_class: [ClassSlo; 3],
    burn_alerts: u64,
    /// Closed downtime episodes `(onset, restored, class)` still inside
    /// the burn window; pruned as the window slides.
    episodes: Vec<(SimTime, SimTime, FailureClass)>,
}

impl ServiceSlo {
    /// Sum the accumulators the scope admits.
    fn scoped(&self, scope: SloScope) -> ClassSlo {
        let mut out = ClassSlo::default();
        for class in FailureClass::ALL {
            if scope.admits(class) {
                let c = &self.by_class[class.index()];
                out.incidents += c.incidents;
                out.downtime += c.downtime;
                out.repair += c.repair;
            }
        }
        out
    }
}

/// Online SLO state for one run. Fed by the world at every incident
/// close; queried for the end-of-run report.
#[derive(Debug, Clone)]
pub struct SloTracker {
    cfg: SloConfig,
    fleet_size: u64,
    services: BTreeMap<String, ServiceSlo>,
    alerts: Vec<SloAlert>,
}

impl SloTracker {
    /// A tracker for a fleet of `fleet_size` servers (the denominator
    /// of the fleet-wide availability figure).
    pub fn new(cfg: SloConfig, fleet_size: u64) -> Self {
        SloTracker {
            cfg,
            fleet_size: fleet_size.max(1),
            services: BTreeMap::new(),
            alerts: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Account one closed incident of failure class `class`: charge
    /// `restored - onset` of downtime to `service` under that class,
    /// update MTTR, slide the burn window, and return the fast-burn
    /// alert if the window blew its threshold. Only episodes the
    /// configured burn scope admits feed the window — a client-induced
    /// outage or an auto-healed blip never pages under the default
    /// `service` scope.
    pub fn on_close(
        &mut self,
        service: &str,
        incident: IncidentId,
        class: FailureClass,
        onset: SimTime,
        detected: SimTime,
        restored: SimTime,
    ) -> Option<SloAlert> {
        let burn_scope = self.cfg.burn_scope;
        let st = self.services.entry(service.to_string()).or_default();
        let c = &mut st.by_class[class.index()];
        c.incidents += 1;
        c.downtime += restored.since(onset);
        c.repair += restored.since(detected);
        st.episodes.push((onset, restored, class));

        // Window downtime: overlap of every recent in-scope episode
        // with [restored - window, restored].
        let wstart =
            SimTime::from_secs(restored.as_secs().saturating_sub(self.cfg.window.as_secs()));
        st.episodes.retain(|&(_, end, _)| end >= wstart);
        // Episodes close in time order, so every retained end is within
        // the window; the overlap is end minus the clamped start.
        let window_downtime: u64 = st
            .episodes
            .iter()
            .filter(|&&(_, _, cls)| burn_scope.admits(cls))
            .map(|&(s, e, _)| e.as_secs() - s.as_secs().max(wstart.as_secs()))
            .sum();
        let budget = (1.0 - self.cfg.target_for(service)) * self.cfg.window.as_secs() as f64;
        if budget <= 0.0 {
            return None;
        }
        let burn_rate = window_downtime as f64 / budget;
        if burn_rate >= self.cfg.burn_threshold {
            st.burn_alerts += 1;
            let alert = SloAlert {
                at: restored,
                service: service.to_string(),
                incident,
                burn_rate,
            };
            self.alerts.push(alert.clone());
            Some(alert)
        } else {
            None
        }
    }

    /// Every fast-burn alert fired so far, in firing order.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Snapshot the availability report for a run of length `horizon`.
    pub fn report(&self, horizon: SimDuration) -> SloReport {
        let horizon_secs = horizon.as_secs().max(1);
        let services = self
            .services
            .iter()
            .map(|(name, st)| {
                let target = self.cfg.target_for(name);
                let mut row = ServiceSloRow {
                    service: name.clone(),
                    target,
                    incidents: 0,
                    downtime_secs: 0,
                    availability: 0.0,
                    budget_secs: 0.0,
                    budget_remaining_secs: 0.0,
                    repair_secs: 0,
                    mttr_secs: 0.0,
                    burn_alerts: st.burn_alerts,
                    scopes: SloScope::ALL
                        .into_iter()
                        .map(|scope| {
                            let c = st.scoped(scope);
                            ScopeSloRow {
                                scope,
                                incidents: c.incidents,
                                downtime_secs: c.downtime.as_secs(),
                                repair_secs: c.repair.as_secs(),
                                availability: 0.0,
                                mttr_secs: 0.0,
                                burn_rate: 0.0,
                            }
                        })
                        .collect(),
                };
                row.recompute(horizon_secs);
                row
            })
            .collect();
        SloReport {
            target: self.cfg.availability_target,
            window_secs: self.cfg.window.as_secs(),
            burn_threshold: self.cfg.burn_threshold,
            burn_scope: self.cfg.burn_scope,
            horizon_secs,
            fleet_size: self.fleet_size,
            services,
            alerts: self.alerts.clone(),
        }
    }
}

/// One accounting scope of one service: the same integer numerators
/// and derived figures, restricted to the failure classes the scope
/// admits. `burn_rate` here is horizon budget utilisation — downtime ÷
/// the whole-run budget at the row's target — not the windowed paging
/// rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeSloRow {
    /// Which classes this row counts.
    pub scope: SloScope,
    /// Closed incidents admitted by the scope.
    pub incidents: u64,
    /// Downtime charged under the scope, seconds.
    pub downtime_secs: u64,
    /// Repair time under the scope, seconds (integer MTTR numerator).
    pub repair_secs: u64,
    /// `1 - downtime / horizon`, clamped to `[0, 1]`.
    pub availability: f64,
    /// Mean time to repair over the scope's incidents, seconds.
    pub mttr_secs: f64,
    /// Scope downtime ÷ horizon budget at the service's target.
    pub burn_rate: f64,
}

/// One service's availability accounting over the run. The top-level
/// fields are the undifferentiated (`all`-scope) view every consumer
/// has always read; `scopes` carries the per-class breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSloRow {
    /// The accounting key (service name, hostname, or domain).
    pub service: String,
    /// The availability target this service reports against (its
    /// declared override, or the scenario default).
    pub target: f64,
    /// Closed incidents charged to it (all scopes).
    pub incidents: u64,
    /// Total downtime charged, seconds (all scopes).
    pub downtime_secs: u64,
    /// `1 - downtime / horizon`, clamped to `[0, 1]`.
    pub availability: f64,
    /// The downtime budget the horizon allows at the target.
    pub budget_secs: f64,
    /// Budget minus charged downtime (negative = budget blown).
    pub budget_remaining_secs: f64,
    /// Total repair time (`restored - detected` summed), seconds: the
    /// integer MTTR numerator.
    pub repair_secs: u64,
    /// Mean time to repair: mean of `restored - detected`, seconds.
    pub mttr_secs: f64,
    /// Fast-burn alerts fired for this service.
    pub burn_alerts: u64,
    /// Per-scope breakdown, [`SloScope::ALL`] order. The integer
    /// columns close: `all == service + client + abort`.
    pub scopes: Vec<ScopeSloRow>,
}

impl ServiceSloRow {
    /// Compute every derived float from the integer numerators and the
    /// row's own target.
    fn recompute(&mut self, horizon_secs: u64) {
        let horizon = horizon_secs.max(1) as f64;
        let budget = (1.0 - self.target) * horizon;
        for s in &mut self.scopes {
            s.availability = (1.0 - s.downtime_secs as f64 / horizon).clamp(0.0, 1.0);
            s.mttr_secs = if s.incidents == 0 {
                0.0
            } else {
                s.repair_secs as f64 / s.incidents as f64
            };
            s.burn_rate = if budget > 0.0 {
                s.downtime_secs as f64 / budget
            } else {
                0.0
            };
        }
        let all = self
            .scopes
            .iter()
            .find(|s| s.scope == SloScope::All)
            .cloned()
            .unwrap_or(ScopeSloRow {
                scope: SloScope::All,
                incidents: 0,
                downtime_secs: 0,
                repair_secs: 0,
                availability: 1.0,
                mttr_secs: 0.0,
                burn_rate: 0.0,
            });
        self.incidents = all.incidents;
        self.downtime_secs = all.downtime_secs;
        self.repair_secs = all.repair_secs;
        self.availability = all.availability;
        self.mttr_secs = all.mttr_secs;
        self.budget_secs = budget;
        self.budget_remaining_secs = budget - all.downtime_secs as f64;
    }

    /// The breakdown row for one scope.
    pub fn scope_row(&self, scope: SloScope) -> Option<&ScopeSloRow> {
        self.scopes.iter().find(|s| s.scope == scope)
    }
}

/// The schema-validated `slo_report` document exported next to every
/// figure's evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Scenario-wide availability target (per-service rows may carry
    /// their own).
    pub target: f64,
    /// Burn-rate window, seconds.
    pub window_secs: u64,
    /// Burn-rate alert threshold.
    pub burn_threshold: f64,
    /// Which failure classes burned the budget in this run.
    pub burn_scope: SloScope,
    /// Run length, seconds.
    pub horizon_secs: u64,
    /// Servers in the fleet (denominator of the fleet availability).
    pub fleet_size: u64,
    /// Per-service rows, key order.
    pub services: Vec<ServiceSloRow>,
    /// Every alert fired, in firing order.
    pub alerts: Vec<SloAlert>,
}

impl SloReport {
    /// Total downtime across every service key, seconds (all scopes).
    pub fn total_downtime_secs(&self) -> u64 {
        self.services.iter().map(|s| s.downtime_secs).sum()
    }

    /// Total downtime under one scope, seconds.
    pub fn scope_downtime_secs(&self, scope: SloScope) -> u64 {
        self.services
            .iter()
            .filter_map(|s| s.scope_row(scope))
            .map(|s| s.downtime_secs)
            .sum()
    }

    /// Fleet-wide availability: `1 - total_downtime / (fleet × horizon)`
    /// — the figure comparable to the paper's 99.99% claim, where one
    /// server-incident charges only its share of the fleet's uptime.
    pub fn fleet_availability(&self) -> f64 {
        let denom = (self.fleet_size * self.horizon_secs) as f64;
        (1.0 - self.total_downtime_secs() as f64 / denom).clamp(0.0, 1.0)
    }

    /// Fleet-wide availability counting only the downtime one scope
    /// admits.
    pub fn fleet_availability_scoped(&self, scope: SloScope) -> f64 {
        let denom = (self.fleet_size * self.horizon_secs) as f64;
        (1.0 - self.scope_downtime_secs(scope) as f64 / denom).clamp(0.0, 1.0)
    }

    /// Serialise as JSON. Hand-rolled (no serde in the tree); validated
    /// by `evidence_check`.
    pub fn to_json(&self) -> String {
        self.json_doc(None)
    }

    /// Serialise with run provenance (seed + management mode) — the
    /// shape written into `results/evidence/`.
    pub fn to_json_with_run(&self, seed: u64, mode: &str) -> String {
        self.json_doc(Some((seed, mode)))
    }

    fn json_doc(&self, run: Option<(u64, &str)>) -> String {
        let mut out = String::from("{\n  \"report\": \"slo\",\n");
        if let Some((seed, mode)) = run {
            out.push_str(&format!(
                "  \"seed\": {},\n  \"mode\": {},\n",
                seed,
                json_str(mode)
            ));
        }
        out.push_str(&format!(
            "  \"target\": {:.6},\n  \"window_secs\": {},\n  \"burn_threshold\": {:.2},\n",
            self.target, self.window_secs, self.burn_threshold
        ));
        out.push_str(&format!(
            "  \"burn_scope\": {},\n",
            json_str(self.burn_scope.label())
        ));
        out.push_str(&format!(
            "  \"horizon_secs\": {},\n  \"fleet_size\": {},\n",
            self.horizon_secs, self.fleet_size
        ));
        out.push_str(&format!(
            "  \"total_downtime_secs\": {},\n  \"fleet_availability\": {:.8},\n",
            self.total_downtime_secs(),
            self.fleet_availability()
        ));
        out.push_str("  \"scope_downtime_secs\": {");
        for (i, scope) in SloScope::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {}",
                json_str(scope.label()),
                self.scope_downtime_secs(scope)
            ));
        }
        out.push_str("},\n  \"services\": [");
        for (i, s) in self.services.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"service\": {}, \"target\": {:.6}, \"incidents\": {}, \
                 \"downtime_secs\": {}, \"availability\": {:.8}, \"budget_secs\": {:.2}, \
                 \"budget_remaining_secs\": {:.2}, \"repair_secs\": {}, \
                 \"mttr_secs\": {:.2}, \"burn_alerts\": {}, \"scopes\": {{",
                json_str(&s.service),
                s.target,
                s.incidents,
                s.downtime_secs,
                s.availability,
                s.budget_secs,
                s.budget_remaining_secs,
                s.repair_secs,
                s.mttr_secs,
                s.burn_alerts
            ));
            for (j, sc) in s.scopes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {}: {{\"incidents\": {}, \"downtime_secs\": {}, \
                     \"repair_secs\": {}, \"availability\": {:.8}, \"mttr_secs\": {:.2}, \
                     \"burn_rate\": {:.4}}}",
                    json_str(sc.scope.label()),
                    sc.incidents,
                    sc.downtime_secs,
                    sc.repair_secs,
                    sc.availability,
                    sc.mttr_secs,
                    sc.burn_rate
                ));
            }
            out.push_str("}}");
        }
        if !self.services.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"alerts\": [");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"at\": {}, \"service\": {}, \"incident\": {}, \"burn_rate\": {:.2}}}",
                a.at.as_secs(),
                json_str(&a.service),
                a.incident.0,
                a.burn_rate
            ));
        }
        if !self.alerts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Short human summary for triage output.
    pub fn render_summary(&self) -> String {
        let blown = self
            .services
            .iter()
            .filter(|s| s.budget_remaining_secs < 0.0)
            .count();
        format!(
            "slo: fleet availability {:.5} (target {:.4}, burn scope {}), {} service key(s), \
             {} over budget, {} burn alert(s); downtime by class: \
             service {}s / client {}s / abort {}s",
            self.fleet_availability(),
            self.target,
            self.burn_scope,
            self.services.len(),
            blown,
            self.alerts.len(),
            self.scope_downtime_secs(SloScope::Service),
            self.scope_downtime_secs(SloScope::Client),
            self.scope_downtime_secs(SloScope::Abort),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(
        t: &mut SloTracker,
        svc: &str,
        id: u64,
        onset_s: u64,
        restored_s: u64,
    ) -> Option<SloAlert> {
        close_class(t, svc, id, FailureClass::ServiceFault, onset_s, restored_s)
    }

    fn close_class(
        t: &mut SloTracker,
        svc: &str,
        id: u64,
        class: FailureClass,
        onset_s: u64,
        restored_s: u64,
    ) -> Option<SloAlert> {
        t.on_close(
            svc,
            IncidentId(id),
            class,
            SimTime::from_secs(onset_s),
            SimTime::from_secs(onset_s),
            SimTime::from_secs(restored_s),
        )
    }

    #[test]
    fn downtime_and_mttr_accumulate_per_service() {
        let mut t = SloTracker::new(SloConfig::default(), 10);
        close(&mut t, "db003", 0, 100, 400);
        close(&mut t, "db003", 1, 10_000, 10_600);
        close(&mut t, "web001", 2, 50, 150);
        let r = t.report(SimDuration::from_days(1));
        assert_eq!(r.services.len(), 2);
        let db = r.services.iter().find(|s| s.service == "db003").unwrap();
        assert_eq!(db.incidents, 2);
        assert_eq!(db.downtime_secs, 900);
        assert!((db.mttr_secs - 450.0).abs() < 1e-9);
        assert!((db.availability - (1.0 - 900.0 / 86_400.0)).abs() < 1e-12);
        assert_eq!(r.total_downtime_secs(), 1000);
        // Fleet availability spreads downtime over the whole fleet.
        assert!((r.fleet_availability() - (1.0 - 1000.0 / (10.0 * 86_400.0))).abs() < 1e-12);
    }

    #[test]
    fn fast_burn_fires_over_threshold_only() {
        let cfg = SloConfig {
            availability_target: 0.9999,
            window: SimDuration::from_hours(24),
            burn_threshold: 100.0,
            ..SloConfig::default()
        };
        // Budget per 24 h window: 8.64 s; threshold: 864 s of downtime.
        let mut t = SloTracker::new(cfg, 1);
        assert!(close(&mut t, "web001", 0, 1000, 1500).is_none()); // 500 s: under
        let alert = close(&mut t, "web001", 1, 2000, 2500); // window now 1000 s
        let alert = alert.expect("second incident pushes the window over");
        assert!((alert.burn_rate - 1000.0 / 8.64).abs() < 1e-6);
        assert_eq!(alert.incident, IncidentId(1));
        assert_eq!(t.alerts().len(), 1);
        let r = t.report(SimDuration::from_days(1));
        assert_eq!(r.services[0].burn_alerts, 1);
    }

    #[test]
    fn non_actionable_downtime_never_pages_under_default_scope() {
        // The same downtime that pages as a service fault stays silent
        // when it is client-induced or an auto-healed blip — the burn
        // window only admits what the scope admits.
        let mut t = SloTracker::new(SloConfig::default(), 1);
        assert!(close_class(&mut t, "db003", 0, FailureClass::ClientWorkload, 0, 2000).is_none());
        assert!(
            close_class(&mut t, "db003", 1, FailureClass::TransientAbort, 3000, 5000).is_none()
        );
        assert!(t.alerts().is_empty(), "non-actionable downtime paged");
        // The downtime is still accounted — just not against the burn
        // window.
        let r = t.report(SimDuration::from_days(1));
        let row = &r.services[0];
        assert_eq!(row.downtime_secs, 4000);
        assert_eq!(row.scope_row(SloScope::Service).unwrap().downtime_secs, 0);
        assert_eq!(row.scope_row(SloScope::Client).unwrap().downtime_secs, 2000);
        assert_eq!(row.scope_row(SloScope::Abort).unwrap().downtime_secs, 2000);
        // An actionable fault of the same size pages immediately.
        assert!(close(&mut t, "db003", 2, 10_000, 12_000).is_some());
    }

    #[test]
    fn all_scope_burn_counts_every_class() {
        let cfg = SloConfig {
            burn_scope: SloScope::All,
            ..SloConfig::default()
        };
        let mut t = SloTracker::new(cfg, 1);
        let alert = close_class(&mut t, "db003", 0, FailureClass::ClientWorkload, 0, 2000);
        assert!(
            alert.is_some(),
            "under --scope all, client downtime burns too"
        );
    }

    #[test]
    fn scope_columns_close_to_the_all_row() {
        let mut t = SloTracker::new(SloConfig::default(), 4);
        close_class(&mut t, "a", 0, FailureClass::ServiceFault, 0, 300);
        close_class(&mut t, "a", 1, FailureClass::ClientWorkload, 400, 500);
        close_class(&mut t, "a", 2, FailureClass::TransientAbort, 600, 660);
        close_class(&mut t, "a", 3, FailureClass::ServiceFault, 700, 730);
        let r = t.report(SimDuration::from_days(1));
        let row = &r.services[0];
        for col in [
            |s: &ScopeSloRow| s.incidents,
            |s: &ScopeSloRow| s.downtime_secs,
            |s: &ScopeSloRow| s.repair_secs,
        ] {
            let all = col(row.scope_row(SloScope::All).unwrap());
            let parts = col(row.scope_row(SloScope::Service).unwrap())
                + col(row.scope_row(SloScope::Client).unwrap())
                + col(row.scope_row(SloScope::Abort).unwrap());
            assert_eq!(all, parts, "scope columns must close");
        }
        assert_eq!(row.incidents, 4);
        assert_eq!(row.downtime_secs, 490);
    }

    #[test]
    fn per_service_targets_give_each_service_its_own_budget() {
        let cfg = SloConfig {
            service_targets: vec![("batch".to_string(), 0.99), ("db003".to_string(), 0.99999)],
            ..SloConfig::default()
        };
        let mut t = SloTracker::new(cfg, 2);
        close(&mut t, "batch", 0, 0, 600);
        close(&mut t, "db003", 1, 0, 600);
        close(&mut t, "web001", 2, 0, 600);
        let r = t.report(SimDuration::from_days(1));
        let by_key = |k: &str| r.services.iter().find(|s| s.service == k).unwrap();
        let batch = by_key("batch");
        let db = by_key("db003");
        let web = by_key("web001");
        assert!((batch.target - 0.99).abs() < 1e-12);
        assert!((db.target - 0.99999).abs() < 1e-12);
        assert!((web.target - 0.9999).abs() < 1e-12, "default applies");
        // Same downtime, different budgets: the loose target keeps
        // budget in hand, the tight one is blown.
        assert!((batch.budget_secs - 864.0).abs() < 1e-9);
        assert!(batch.budget_remaining_secs > 0.0);
        assert!(db.budget_remaining_secs < 0.0);
        // And the tight target pages where the loose one does not.
        assert!(t.alerts().iter().any(|a| a.service == "db003"));
        assert!(!t.alerts().iter().any(|a| a.service == "batch"));
    }

    #[test]
    fn burn_window_slides_past_old_episodes() {
        let cfg = SloConfig {
            availability_target: 0.9999,
            window: SimDuration::from_hours(1),
            burn_threshold: 100.0, // 0.36 s budget/h → 36 s threshold
            ..SloConfig::default()
        };
        let mut t = SloTracker::new(cfg, 1);
        assert!(close(&mut t, "a", 0, 0, 100).is_some());
        // Two days later the old episode is out of the window; 30 s of
        // fresh downtime stays under the 36 s threshold.
        let two_days = 2 * 86_400;
        assert!(close(&mut t, "a", 1, two_days, two_days + 30).is_none());
        // Total downtime still counts both episodes.
        let r = t.report(SimDuration::from_days(3));
        assert_eq!(r.services[0].downtime_secs, 130);
    }

    #[test]
    fn report_json_is_balanced_and_tagged() {
        let mut t = SloTracker::new(SloConfig::default(), 5);
        close(&mut t, "db003", 0, 0, 7200); // 2 h: alert at default threshold
        let r = t.report(SimDuration::from_days(1));
        let json = r.to_json();
        assert!(json.contains("\"report\": \"slo\""));
        assert!(json.contains("\"service\": \"db003\""));
        assert!(json.contains("\"burn_rate\""));
        assert!(json.contains("\"burn_scope\": \"service\""));
        assert!(json.contains("\"scope_downtime_secs\""));
        assert!(json.contains("\"scopes\": {"));
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        assert!(r.render_summary().contains("1 over budget"));
        assert!(r.render_summary().contains("burn scope service"));
    }

    #[test]
    fn empty_tracker_reports_perfect_availability() {
        let t = SloTracker::new(SloConfig::default(), 3);
        let r = t.report(SimDuration::from_days(1));
        assert!(r.services.is_empty());
        assert_eq!(r.total_downtime_secs(), 0);
        assert!((r.fleet_availability() - 1.0).abs() < 1e-12);
    }
}
