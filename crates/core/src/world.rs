//! The datacenter world: event-driven orchestration of substrate,
//! faults, workload, and the management layer (manual or intelliagent).
//!
//! The world is a deterministic discrete-event simulation. One run under
//! [`ManagementMode::ManualOps`] reproduces the paper's "year before";
//! the same seed under [`ManagementMode::Intelliagents`] reproduces the
//! "year after" — the exogenous fault tape and the analyst workload tape
//! are bit-identical between the two, so the comparison is paired.

// qoslint::allow-file(no-panic, world construction and event dispatch treat broken cross-references as fatal bugs: every expect names a structural invariant and failing fast beats simulating a corrupt site)
use std::collections::{BTreeMap, BTreeSet};

use intelliqos_simkern::{
    EventQueue, EventToken, MetricsRegistry, Profiler, SimDuration, SimRng, SimTime, Subsystem,
    Trace, TraceOptions,
};

use intelliqos_cluster::faults::{
    Complexity, FaultCategory, FaultEvent, FaultInjector, FaultMechanism, TargetClass,
};
use intelliqos_cluster::fs::SimFs;
use intelliqos_cluster::hardware::{ComponentHealth, HardwareComponent, ServerModel};
use intelliqos_cluster::ids::{SegmentId, ServerId, Site};
use intelliqos_cluster::net::{Fabric, SegmentKind};
use intelliqos_cluster::server::Server;

use intelliqos_baseline::ops::ManualRepairModel;
use intelliqos_baseline::patrol::HumanDetectionModel;

use intelliqos_lsf::cluster::{db_crash_roll, LsfCluster};
use intelliqos_lsf::job::{FailReason, Job, JobId};
use intelliqos_lsf::select::{CandidateView, ManualStickySelector, RandomSelector, ServerSelector};
use intelliqos_lsf::workload::{Arrival, WorkloadGenerator};

use intelliqos_ontology::dgspl::Dgspl;
use intelliqos_ontology::issl::Issl;
use intelliqos_ontology::slkt::Slkt;
use intelliqos_qoslint::ontology::{check_site, SiteOntology};
use intelliqos_qoslint::{diag::render_report, Diagnostic, Severity};

use intelliqos_services::distributed::{DistributedApp, E2eResult};
use intelliqos_services::instance::{ServiceId, ServiceStatus};
use intelliqos_services::registry::ServiceRegistry;
use intelliqos_services::spec::{DbEngine, ServiceSpec};

use crate::admin::AdminPair;
use crate::agents::{run_hardware_agent, run_os_resource_agents, run_service_agent};
use crate::downtime::{Actor, DowntimeLedger, IncidentId};
use crate::notify::NotificationBus;
use crate::ontogen;
use crate::resched::DgsplSelector;
use crate::scenario::{ManagementMode, ReschedPolicy, ScenarioConfig, ScenarioReport};
use crate::slo::SloTracker;
use crate::status::run_status_agent;

use intelliqos_ontology::constraint::ConstraintStore;
use intelliqos_telemetry::collector::PerfCollector;
use intelliqos_telemetry::metrics::{os_metrics, MetricGroup};

/// Events the world processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldEvent {
    /// Analyst submits workload-tape entry `i`.
    SubmitArrival(usize),
    /// Fault-tape entry `i` strikes.
    InjectFault(usize),
    /// A running job reaches its expected end.
    JobDone(JobId),
    /// Periodic overload-crash hazard evaluation.
    CrashSweep,
    /// Periodic intelliagent wake-up on every server.
    AgentSweep,
    /// Periodic admin-server flag check + job resubmission.
    AdminSweep,
    /// Periodic DLSP collection + DGSPL regeneration.
    DgsplRegen,
    /// Periodic end-to-end dummy transaction.
    E2eSweep,
    /// Periodic performance collection (§3.5's 10–15 minute cadence).
    PerfSweep,
    /// A human finishes repairing an incident.
    ManualRestore(IncidentId),
    /// A service finishes starting.
    ServiceReady(ServiceId),
    /// A server finishes rebooting.
    RebootDone(ServerId),
}

impl WorldEvent {
    /// Stable machine-readable kind label, used as the per-event-kind
    /// metrics counter and profiler span name.
    pub fn kind(&self) -> &'static str {
        match self {
            WorldEvent::SubmitArrival(_) => "submit-arrival",
            WorldEvent::InjectFault(_) => "inject-fault",
            WorldEvent::JobDone(_) => "job-done",
            WorldEvent::CrashSweep => "crash-sweep",
            WorldEvent::AgentSweep => "agent-sweep",
            WorldEvent::AdminSweep => "admin-sweep",
            WorldEvent::DgsplRegen => "dgspl-regen",
            WorldEvent::E2eSweep => "e2e-sweep",
            WorldEvent::PerfSweep => "perf-sweep",
            WorldEvent::ManualRestore(_) => "manual-restore",
            WorldEvent::ServiceReady(_) => "service-ready",
            WorldEvent::RebootDone(_) => "reboot-done",
        }
    }

    /// Every kind label, in match order (drives profile tables).
    pub const KINDS: [&'static str; 12] = [
        "submit-arrival",
        "inject-fault",
        "job-done",
        "crash-sweep",
        "agent-sweep",
        "admin-sweep",
        "dgspl-regen",
        "e2e-sweep",
        "perf-sweep",
        "manual-restore",
        "service-ready",
        "reboot-done",
    ];
}

/// How an open fault's effects get undone at repair time.
#[derive(Debug, Clone, PartialEq)]
enum Undo {
    RestartService(ServiceId),
    KillProcess(ServerId, String),
    RotateLogs(ServerId),
    FixNtp(ServerId),
    EnableCron(ServerId),
    UnblockFirewall(SegmentId, ServerId),
    SegmentUp(SegmentId),
    RepairComponent(ServerId, HardwareComponent),
    ServerRepair(ServerId),
    ClearExternalLoad(ServerId),
}

/// Bookkeeping for a fault whose effect is still live.
#[derive(Debug, Clone)]
struct OpenFault {
    incident: IncidentId,
    mechanism: FaultMechanism,
    server: Option<ServerId>,
    undo: Undo,
}

/// Dispatch policy wrapper: first attempts follow the users' manual
/// sticky habit in **both** modes (that is how the site worked);
/// resubmissions follow the configured policy.
struct WorldSelector<'a> {
    manual: &'a mut ManualStickySelector,
    random: &'a mut RandomSelector,
    dgspl: &'a mut DgsplSelector,
    mode: ManagementMode,
    policy: ReschedPolicy,
}

impl ServerSelector for WorldSelector<'_> {
    fn select(&mut self, job: &Job, candidates: &CandidateView<'_>) -> Option<ServerId> {
        if job.attempts == 0 {
            return self.manual.select(job, candidates);
        }
        match (self.mode, self.policy) {
            (ManagementMode::ManualOps, _) => self.manual.select(job, candidates),
            (ManagementMode::Intelliagents, ReschedPolicy::Dgspl) => {
                self.dgspl.select(job, candidates)
            }
            (ManagementMode::Intelliagents, ReschedPolicy::Random) => {
                self.random.select(job, candidates)
            }
            (ManagementMode::Intelliagents, ReschedPolicy::ManualSticky) => {
                self.manual.select(job, candidates)
            }
        }
    }

    fn name(&self) -> &'static str {
        "world-composite"
    }
}

/// How much of the repair pipeline the configured agent parts can
/// actually drive (the ABL-PARTS ablation flips these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepairPower {
    /// Monitor + diagnose + heal: agents fix healable faults themselves.
    Full,
    /// Monitor + diagnose but no healing: agents page humans within one
    /// sweep; repair stays manual.
    DetectOnly,
    /// Monitoring or diagnosing disabled (or manual mode): detection
    /// falls back to the console-watch model.
    Blind,
}

/// An invalid site ontology, carrying every rule violation found. The
/// `Display` form is the full rustc-style report, so `World::build`'s
/// fail-fast panic names each rule, location, and fix hint.
#[derive(Debug)]
pub struct OntologyError {
    /// The individual rule violations.
    pub diags: Vec<Diagnostic>,
}

impl std::fmt::Display for OntologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid site ontology — refusing to construct the world\n{}",
            render_report(&self.diags)
        )
    }
}

impl std::error::Error for OntologyError {}

/// The full simulated datacenter.
pub struct World {
    /// Configuration the world was built from.
    pub cfg: ScenarioConfig,
    /// Every server, including the two admin servers.
    pub servers: BTreeMap<ServerId, Server>,
    /// The network fabric (private agent LAN + public LANs).
    pub fabric: Fabric,
    /// All deployed services.
    pub registry: ServiceRegistry,
    /// The batch cluster.
    pub lsf: LsfCluster,
    /// Notifications sent to humans.
    pub bus: NotificationBus,
    /// Incident accounting.
    pub ledger: DowntimeLedger,
    /// The admin HA pair.
    pub admin: AdminPair,
    /// Endogenous database crashes so far.
    pub db_crash_count: u64,
    /// Structured event log (disabled by default; enable before running
    /// with [`World::enable_trace`] for triage and divergence checks).
    pub trace: Trace,
    /// Run metrics: per-event-kind and per-subsystem counters, gauges,
    /// size histograms. Disabled by default; see [`World::enable_profile`].
    pub metrics: MetricsRegistry,
    /// Wall-clock span profiler over the hot path: event dispatch by
    /// kind, agent sweeps by category, DGSPL regeneration, LSF
    /// dispatch. Disabled by default; see [`World::enable_profile`].
    pub profiler: Profiler,
    /// The online QoS observatory: per-service availability budgets,
    /// MTTR, and burn-rate alerts, maintained at every incident close.
    /// Always on — pure simulation-time arithmetic.
    pub slo: SloTracker,

    queue: EventQueue<WorldEvent>,
    fault_tape: Vec<FaultEvent>,
    workload_tape: Vec<Arrival>,
    open_faults: Vec<OpenFault>,
    open_by_service: BTreeMap<ServiceId, (IncidentId, bool)>,
    cron_enabled: BTreeMap<ServerId, bool>,
    job_tokens: BTreeMap<JobId, EventToken>,

    perf: BTreeMap<ServerId, PerfCollector>,
    active_breaches: BTreeSet<(ServerId, String)>,

    db_hosts: Vec<ServerId>,
    tx_hosts: Vec<ServerId>,
    fe_hosts: Vec<ServerId>,
    db_service_of: BTreeMap<ServerId, ServiceId>,
    expected_procs_of: BTreeMap<ServerId, Vec<String>>,
    lsf_master_service: ServiceId,
    lsf_master_host: ServerId,
    apps: Vec<DistributedApp>,
    private_seg: SegmentId,
    public_segs: Vec<SegmentId>,

    manual_selector: ManualStickySelector,
    random_selector: RandomSelector,
    dgspl_selector: DgsplSelector,
    detection: HumanDetectionModel,
    repair_model: ManualRepairModel,

    rng_probe: SimRng,
    rng_crash: SimRng,
    rng_detect: SimRng,
    rng_repair: SimRng,
    rng_target: SimRng,
}

impl World {
    /// Build the datacenter from a configuration. Everything is
    /// deterministic in `(cfg, cfg.seed)`.
    ///
    /// Fail-fast wrapper around [`World::try_build`]: an ontology that
    /// violates a site constraint (startup-sequence cycle, duplicate
    /// port on a co-hosted pair, dangling dependency, …) panics with
    /// the full rustc-style diagnostic report naming each rule, rather
    /// than simulating a site that could never boot.
    pub fn build(cfg: ScenarioConfig) -> World {
        match World::try_build(cfg) {
            Ok(world) => world,
            Err(err) => panic!("{err}"),
        }
    }

    /// Build the datacenter, returning the ontology diagnostics instead
    /// of constructing when the implied site ontology is invalid. The
    /// check runs on the exact SLKT/ISSL set that `install_ontologies`
    /// materialises, before any service is started.
    pub fn try_build(cfg: ScenarioConfig) -> Result<World, OntologyError> {
        let seed = cfg.seed;
        let site = Site::new("London", "LDN-DC1");
        let mut servers: BTreeMap<ServerId, Server> = BTreeMap::new();
        let mut registry = ServiceRegistry::new();
        let mut host_ids = BTreeMap::new();
        let mut db_service_of = BTreeMap::new();
        let mut next_id = 0u32;
        let mut alloc = |servers: &mut BTreeMap<ServerId, Server>,
                         host_ids: &mut BTreeMap<String, ServerId>,
                         hostname: String,
                         model: ServerModel|
         -> ServerId {
            let id = ServerId(next_id);
            next_id += 1;
            host_ids.insert(hostname.clone(), id);
            servers.insert(
                id,
                Server::new(id, hostname, model.default_spec(), site.clone()),
            );
            id
        };

        // Database tier: 70 % E4500, 30 % E10K; Oracle/Sybase mix.
        let mut db_hosts = Vec::new();
        for i in 0..cfg.db_servers {
            let model = if i % 10 < 7 {
                ServerModel::SunE4500
            } else {
                ServerModel::SunE10k
            };
            let id = alloc(&mut servers, &mut host_ids, format!("db{i:03}"), model);
            db_hosts.push(id);
            let engine = if i % 3 == 0 {
                DbEngine::Sybase
            } else {
                DbEngine::Oracle
            };
            let svc = registry.deploy(
                ServiceSpec::database(format!("trades-db-{i:03}"), engine),
                id,
            );
            db_service_of.insert(id, svc);
        }

        // Transaction tier: mixed models; web servers, name servers,
        // market-data feeds, and the LSF master live here.
        let tx_models = [
            ServerModel::SunE10k,
            ServerModel::SunUltra10,
            ServerModel::LinuxBox,
            ServerModel::SunE450,
            ServerModel::SunE220r,
            ServerModel::HpKClass,
            ServerModel::HpTClass,
        ];
        let mut tx_hosts = Vec::new();
        let mut web_names = Vec::new();
        let mut ns_name = None;
        for i in 0..cfg.tx_servers {
            let model = tx_models[(i as usize) % tx_models.len()];
            let id = alloc(&mut servers, &mut host_ids, format!("tx{i:03}"), model);
            tx_hosts.push(id);
            if i == 0 {
                let name = "dns-1".to_string();
                registry.deploy(ServiceSpec::name_server(name.clone()), id);
                ns_name = Some(name);
            } else if i == 1 {
                registry.deploy(
                    ServiceSpec::market_data_feed("mktdata-1", ns_name.clone().unwrap()),
                    id,
                );
            } else {
                let name = format!("web-{i:03}");
                registry.deploy(ServiceSpec::web_server(name.clone()), id);
                web_names.push(name);
            }
        }
        // The LSF master daemon rides on the first transaction server.
        let lsf_master_host = tx_hosts[0];
        let lsf_master_service =
            registry.deploy(ServiceSpec::lsf_master("lsf-master"), lsf_master_host);

        // Front-end tier: IBM SP2 nodes, each depending on a database
        // and a web tier instance (round-robin).
        let mut fe_hosts = Vec::new();
        let mut fe_service_of = BTreeMap::new();
        for i in 0..cfg.fe_servers {
            let id = alloc(
                &mut servers,
                &mut host_ids,
                format!("fe{i:03}"),
                ServerModel::IbmSp2,
            );
            fe_hosts.push(id);
            let db_dep = format!("trades-db-{:03}", i % cfg.db_servers);
            let web_dep = if web_names.is_empty() {
                format!("trades-db-{:03}", i % cfg.db_servers)
            } else {
                web_names[(i as usize) % web_names.len()].clone()
            };
            let svc = registry.deploy(
                ServiceSpec::front_end(format!("analyst-fe-{i:03}"), db_dep, web_dep),
                id,
            );
            fe_service_of.insert(id, svc);
        }

        // Scenario-author extras: site-specific daemons deployed on
        // existing hosts after the standard tiers. The ontology gate
        // below vets whatever topology these create.
        for (hostname, spec) in &cfg.extra_services {
            let id = *host_ids
                .get(hostname)
                .expect("extra_services names a host allocated by the standard tiers");
            registry.deploy(spec.clone(), id);
        }

        // Admin HA pair (kept off the fault-target lists, as dedicated
        // coordinators; the ABL harness can still crash them directly).
        let admin_primary = alloc(
            &mut servers,
            &mut host_ids,
            "admin-1".into(),
            ServerModel::SunE450,
        );
        let admin_standby = alloc(
            &mut servers,
            &mut host_ids,
            "admin-2".into(),
            ServerModel::SunE450,
        );
        let admin = AdminPair::new(admin_primary, admin_standby);

        // Fabric: one private agent LAN, two public LANs; every host on
        // the private LAN and on public LAN (round-robin across the two).
        let mut fabric = Fabric::new();
        let private_seg = fabric.add_segment(SegmentKind::PrivateAgent, SimTime::ZERO);
        let pub1 = fabric.add_segment(SegmentKind::Public, SimTime::ZERO);
        let pub2 = fabric.add_segment(SegmentKind::Public, SimTime::ZERO);
        for (i, &sid) in servers.keys().collect::<Vec<_>>().iter().enumerate() {
            fabric.attach(*sid, private_seg);
            fabric.attach(*sid, if i % 2 == 0 { pub1 } else { pub2 });
            // Admin servers sit on both public LANs.
            if *sid == admin_primary || *sid == admin_standby {
                fabric.attach(*sid, pub1);
                fabric.attach(*sid, pub2);
            }
        }

        // Tapes.
        let mut injector = FaultInjector::new(cfg.fault_rates, SimRng::stream(seed, "faults"));
        let fault_tape = injector.generate_tape(cfg.horizon);
        let mut workload_gen =
            WorkloadGenerator::new(cfg.workload.clone(), SimRng::stream(seed, "workload"));
        let workload_tape = workload_gen.generate_tape(cfg.horizon);

        // Distributed apps for the dummy-transaction probe: front-end
        // chains (db → web → fe), a handful is representative.
        let mut apps = Vec::new();
        for (i, (&_fe_host, &fe_svc)) in fe_service_of.iter().enumerate().take(5) {
            let fe = registry.get(fe_svc).expect("fe exists");
            let mut chain = Vec::new();
            for dep in &fe.spec.depends_on {
                if let Some(d) = registry.by_name(dep) {
                    chain.push(d.id);
                }
            }
            chain.push(fe_svc);
            apps.push(DistributedApp::new(format!("analytics-{i}"), chain));
        }

        // SLKT-expected process names per server (for the OS agent's
        // suspect-process screening).
        let mut expected_procs_of: BTreeMap<ServerId, Vec<String>> = BTreeMap::new();
        for svc in registry.iter() {
            let e = expected_procs_of.entry(svc.server).or_default();
            for p in &svc.spec.processes {
                e.push(p.name.clone());
            }
        }

        let lsf = LsfCluster::new(db_hosts.clone(), cfg.job_limit_per_server);
        let dgspl_selector = DgsplSelector::new(
            host_ids.clone(),
            "db-", // prefix: covers both database engines
        );

        let cron_enabled = servers.keys().map(|&s| (s, true)).collect();

        let mut world = World {
            manual_selector: ManualStickySelector::new(SimRng::stream(seed, "manual-select")),
            random_selector: RandomSelector::new(SimRng::stream(seed, "random-select")),
            dgspl_selector,
            detection: HumanDetectionModel::default(),
            repair_model: ManualRepairModel::default(),
            rng_probe: SimRng::stream(seed, "probe"),
            rng_crash: SimRng::stream(seed, "crash"),
            rng_detect: SimRng::stream(seed, "detect"),
            rng_repair: SimRng::stream(seed, "repair"),
            rng_target: SimRng::stream(seed, "target"),
            slo: SloTracker::new(cfg.slo.clone(), servers.len() as u64),
            cfg,
            servers,
            fabric,
            registry,
            lsf,
            bus: NotificationBus::new(),
            ledger: DowntimeLedger::new(),
            admin,
            db_crash_count: 0,
            trace: Trace::disabled(),
            metrics: MetricsRegistry::disabled(),
            profiler: Profiler::disabled(),
            queue: EventQueue::new(),
            fault_tape,
            workload_tape,
            open_faults: Vec::new(),
            open_by_service: BTreeMap::new(),
            perf: BTreeMap::new(),
            active_breaches: BTreeSet::new(),
            cron_enabled,
            job_tokens: BTreeMap::new(),
            db_hosts,
            tx_hosts,
            fe_hosts,
            db_service_of,
            expected_procs_of,
            lsf_master_service,
            lsf_master_host,
            apps,
            private_seg,
            public_segs: vec![pub1, pub2],
        };
        let (slkts, issls) = world.install_ontologies();
        let mut diags = world.slo_declaration_diagnostics();
        diags.extend(world.site_diagnostics(&slkts, &issls));
        if !diags.is_empty() {
            return Err(OntologyError { diags });
        }
        world.bring_up_services();
        world.schedule_tapes();
        Ok(world)
    }

    /// Validate the scenario's declared SLO objectives: targets must
    /// lie strictly inside `(0, 1)`, the burn window and threshold must
    /// be positive, per-service keys must be unique, and every key must
    /// resolve to a deployed service name, an allocated hostname, or a
    /// known infrastructure domain — a typo'd key would silently report
    /// against the default target forever, so it refuses construction
    /// instead, through the same diagnostic path as the ontology gate.
    pub fn slo_declaration_diagnostics(&self) -> Vec<Diagnostic> {
        // Domains the ledger charges without a host or service: segment
        // outages ("network") and unattributed site-wide incidents.
        const DOMAINS: [&str; 2] = ["network", "site"];
        let slo = self.slo.config();
        let mut diags = Vec::new();
        let mut err = |rule: &'static str, location: String, message: String, hint: &str| {
            diags.push(Diagnostic {
                rule,
                severity: Severity::Error,
                location,
                line: 0,
                col: 0,
                message,
                hint: hint.to_string(),
            });
        };
        let check_target = |t: f64| t.is_finite() && t > 0.0 && t < 1.0;
        if !check_target(slo.availability_target) {
            err(
                "slo-target",
                "slo://default".to_string(),
                format!(
                    "scenario availability target {} is not in (0, 1)",
                    slo.availability_target
                ),
                "declare a fractional availability like 0.9999",
            );
        }
        if slo.window.as_secs() == 0 {
            err(
                "slo-window",
                "slo://default".to_string(),
                "burn window is zero".to_string(),
                "a zero-length window gives every incident an infinite burn rate",
            );
        }
        if !(slo.burn_threshold.is_finite() && slo.burn_threshold > 0.0) {
            err(
                "slo-threshold",
                "slo://default".to_string(),
                format!("burn threshold {} is not positive", slo.burn_threshold),
                "declare a positive burn-rate multiple like 100.0",
            );
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (key, target) in &slo.service_targets {
            let loc = format!("slo://{key}");
            if !seen.insert(key.as_str()) {
                err(
                    "slo-duplicate-key",
                    loc.clone(),
                    format!("service target for {key} declared more than once"),
                    "each service key may carry one target",
                );
            }
            if !check_target(*target) {
                err(
                    "slo-target",
                    loc.clone(),
                    format!("availability target {target} for {key} is not in (0, 1)"),
                    "declare a fractional availability like 0.9999",
                );
            }
            let resolves = DOMAINS.contains(&key.as_str())
                || self.registry.by_name(key).is_some()
                || self.servers.values().any(|s| s.hostname == *key);
            if !resolves {
                err(
                    "slo-unknown-key",
                    loc,
                    format!("{key} names no deployed service, host, or domain"),
                    "use a service name (trades-db-000), a hostname (db000), \
                     or an infrastructure domain (network, site)",
                );
            }
        }
        diags
    }

    /// Run the qoslint ontology pass over this world's materialised
    /// site ontology: the per-server SLKTs, the ISSL chunks, and the
    /// current DGSPL (skipped until the first regeneration — an empty
    /// DGSPL is the documented pre-boot state, not a violation). Empty
    /// result = valid site.
    pub fn ontology_diagnostics(&self) -> Vec<Diagnostic> {
        let slkts: Vec<Slkt> = self
            .servers
            .values()
            .map(|s| ontogen::generate_slkt(s, &self.registry))
            .collect();
        let issls = ontogen::generate_issls(self.servers.values(), &self.registry);
        self.site_diagnostics(&slkts, &issls)
    }

    /// The ontology pass over the given SLKTs and ISSLs plus the
    /// current DGSPL (see [`World::ontology_diagnostics`]).
    fn site_diagnostics(&self, slkts: &[Slkt], issls: &[Issl]) -> Vec<Diagnostic> {
        check_site(&SiteOntology {
            slkts,
            issls,
            dgspl: self.dgspl().filter(|d| !d.entries.is_empty()),
        })
    }

    /// Materialise the static ontologies at install time: per-server
    /// SLKTs on local disks, ISSL chunks in the admin shared pool, and
    /// one OS-group performance collector per monitored server. Returns
    /// the SLKTs (in server order) and ISSLs it wrote.
    fn install_ontologies(&mut self) -> (Vec<Slkt>, Vec<Issl>) {
        let ids: Vec<ServerId> = self.servers.keys().copied().collect();
        let mut slkts = Vec::with_capacity(ids.len());
        for sid in &ids {
            let server = self.servers.get_mut(sid).expect("server exists");
            slkts.push(ontogen::install_slkt(server, &self.registry));
            self.perf.insert(
                *sid,
                PerfCollector::new(
                    server.hostname.clone(),
                    MetricGroup::OperatingSystem,
                    ConstraintStore::os_baselines(),
                    96, // 24 h of 15-minute samples in the circular file
                ),
            );
        }
        let issls = ontogen::generate_issls(self.servers.values(), &self.registry);
        for (k, issl) in issls.iter().enumerate() {
            let _ = self.admin.shared_pool.write(
                format!("/pool/issl/issl_{k}.issl"),
                issl.to_doc().to_lines(),
                SimTime::ZERO,
            );
        }
        (slkts, issls)
    }

    /// Start every service in dependency order at t = 0 and schedule
    /// their readiness events.
    fn bring_up_services(&mut self) {
        // Three passes handle the (≤2-deep) dependency chains.
        for _pass in 0..3 {
            let ids: Vec<ServiceId> = self.registry.iter().map(|s| s.id).collect();
            for id in ids {
                let svc = self.registry.get(id).expect("id exists");
                if svc.status != ServiceStatus::Stopped {
                    continue;
                }
                if self.registry.dependencies_satisfied(id).is_err() {
                    continue;
                }
                let server_id = self.registry.get(id).expect("id exists").server;
                let server = self.servers.get_mut(&server_id).expect("server exists");
                if let Ok(ready) = self.registry.start(id, server, SimTime::ZERO) {
                    self.queue.schedule(ready, WorldEvent::ServiceReady(id));
                }
            }
            // Dependencies only become satisfiable once the previous
            // pass's services are Running; fast-forward the pending
            // starts so the next pass can proceed (the ready events we
            // scheduled remain authoritative for the simulation). The
            // window must exceed the longest startup sequence (database
            // crash recovery, ~27 min).
            self.registry
                .complete_pending_starts(SimTime::from_mins(60));
        }
        self.sync_lsf_master();
    }

    fn schedule_tapes(&mut self) {
        for i in 0..self.workload_tape.len() {
            let at = self.workload_tape[i].at;
            self.queue.schedule(at, WorldEvent::SubmitArrival(i));
        }
        for i in 0..self.fault_tape.len() {
            let at = self.fault_tape[i].at;
            self.queue.schedule(at, WorldEvent::InjectFault(i));
        }
        self.queue.schedule(
            SimTime::ZERO + self.cfg.crash_sweep_period,
            WorldEvent::CrashSweep,
        );
        if self.cfg.mode == ManagementMode::Intelliagents {
            self.queue.schedule(
                SimTime::ZERO + self.cfg.agent_period,
                WorldEvent::AgentSweep,
            );
            self.queue.schedule(
                SimTime::ZERO + self.cfg.admin_period,
                WorldEvent::AdminSweep,
            );
            self.queue.schedule(
                SimTime::ZERO + self.cfg.dgspl_period,
                WorldEvent::DgsplRegen,
            );
            self.queue
                .schedule(SimTime::ZERO + self.cfg.e2e_period, WorldEvent::E2eSweep);
            self.queue
                .schedule(SimTime::ZERO + self.cfg.perf_period, WorldEvent::PerfSweep);
        }
    }

    /// Run to the configured horizon and produce the report.
    pub fn run(mut self) -> ScenarioReport {
        self.run_to_end()
    }

    /// Run to the configured horizon in place and produce the report;
    /// the world (ledger, trace, servers) stays inspectable afterwards.
    pub fn run_to_end(&mut self) -> ScenarioReport {
        let horizon = SimTime::ZERO + self.cfg.horizon;
        let (seed, mode) = (self.cfg.seed, self.cfg.mode);
        self.trace
            .emit(self.queue.now(), Subsystem::Kernel, "run-start", || {
                format!("seed={seed} mode={mode:?} horizon={}s", horizon.as_secs())
            });
        // Record which failure classes burn budget this run, so a
        // replayed trace is self-describing about its SLO regime.
        let slo_cfg = self.slo.config();
        let (scope, targets) = (slo_cfg.burn_scope, slo_cfg.service_targets.len());
        self.trace
            .emit(self.queue.now(), Subsystem::Slo, "burn-scope", || {
                format!("scope={scope} service_targets={targets}")
            });
        let run_timer = self.profiler.start();
        let mut processed: u64 = 0;
        while let Some((now, ev)) = self.queue.pop_until(horizon) {
            self.handle(ev, now);
            processed += 1;
        }
        self.profiler.record("run.total", run_timer);
        self.metrics.add("events.processed", processed);
        self.metrics
            .set_gauge("sim.horizon-secs", horizon.as_secs() as f64);
        let open = self.ledger.open_incidents().len();
        self.trace.emit(horizon, Subsystem::Kernel, "run-end", || {
            format!("open_incidents={open}")
        });
        // Flight-recorder discipline: a spill sink must not lose its
        // pending record or manifest because the run ended.
        if let Err(e) = self.trace.flush() {
            self.metrics.inc("trace.flush-errors");
            eprintln!("trace flush failed: {e}");
        }
        self.report(horizon)
    }

    /// Switch on structured tracing (before running) and return `self`
    /// for chaining.
    pub fn enable_trace(mut self) -> Self {
        self.trace = Trace::enabled();
        self
    }

    /// Switch on structured tracing with explicit options — custom ring
    /// capacity, per-subsystem rings, a spill-to-disk sink, or a
    /// subsystem filter — and return `self` for chaining.
    pub fn enable_trace_with(mut self, opts: TraceOptions) -> Self {
        self.trace = Trace::with_options(opts);
        self
    }

    /// Switch on the metrics registry and wall-clock profiler (before
    /// running) and return `self` for chaining. A profiled
    /// [`run_to_end`](World::run_to_end) then carries per-event-kind
    /// counts/latencies, per-sweep-category timing, and subsystem time
    /// shares, exported via `core::export`.
    pub fn enable_profile(mut self) -> Self {
        self.metrics = MetricsRegistry::enabled();
        self.profiler = Profiler::enabled();
        self
    }

    /// Advance the world up to `deadline` only (for tests and staged
    /// experiments); the world remains usable afterwards.
    pub fn run_until(&mut self, deadline: SimTime) {
        let run_timer = self.profiler.start();
        let mut processed: u64 = 0;
        while let Some((now, ev)) = self.queue.pop_until(deadline) {
            self.handle(ev, now);
            processed += 1;
        }
        self.profiler.record("run.total", run_timer);
        self.metrics.add("events.processed", processed);
        self.queue.advance_clock(deadline);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The latest DGSPL the administration servers generated (`None`
    /// before the first regeneration): the snapshot the DGSPL
    /// rescheduler selects from.
    pub fn dgspl(&self) -> Option<&Dgspl> {
        self.dgspl_selector.current()
    }

    /// The exogenous fault tape (fixed at build time; identical across
    /// management modes for the same seed — the paired-run invariant).
    pub fn fault_tape(&self) -> &[FaultEvent] {
        &self.fault_tape
    }

    /// The analyst workload tape (fixed at build time).
    pub fn workload_tape(&self) -> &[Arrival] {
        &self.workload_tape
    }

    /// Produce the report at `horizon`.
    pub fn report(&self, _horizon: SimTime) -> ScenarioReport {
        let categories = self.ledger.totals();
        ScenarioReport {
            mode: self.cfg.mode,
            downtime_hours: self.ledger.figure2_rows(),
            total_downtime_hours: self.ledger.total_downtime_hours(),
            incidents: categories.values().map(|t| t.incidents).sum(),
            categories,
            lsf: self.lsf.stats(),
            db_crashes: self.db_crash_count,
            notifications: self.bus.log().len(),
            open_incidents: self.ledger.open_incidents().len(),
            threshold_breaches: self.perf.values().map(|c| c.breach_count()).sum(),
        }
    }

    // ---------------------------------------------------------------
    // Event handling
    // ---------------------------------------------------------------

    fn handle(&mut self, ev: WorldEvent, now: SimTime) {
        let kind = ev.kind();
        self.metrics.inc(kind);
        let t = self.profiler.start();
        self.dispatch_event(ev, now);
        self.profiler.record(kind, t);
    }

    fn dispatch_event(&mut self, ev: WorldEvent, now: SimTime) {
        match ev {
            WorldEvent::SubmitArrival(i) => {
                let spec = self.workload_tape[i].spec.clone();
                let job = self.lsf.submit(spec, now);
                self.trace.emit(now, Subsystem::Workload, "submit", || {
                    format!("tape={i} job={job:?}")
                });
                self.try_dispatch(now);
            }
            WorldEvent::JobDone(id) => {
                self.job_tokens.remove(&id);
                self.lsf.complete(id, &mut self.servers);
                self.trace
                    .emit(now, Subsystem::Lsf, "done", || format!("job={id:?}"));
                self.try_dispatch(now);
            }
            WorldEvent::CrashSweep => self.on_crash_sweep(now),
            WorldEvent::InjectFault(i) => {
                let fault = self.fault_tape[i];
                self.on_fault(fault, now);
            }
            WorldEvent::AgentSweep => self.on_agent_sweep(now),
            WorldEvent::AdminSweep => self.on_admin_sweep(now),
            WorldEvent::DgsplRegen => self.on_dgspl_regen(now),
            WorldEvent::E2eSweep => self.on_e2e_sweep(now),
            WorldEvent::PerfSweep => self.on_perf_sweep(now),
            WorldEvent::ManualRestore(inc) => self.on_manual_restore(inc, now),
            WorldEvent::ServiceReady(svc) => self.on_service_ready(svc, now),
            WorldEvent::RebootDone(sid) => self.on_reboot_done(sid, now),
        }
    }

    fn try_dispatch(&mut self, now: SimTime) {
        if self.lsf.pending_count() == 0 {
            return;
        }
        let t = self.profiler.start();
        let db_serving = |sid: ServerId| {
            self.db_service_of
                .get(&sid)
                .and_then(|id| self.registry.get(*id))
                .is_some_and(|s| s.status.is_serving())
        };
        let mut selector = WorldSelector {
            manual: &mut self.manual_selector,
            random: &mut self.random_selector,
            dgspl: &mut self.dgspl_selector,
            mode: self.cfg.mode,
            policy: self.cfg.resched,
        };
        let dispatches =
            self.lsf
                .dispatch_pending(&mut selector, &mut self.servers, db_serving, now);
        self.metrics.add("lsf.dispatched", dispatches.len() as u64);
        for d in dispatches {
            let tok = self
                .queue
                .schedule(d.expected_end, WorldEvent::JobDone(d.job));
            self.job_tokens.insert(d.job, tok);
            self.trace.emit(now, Subsystem::Lsf, "dispatch", || {
                format!(
                    "job={:?} server={} ends={}",
                    d.job,
                    d.server,
                    d.expected_end.as_secs()
                )
            });
        }
        self.profiler.record("lsf.dispatch", t);
    }

    /// Effective repair capability under the configured mode and parts.
    fn repair_power(&self) -> RepairPower {
        if self.cfg.mode == ManagementMode::ManualOps {
            return RepairPower::Blind;
        }
        let p = self.cfg.agent_parts;
        if !p.monitoring || !p.diagnosing {
            RepairPower::Blind
        } else if !p.healing {
            RepairPower::DetectOnly
        } else {
            RepairPower::Full
        }
    }

    /// Schedule the human pipeline for a fault the agents cannot (or are
    /// not allowed to) heal, with detection depending on capability.
    fn schedule_fallback_repair(
        &mut self,
        inc: IncidentId,
        now: SimTime,
        cat: FaultCategory,
        latent: bool,
        complexity: Complexity,
    ) {
        match self.repair_power() {
            RepairPower::Full => {} // agents will heal it
            RepairPower::DetectOnly => {
                let detected = self.next_sweep(now);
                self.schedule_manual_repair(inc, now, cat, false, complexity, Some(detected));
            }
            RepairPower::Blind => {
                self.schedule_manual_repair(inc, now, cat, latent, complexity, None);
            }
        }
    }

    fn sync_lsf_master(&mut self) {
        self.lsf.master_up = self
            .registry
            .get(self.lsf_master_service)
            .map(|s| s.status.is_serving())
            .unwrap_or(false);
    }

    fn cancel_job_events(&mut self, jobs: &[JobId]) {
        for j in jobs {
            if let Some(tok) = self.job_tokens.remove(j) {
                self.queue.cancel(tok);
            }
        }
    }

    // -- endogenous database crashes ---------------------------------

    fn on_crash_sweep(&mut self, now: SimTime) {
        // By index: `db_crash` needs `&mut self`, and the host list never
        // changes. Most hosts run no job, so that test goes first.
        for i in 0..self.db_hosts.len() {
            let sid = self.db_hosts[i];
            if self.lsf.running_on(sid).is_empty() {
                continue;
            }
            let up = self.servers.get(&sid).map(|s| s.is_up()).unwrap_or(false);
            if !up {
                continue;
            }
            let svc = self.db_service_of[&sid];
            if !self
                .registry
                .get(svc)
                .map(|s| s.status.is_serving())
                .unwrap_or(false)
            {
                continue;
            }
            let u = self.servers[&sid].cpu_utilization();
            if db_crash_roll(u, self.cfg.crash_sweep_period, &mut self.rng_crash) {
                self.db_crash(sid, now);
            }
        }
        self.queue
            .schedule(now + self.cfg.crash_sweep_period, WorldEvent::CrashSweep);
    }

    fn db_crash(&mut self, sid: ServerId, now: SimTime) {
        self.db_crash_count += 1;
        self.metrics.inc("faults.db-crash");
        let svc = self.db_service_of[&sid];
        {
            let server = self.servers.get_mut(&sid).expect("db host exists");
            self.registry
                .get_mut(svc)
                .expect("db svc exists")
                .crash(server);
        }
        let failed = self
            .lsf
            .fail_all_on(sid, FailReason::DbCrash, &mut self.servers, now);
        self.cancel_job_events(&failed);
        self.sync_lsf_master();
        // One incident per crash (unless one is already open).
        if self.open_by_service.contains_key(&svc) {
            return;
        }
        let inc = self.ledger.open_scoped(
            FaultCategory::MidJobDbCrash,
            self.slo_key_service(svc),
            format!(
                "database on {sid} crashed mid-job ({} jobs lost)",
                failed.len()
            ),
            now,
        );
        let lost = failed.len();
        self.trace
            .emit_corr(now, Subsystem::Fault, "db-crash", Some(inc.0), || {
                format!("inc={inc} server={sid} jobs_lost={lost}")
            });
        self.open_by_service.insert(svc, (inc, false));
        self.open_faults.push(OpenFault {
            incident: inc,
            mechanism: FaultMechanism::ServiceBug, // placeholder; endogenous
            server: Some(sid),
            undo: Undo::RestartService(svc),
        });
        // Full agents restart it at the next sweep; anything less falls
        // back to humans (overnight/weekend crashes sit unseen under the
        // console-watch detection windows).
        self.schedule_fallback_repair(
            inc,
            now,
            FaultCategory::MidJobDbCrash,
            false,
            Complexity::Simple,
        );
    }

    // -- exogenous fault injection ------------------------------------

    fn pick_target(&mut self, class: TargetClass) -> Option<ServerId> {
        let pool: &[ServerId] = match class {
            TargetClass::DbServer => &self.db_hosts,
            TargetClass::TxServer => &self.tx_hosts,
            TargetClass::FrontEndServer => &self.fe_hosts,
            TargetClass::LsfMaster => return Some(self.lsf_master_host),
            TargetClass::AnyServer => {
                // One draw over the union, weighted by tier sizes.
                let total = self.db_hosts.len() + self.tx_hosts.len() + self.fe_hosts.len();
                let k = self.rng_target.index(total.max(1));
                return Some(if k < self.db_hosts.len() {
                    self.db_hosts[k]
                } else if k < self.db_hosts.len() + self.tx_hosts.len() {
                    self.tx_hosts[k - self.db_hosts.len()]
                } else {
                    self.fe_hosts[k - self.db_hosts.len() - self.tx_hosts.len()]
                });
            }
            TargetClass::Network => return None,
        };
        if pool.is_empty() {
            return None;
        }
        let k = self.rng_target.index(pool.len());
        Some(pool[k])
    }

    /// Sample the year-1 detection delay for a category: operators on
    /// shift notice user-facing breakage fast; the long console windows
    /// (1 h day / 10 h overnight / 25 h weekend) dominate only for the
    /// unattended batch/database path. Human errors are noticed quickly
    /// because the human who made them is standing right there.
    fn manual_detection_delay(
        &mut self,
        cat: FaultCategory,
        onset: SimTime,
        latent: bool,
    ) -> SimDuration {
        let escalation = if latent {
            self.detection.latent_escalation_delay(&mut self.rng_detect)
        } else {
            SimDuration::ZERO
        };
        let visible = onset + escalation;
        let base = match cat {
            FaultCategory::MidJobDbCrash => {
                self.detection.sample_delay(visible, &mut self.rng_detect)
            }
            FaultCategory::HumanError => {
                // The person who made the mistake is on site and the
                // breakage is immediate — latency is minutes.
                return SimDuration::from_secs_f64(
                    self.rng_detect
                        .lognormal_median(10.0 * 60.0, 0.5)
                        .max(120.0),
                );
            }
            FaultCategory::FrontEndError | FaultCategory::LsfError => {
                if visible.is_business_hours() {
                    SimDuration::from_secs_f64(
                        self.rng_detect
                            .lognormal_median(20.0 * 60.0, 0.5)
                            .max(120.0),
                    )
                } else {
                    SimDuration::from_secs_f64(
                        self.rng_detect
                            .lognormal_median(2.0 * 3600.0, 0.5)
                            .max(300.0),
                    )
                }
            }
            FaultCategory::Hardware => SimDuration::from_secs_f64(
                self.rng_detect
                    .lognormal_median(30.0 * 60.0, 0.5)
                    .max(120.0),
            ),
            FaultCategory::PerformanceError => SimDuration::from_secs_f64(
                self.rng_detect
                    .lognormal_median(45.0 * 60.0, 0.5)
                    .max(300.0),
            ),
            _ => {
                SimDuration::from_secs_f64(self.rng_detect.lognormal_median(3600.0, 0.5).max(300.0))
            }
        };
        escalation + base
    }

    /// Schedule the human pipeline for an incident: detection (unless an
    /// agent already detected — pass `detected_at`), paging, repair.
    fn schedule_manual_repair(
        &mut self,
        inc: IncidentId,
        onset: SimTime,
        cat: FaultCategory,
        latent: bool,
        complexity: Complexity,
        detected_at: Option<SimTime>,
    ) {
        let detected = match detected_at {
            Some(t) => t,
            None => onset + self.manual_detection_delay(cat, onset, latent),
        };
        self.ledger.detect(inc, detected);
        let engaged = detected
            + self
                .repair_model
                .sample_paging(detected, &mut self.rng_repair);
        // Humans pin the cause down when they engage; paging is the
        // escalation record. Transitions are issued in automaton order
        // (detect, diagnose, attempt, escalate) — the lifecycle-order
        // lint checks this sequence against the declared automaton.
        self.ledger.diagnose(inc, engaged);
        if detected_at.is_some() {
            // An agent found the fault but could not (or was not allowed
            // to) heal it: record the failed agent try before the human
            // escalation so the attempt history shows both actors.
            self.ledger
                .attempt(inc, detected, Actor::Agent, "detect-and-page");
        }
        self.ledger.escalate(inc, detected);
        let restored = engaged
            + self
                .repair_model
                .sample_repair(complexity, &mut self.rng_repair);
        self.queue
            .schedule(restored, WorldEvent::ManualRestore(inc));
        self.trace
            .emit_corr(onset, Subsystem::Manual, "pipeline", Some(inc.0), || {
                format!(
                    "inc={inc} cat={cat:?} detect={} engage={} restore={}",
                    detected.as_secs(),
                    engaged.as_secs(),
                    restored.as_secs()
                )
            });
    }

    /// Time of the next agent sweep strictly after `now`.
    fn next_sweep(&self, now: SimTime) -> SimTime {
        let p = self.cfg.agent_period.as_secs();
        SimTime::from_secs((now.as_secs() / p + 1) * p)
    }

    fn on_fault(&mut self, fault: FaultEvent, now: SimTime) {
        use FaultMechanism::*;
        self.metrics.inc("faults.injected");
        let cat = fault.mechanism.category();
        let agents = self.cfg.mode == ManagementMode::Intelliagents;
        // Resolve the target with exactly one draw so both modes stay
        // tape-aligned.
        let target = self.pick_target(fault.target);
        self.trace.emit(now, Subsystem::Fault, "inject", || {
            format!(
                "mech={:?} cat={cat:?} target={} latent={}",
                fault.mechanism,
                target.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                fault.latent
            )
        });

        // Helper closures cannot borrow self mutably twice; work inline.
        match fault.mechanism {
            ObscureSlowdown => {
                let Some(sid) = target else { return };
                if !self.servers[&sid].is_up() {
                    return;
                }
                {
                    let server = self.servers.get_mut(&sid).expect("target exists");
                    let cap = server.effective_spec().compute_power();
                    server.external_cpu_demand += cap * 0.3;
                }
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_host(sid),
                    format!("obscure slowdown on {sid}"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::ClearExternalLoad(sid),
                });
                // No single guilty process: agents detect the breach and
                // "suggest what may be wrong" but a human must dig.
                let fast = agents && self.repair_power() != RepairPower::Blind;
                let detected_at = if fast {
                    Some(self.next_sweep(now))
                } else {
                    None
                };
                self.schedule_manual_repair(
                    inc,
                    now,
                    cat,
                    fault.latent && !fast,
                    fault.complexity,
                    detected_at,
                );
            }
            RunawayProcess | MemoryLeak | DiskFill => {
                let Some(sid) = target else { return };
                if !self.servers[&sid].is_up() {
                    return;
                }
                let undo = {
                    let server = self.servers.get_mut(&sid).expect("target exists");
                    match fault.mechanism {
                        RunawayProcess => {
                            let cap = server.effective_spec().compute_power();
                            server.procs.spawn(
                                "runaway",
                                "tight-loop",
                                "app",
                                cap * 1.2,
                                64.0,
                                0.0,
                                now,
                            );
                            Undo::KillProcess(sid, "runaway".into())
                        }
                        MemoryLeak => {
                            let ram = server.effective_spec().ram_gb as f64 * 1024.0;
                            server
                                .procs
                                .spawn("leaky", "grows", "app", 0.2, ram * 0.85, 0.0, now);
                            Undo::KillProcess(sid, "leaky".into())
                        }
                        _ => {
                            fill_logs(&mut server.fs, now);
                            Undo::RotateLogs(sid)
                        }
                    }
                };
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_host(sid),
                    format!("{:?} on {sid}", fault.mechanism),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo,
                });
                self.schedule_fallback_repair(inc, now, cat, fault.latent, fault.complexity);
            }
            DaemonKilled | ConfigCorrupted => {
                let Some(sid) = target else { return };
                if !self.servers[&sid].is_up() {
                    return;
                }
                // Prefer the most important service on the box.
                let Some(svc) = self.service_on(sid) else {
                    return;
                };
                if self.open_by_service.contains_key(&svc) {
                    return;
                }
                if !self
                    .registry
                    .get(svc)
                    .map(|s| s.status.is_serving())
                    .unwrap_or(false)
                {
                    return;
                }
                {
                    let server = self.servers.get_mut(&sid).expect("target exists");
                    let instance = self.registry.get_mut(svc).expect("svc exists");
                    if fault.mechanism == DaemonKilled {
                        instance.crash(server);
                    } else {
                        instance.hang();
                    }
                }
                let failed = self
                    .lsf
                    .fail_all_on(sid, FailReason::DbCrash, &mut self.servers, now);
                self.cancel_job_events(&failed);
                self.sync_lsf_master();
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_service(svc),
                    format!("{:?} on {sid}", fault.mechanism),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_by_service.insert(svc, (inc, false));
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::RestartService(svc),
                });
                self.schedule_fallback_repair(inc, now, cat, fault.latent, fault.complexity);
            }
            CrontabDisabled => {
                let Some(sid) = target else { return };
                if !agents {
                    // Year 1 has no agent crontab; a disabled monitoring
                    // cron is a minor incident found during rounds.
                    let inc = self.ledger.open_scoped(
                        cat,
                        self.slo_key_host(sid),
                        format!("monitoring cron disabled on {sid}"),
                        now,
                    );
                    self.trace.correlate_last(inc.0);
                    self.open_faults.push(OpenFault {
                        incident: inc,
                        mechanism: fault.mechanism,
                        server: Some(sid),
                        undo: Undo::EnableCron(sid),
                    });
                    self.schedule_manual_repair(
                        inc,
                        now,
                        cat,
                        fault.latent,
                        fault.complexity,
                        None,
                    );
                    return;
                }
                self.cron_enabled.insert(sid, false);
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_host(sid),
                    format!("agent crontab disabled on {sid}"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::EnableCron(sid),
                });
                // The admin sweep finds the missing flags and repairs —
                // but only when agents are actually producing flags.
                if self.repair_power() == RepairPower::Blind {
                    self.schedule_manual_repair(
                        inc,
                        now,
                        cat,
                        fault.latent,
                        fault.complexity,
                        None,
                    );
                }
            }
            NtpBroken => {
                let Some(sid) = target else { return };
                if let Some(server) = self.servers.get_mut(&sid) {
                    server.ntp_synced = false;
                }
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_host(sid),
                    format!("NTP broken on {sid}"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::FixNtp(sid),
                });
                self.schedule_fallback_repair(inc, now, cat, fault.latent, fault.complexity);
            }
            FrontEndHang | FrontEndCrash | LsfMasterCrash | LsfQueueStuck | ServiceCorruption
            | ServiceBug => {
                let Some(sid) = target else { return };
                if !self.servers[&sid].is_up() {
                    return;
                }
                let Some(svc) = self.service_on(sid) else {
                    return;
                };
                if self.open_by_service.contains_key(&svc)
                    || !self
                        .registry
                        .get(svc)
                        .map(|s| s.status.is_serving())
                        .unwrap_or(false)
                {
                    return;
                }
                {
                    let server = self.servers.get_mut(&sid).expect("target exists");
                    let instance = self.registry.get_mut(svc).expect("svc exists");
                    match fault.mechanism {
                        FrontEndCrash | LsfMasterCrash => instance.crash(server),
                        ServiceCorruption => instance.corrupt(server),
                        _ => instance.hang(),
                    }
                }
                if matches!(fault.mechanism, LsfMasterCrash | LsfQueueStuck) {
                    self.sync_lsf_master();
                }
                if matches!(fault.mechanism, ServiceCorruption | ServiceBug) {
                    // Databases dying completely also kill their jobs.
                    let failed =
                        self.lsf
                            .fail_all_on(sid, FailReason::DbCrash, &mut self.servers, now);
                    self.cancel_job_events(&failed);
                }
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_service(svc),
                    format!("{:?} on {sid}", fault.mechanism),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_by_service.insert(svc, (inc, false));
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::RestartService(svc),
                });
                self.schedule_fallback_repair(inc, now, cat, fault.latent, fault.complexity);
            }
            FirewallMisrule => {
                let Some(sid) = self.pick_target(TargetClass::AnyServer) else {
                    return;
                };
                let seg = self.public_segs[self.rng_target.index(self.public_segs.len().max(1))];
                self.fabric.set_firewall_block(seg, sid, true);
                let inc = self.ledger.open_scoped(
                    cat,
                    "network".to_string(),
                    format!("firewall rule blocks {sid} on {seg}"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::UnblockFirewall(seg, sid),
                });
                // Not agent-healable: detection fast (agents) or human
                // (manual); repair is always human.
                if agents && self.repair_power() != RepairPower::Blind {
                    let detected = self.next_sweep(now);
                    self.bus.page(
                        detected,
                        format!("{sid}"),
                        "firewall misconfiguration detected",
                        "agents cannot heal network faults; paging network team",
                    );
                    self.schedule_manual_repair(
                        inc,
                        now,
                        cat,
                        fault.latent,
                        fault.complexity,
                        Some(detected),
                    );
                } else {
                    self.schedule_manual_repair(
                        inc,
                        now,
                        cat,
                        fault.latent,
                        fault.complexity,
                        None,
                    );
                }
            }
            SegmentOutage => {
                // The private agent LAN is the dedicated, mostly-idle
                // network — outages there exercise the reroute path.
                let seg = self.private_seg;
                self.fabric.set_segment_up(seg, false);
                let inc = self.ledger.open_scoped(
                    cat,
                    "network".to_string(),
                    format!("segment {seg} down"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: None,
                    undo: Undo::SegmentUp(seg),
                });
                if agents && self.repair_power() != RepairPower::Blind {
                    let detected = self.next_sweep(now);
                    self.bus.page(
                        detected,
                        "admin-1",
                        "private agent LAN down; rerouting over public",
                        "agent traffic rerouted automatically",
                    );
                    self.schedule_manual_repair(
                        inc,
                        now,
                        cat,
                        fault.latent,
                        fault.complexity,
                        Some(detected),
                    );
                } else {
                    self.schedule_manual_repair(
                        inc,
                        now,
                        cat,
                        fault.latent,
                        fault.complexity,
                        None,
                    );
                }
            }
            ComponentDegrade(class) => {
                let Some(sid) = target else { return };
                if !self.servers[&sid].is_up() {
                    return;
                }
                {
                    let server = self.servers.get_mut(&sid).expect("target exists");
                    server.set_component_health(class, 0, ComponentHealth::Degraded);
                }
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_host(sid),
                    format!("{class} degrading on {sid}"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: fault.mechanism,
                    server: Some(sid),
                    undo: Undo::RepairComponent(sid, class),
                });
                let power = self.repair_power();
                if agents && power != RepairPower::Blind {
                    if !class.software_recoverable() || power == RepairPower::DetectOnly {
                        // Agent detects from logs next sweep, pages an
                        // engineer; replacement/offlining is human work.
                        let detected = self.next_sweep(now);
                        self.schedule_manual_repair(
                            inc,
                            now,
                            cat,
                            false,
                            fault.complexity,
                            Some(detected),
                        );
                    }
                    // Recoverable classes with full power: the hardware
                    // agent offlines the part next sweep (closed there).
                } else {
                    // Latent by nature in year 1 — found late.
                    self.schedule_manual_repair(inc, now, cat, true, fault.complexity, None);
                }
            }
            ComponentFail(class) => {
                let Some(sid) = target else { return };
                if !self.servers[&sid].is_up() {
                    return;
                }
                let fatal = {
                    let server = self.servers.get_mut(&sid).expect("target exists");
                    server.set_component_health(class, 0, ComponentHealth::Failed);
                    server.fatal_hardware_fault()
                };
                let inc = self.ledger.open_scoped(
                    cat,
                    self.slo_key_host(sid),
                    format!("{class} failed on {sid}"),
                    now,
                );
                self.trace.correlate_last(inc.0);
                if fatal {
                    // The machine goes down with everything on it.
                    self.servers.get_mut(&sid).expect("target exists").crash();
                    self.registry.on_server_crash(sid);
                    let failed =
                        self.lsf
                            .fail_all_on(sid, FailReason::ServerCrash, &mut self.servers, now);
                    self.cancel_job_events(&failed);
                    self.sync_lsf_master();
                    self.open_faults.push(OpenFault {
                        incident: inc,
                        mechanism: fault.mechanism,
                        server: Some(sid),
                        undo: Undo::ServerRepair(sid),
                    });
                } else {
                    self.open_faults.push(OpenFault {
                        incident: inc,
                        mechanism: fault.mechanism,
                        server: Some(sid),
                        undo: Undo::RepairComponent(sid, class),
                    });
                }
                let fast = agents && self.repair_power() != RepairPower::Blind;
                let detected_at = if fast {
                    Some(self.next_sweep(now))
                } else {
                    None
                };
                self.schedule_manual_repair(
                    inc,
                    now,
                    cat,
                    fault.latent && !fast,
                    fault.complexity,
                    detected_at,
                );
            }
        }
    }

    /// SLO accounting key for a host-scoped incident: the hostname.
    fn slo_key_host(&self, sid: ServerId) -> String {
        self.servers
            .get(&sid)
            .map(|s| s.hostname.clone())
            .unwrap_or_else(|| sid.to_string())
    }

    /// SLO accounting key for a service-scoped incident: the deployed
    /// service's name.
    fn slo_key_service(&self, svc: ServiceId) -> String {
        self.registry
            .get(svc)
            .map(|s| s.spec.name.clone())
            .unwrap_or_else(|| "service".to_string())
    }

    /// Feed one just-closed incident to the online SLO tracker: derive
    /// its failure class from the fault label and repair history, emit
    /// the `classified` trace event, and charge the downtime under that
    /// class — firing the fast-burn `SloAlert` trace event only when an
    /// episode the configured burn scope admits blew the windowed
    /// budget. Call immediately after `ledger.restore`.
    fn slo_observe(&mut self, inc: IncidentId, now: SimTime) {
        let Some(rec) = self.ledger.get(inc) else {
            return;
        };
        let service = rec.service.clone();
        let class = rec.failure_class();
        let (onset, detected) = (rec.onset, rec.detected.unwrap_or(rec.onset));
        self.metrics.inc(match class {
            crate::downtime::FailureClass::ServiceFault => "slo.class.service-fault",
            crate::downtime::FailureClass::ClientWorkload => "slo.class.client-workload",
            crate::downtime::FailureClass::TransientAbort => "slo.class.transient-abort",
        });
        self.trace
            .emit_corr(now, Subsystem::Slo, "classified", Some(inc.0), || {
                format!(
                    "inc={inc} service={service} class={class} actionable={}",
                    class.is_actionable()
                )
            });
        if let Some(alert) = self
            .slo
            .on_close(&service, inc, class, onset, detected, now)
        {
            self.metrics.inc("slo.alerts");
            let burn = alert.burn_rate;
            self.trace
                .emit_corr(now, Subsystem::Slo, "burn-alert", Some(inc.0), || {
                    format!("inc={inc} service={service} burn={burn:.1}")
                });
        }
    }

    /// The primary service hosted on a server (database > front-end >
    /// anything else).
    fn service_on(&self, sid: ServerId) -> Option<ServiceId> {
        if let Some(&svc) = self.db_service_of.get(&sid) {
            return Some(svc);
        }
        let mut ids = self.registry.ids_on_server(sid);
        ids.sort();
        ids.into_iter().next()
    }

    // -- agent sweeps --------------------------------------------------

    fn on_agent_sweep(&mut self, now: SimTime) {
        let hosts: Vec<ServerId> = self.servers.keys().copied().collect();
        for sid in hosts {
            if !self.cron_enabled.get(&sid).copied().unwrap_or(true) {
                continue;
            }
            if !self.servers[&sid].is_up() {
                continue;
            }
            self.metrics.inc("agent.hosts-swept");
            // Service agent.
            let t_service = self.profiler.start();
            let report = {
                let server = self.servers.get_mut(&sid).expect("host exists");
                run_service_agent(
                    server,
                    &mut self.registry,
                    self.cfg.agent_parts,
                    &mut self.bus,
                    &mut self.rng_probe,
                    now,
                )
            };
            for finding in &report.findings {
                if finding.diagnosis.is_none() {
                    continue;
                }
                if let Some((inc, _auto)) = self.open_by_service.get(&finding.service).copied() {
                    self.ledger.detect(inc, now);
                    self.ledger.diagnose(inc, now);
                    let (svc, repairing) = (finding.service, finding.repair_completes.is_some());
                    self.trace
                        .emit_corr(now, Subsystem::Agent, "diagnose", Some(inc.0), || {
                            format!("inc={inc} service={svc:?} repairing={repairing}")
                        });
                    if let Some(ready) = finding.repair_completes {
                        self.open_by_service.insert(finding.service, (inc, true));
                        self.queue
                            .schedule(ready, WorldEvent::ServiceReady(finding.service));
                    }
                } else if let Some(ready) = finding.repair_completes {
                    // Repair of collateral damage without its own
                    // incident (e.g. services felled by a server crash).
                    self.queue
                        .schedule(ready, WorldEvent::ServiceReady(finding.service));
                }
            }
            self.profiler.record("sweep.service", t_service);
            // OS / resource agents run fused over a single fact base, so
            // they are timed as one span.
            let t_osres = self.profiler.start();
            {
                let expected: &[String] = self
                    .expected_procs_of
                    .get(&sid)
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]);
                let server = self.servers.get_mut(&sid).expect("host exists");
                run_os_resource_agents(server, expected, self.cfg.agent_parts, &mut self.bus, now);
            }
            self.profiler.record("sweep.os-resource", t_osres);
            // Hardware agent.
            let t_hw = self.profiler.start();
            {
                let server = self.servers.get_mut(&sid).expect("host exists");
                run_hardware_agent(server, self.cfg.agent_parts, &mut self.bus, now);
            }
            self.profiler.record("sweep.hardware", t_hw);
            // Close any locally-healed open faults on this host by
            // checking that their effect really is gone.
            let t_heal = self.profiler.start();
            self.close_healed_local_faults(sid, now);
            self.profiler.record("sweep.close-healed", t_heal);
        }
        self.queue
            .schedule(now + self.cfg.agent_period, WorldEvent::AgentSweep);
    }

    fn close_healed_local_faults(&mut self, sid: ServerId, now: SimTime) {
        let mut closed = Vec::new();
        for (idx, of) in self.open_faults.iter().enumerate() {
            if of.server != Some(sid) {
                continue;
            }
            let healed = match (&of.mechanism, &of.undo) {
                (FaultMechanism::RunawayProcess, _) => {
                    self.servers[&sid].procs.live_count("runaway") == 0
                }
                (FaultMechanism::MemoryLeak, _) => {
                    self.servers[&sid].procs.live_count("leaky") == 0
                }
                (FaultMechanism::DiskFill, _) => {
                    self.servers[&sid].fs.usage_fraction("/logs").unwrap_or(0.0) < 0.9
                }
                (FaultMechanism::NtpBroken, _) => self.servers[&sid].ntp_synced,
                (FaultMechanism::ComponentDegrade(class), Undo::RepairComponent(_, _))
                    if class.software_recoverable() =>
                {
                    self.servers[&sid].degraded_count(*class) == 0
                }
                _ => false,
            };
            if healed {
                let action = match &of.mechanism {
                    FaultMechanism::RunawayProcess => "kill-runaway",
                    FaultMechanism::MemoryLeak => "kill-leaky",
                    FaultMechanism::DiskFill => "rotate-logs",
                    FaultMechanism::NtpBroken => "fix-ntp",
                    FaultMechanism::ComponentDegrade(_) => "offline-component",
                    _ => "local-heal",
                };
                let inc = of.incident;
                self.ledger.detect(inc, now);
                self.ledger.diagnose(inc, now);
                self.ledger.restore(inc, now, Actor::Agent, action);
                self.trace
                    .emit_corr(now, Subsystem::Agent, "local-heal", Some(inc.0), || {
                        format!("inc={inc} host={sid} action={action}")
                    });
                closed.push((idx, inc));
            }
        }
        for &(idx, _) in closed.iter().rev() {
            self.open_faults.remove(idx);
        }
        for (_, inc) in closed {
            self.slo_observe(inc, now);
        }
    }

    fn on_admin_sweep(&mut self, now: SimTime) {
        if self.admin.acting(&self.servers).is_some() {
            // Flag monitoring: repair disabled agent crontabs.
            let disabled: Vec<ServerId> = self
                .cron_enabled
                .iter()
                .filter(|(_, &on)| !on)
                .map(|(&s, _)| s)
                .collect();
            for sid in disabled {
                self.cron_enabled.insert(sid, true);
                // Close the matching incident.
                if let Some(idx) = self
                    .open_faults
                    .iter()
                    .position(|of| of.undo == Undo::EnableCron(sid))
                {
                    let of = self.open_faults.remove(idx);
                    let inc = of.incident;
                    self.ledger.detect(inc, now);
                    self.ledger.diagnose(inc, now);
                    self.ledger.restore(inc, now, Actor::Admin, "enable-cron");
                    self.trace
                        .emit_corr(now, Subsystem::Admin, "cron-repair", Some(inc.0), || {
                            format!("inc={inc} host={sid}")
                        });
                    self.slo_observe(inc, now);
                }
            }
            // Resubmit failed batch jobs through the DGSPL policy.
            let failed = self.lsf.failed_ids();
            let resubmitted = failed.len();
            self.metrics.add("lsf.resubmitted", resubmitted as u64);
            for id in failed {
                self.lsf.resubmit(id);
            }
            if resubmitted > 0 {
                self.trace.emit(now, Subsystem::Admin, "resubmit", || {
                    format!("jobs={resubmitted}")
                });
            }
            self.sync_lsf_master();
            self.try_dispatch(now);
        }
        self.queue
            .schedule(now + self.cfg.admin_period, WorldEvent::AdminSweep);
    }

    fn on_dgspl_regen(&mut self, now: SimTime) {
        if !self.cfg.agent_parts.monitoring {
            // Status agents are part of the monitoring stage; with it
            // disabled no DLSPs flow and the DGSPL goes stale.
            self.queue
                .schedule(now + self.cfg.dgspl_period, WorldEvent::DgsplRegen);
            return;
        }
        if let Some(admin_host) = self.admin.acting(&self.servers) {
            let hosts: Vec<ServerId> = self.servers.keys().copied().collect();
            for sid in hosts {
                if sid == admin_host || !self.servers[&sid].is_up() {
                    continue;
                }
                if !self.cron_enabled.get(&sid).copied().unwrap_or(true) {
                    continue;
                }
                let t_status = self.profiler.start();
                let (dlsp, lines) = {
                    let server = self.servers.get_mut(&sid).expect("host exists");
                    run_status_agent(server, &self.registry, &mut self.rng_probe, now)
                };
                self.profiler.record("sweep.status", t_status);
                // Ship over the agent network (private preferred,
                // automatic fallback to public — Figure 1's design).
                // Size estimate: ~140 bytes of host header + ~80 per
                // service row (avoids rendering the document twice).
                let bytes = 140 + 80 * dlsp.services.len() as u64;
                let _ =
                    self.fabric
                        .transmit(sid, admin_host, bytes, SegmentKind::PrivateAgent, now);
                self.admin.ingest_dlsp(dlsp, lines, now);
            }
            let t_gen = self.profiler.start();
            let dgspl =
                self.admin
                    .generate_dgspl(now, self.cfg.dgspl_period.times(2), |model, cpus| {
                        ServerModel::ALL
                            .iter()
                            .find(|m| m.name() == model)
                            .map(|m| m.cpu_power() * cpus as f64)
                            .unwrap_or(cpus as f64 * 0.5)
                    });
            self.profiler.record("dgspl.generate", t_gen);
            self.metrics.inc("dgspl.regens");
            let entries = dgspl.entries.len();
            self.metrics.set_gauge("dgspl.entries", entries as f64);
            self.trace.emit(now, Subsystem::Admin, "dgspl", || {
                format!("entries={entries}")
            });
            self.dgspl_selector.update(dgspl);
        }
        self.queue
            .schedule(now + self.cfg.dgspl_period, WorldEvent::DgsplRegen);
    }

    fn on_e2e_sweep(&mut self, now: SimTime) {
        // §3.6: a dummy process walks every application component and
        // measures total response time — failures pinpoint the first
        // broken component, an extra detection channel.
        let apps = self.apps.clone();
        for app in &apps {
            let servers = &self.servers;
            let result = app.end_to_end(
                &self.registry,
                |sid| servers.get(&sid).expect("app server exists"),
                &mut self.rng_probe,
            );
            if let E2eResult::FailedAt { component, .. } = result {
                if let Some((inc, _)) = self.open_by_service.get(&component).copied() {
                    self.ledger.detect(inc, now);
                    self.trace
                        .emit_corr(now, Subsystem::Agent, "e2e-fail", Some(inc.0), || {
                            format!("inc={inc} component={component:?}")
                        });
                }
            }
        }
        self.queue
            .schedule(now + self.cfg.e2e_period, WorldEvent::E2eSweep);
    }

    fn on_perf_sweep(&mut self, now: SimTime) {
        if !self.cfg.agent_parts.monitoring {
            self.queue
                .schedule(now + self.cfg.perf_period, WorldEvent::PerfSweep);
            return;
        }
        let t_perf = self.profiler.start();
        let hosts: Vec<ServerId> = self.perf.keys().copied().collect();
        for sid in hosts {
            if !self.cron_enabled.get(&sid).copied().unwrap_or(true) {
                continue;
            }
            let Some(obs) = self
                .servers
                .get(&sid)
                .and_then(|s| s.observe(&mut self.rng_probe))
            else {
                continue;
            };
            let snapshot = os_metrics(&obs);
            let breached: BTreeSet<String> = {
                let server = self.servers.get_mut(&sid).expect("host exists");
                let collector = self.perf.get_mut(&sid).expect("collector exists");
                let breaches = collector.ingest(&snapshot, server, now);
                let agent = crate::agents::AgentKind::Performance.name();
                crate::flags::clear_flags(&mut server.fs, agent);
                let _ = crate::flags::write_flag(
                    &mut server.fs,
                    agent,
                    if breaches.is_empty() {
                        crate::flags::FlagOutcome::Ok
                    } else {
                        crate::flags::FlagOutcome::FaultDetected
                    },
                    None,
                    now,
                );
                breaches.into_iter().map(|b| b.violation.var).collect()
            };
            // Notify only on breach *transitions* — a saturated host must
            // not page every fifteen minutes (§3.5's "every time a
            // threshold was exceeded they notified us" is per episode).
            for var in &breached {
                if self.active_breaches.insert((sid, var.clone()))
                    && self.cfg.agent_parts.communication
                {
                    let hostname = self.servers[&sid].hostname.clone();
                    self.bus.send(
                        now,
                        crate::notify::Channel::Email,
                        crate::notify::Severity::Warning,
                        hostname,
                        format!("threshold breach: {var}"),
                        format!("value outside baseline bounds at {now}"),
                    );
                }
            }
            self.active_breaches
                .retain(|(s, v)| *s != sid || breached.contains(v));
        }
        self.profiler.record("sweep.performance", t_perf);
        self.queue
            .schedule(now + self.cfg.perf_period, WorldEvent::PerfSweep);
    }

    // -- repair completion ---------------------------------------------

    /// Close `inc` as a human repair and emit the matching trace line.
    fn close_human(&mut self, inc: IncidentId, now: SimTime, action: &str) {
        self.ledger.restore(inc, now, Actor::Human, action);
        let action = action.to_string();
        self.trace
            .emit_corr(now, Subsystem::Manual, "restore", Some(inc.0), || {
                format!("inc={inc} action={action}")
            });
        self.slo_observe(inc, now);
    }

    fn on_manual_restore(&mut self, inc: IncidentId, now: SimTime) {
        let Some(idx) = self.open_faults.iter().position(|of| of.incident == inc) else {
            return; // already healed by an agent
        };
        let of = self.open_faults.remove(idx);
        match of.undo {
            Undo::RestartService(svc) => {
                let (server_id, needs_restore, hung) = match self.registry.get(svc) {
                    Some(s) => (
                        s.server,
                        s.status == ServiceStatus::Corrupted,
                        s.status == ServiceStatus::Hung,
                    ),
                    None => {
                        self.close_human(inc, now, "restart-service");
                        return;
                    }
                };
                let server_up = self
                    .servers
                    .get(&server_id)
                    .map(|s| s.is_up())
                    .unwrap_or(false);
                if server_up {
                    let server = self.servers.get_mut(&server_id).expect("server exists");
                    let instance = self.registry.get_mut(svc).expect("svc exists");
                    if needs_restore {
                        instance.restore();
                    }
                    if hung {
                        instance.stop(server);
                    }
                    match instance.start(server, now) {
                        Ok(ready) => {
                            self.queue.schedule(ready, WorldEvent::ServiceReady(svc));
                            // Incident closes at ServiceReady (auto=false).
                            self.open_by_service.insert(svc, (inc, false));
                            // Analysts resubmit their failed jobs once the
                            // database is back (manual mode only; agents
                            // resubmit from the admin sweep).
                            if self.cfg.mode == ManagementMode::ManualOps {
                                for id in self.lsf.failed_ids() {
                                    self.lsf.resubmit(id);
                                }
                            }
                            return; // don't close yet
                        }
                        Err(_) => {
                            self.close_human(inc, now, "restart-service");
                            self.open_by_service.remove(&svc);
                        }
                    }
                } else {
                    // Server itself is down (separate incident); this one
                    // closes administratively.
                    self.close_human(inc, now, "restart-service");
                    self.open_by_service.remove(&svc);
                }
            }
            Undo::KillProcess(sid, ref name) => {
                if let Some(server) = self.servers.get_mut(&sid) {
                    let pids: Vec<_> = server.procs.by_name(name).map(|p| p.pid).collect();
                    for pid in pids {
                        server.procs.kill(pid);
                    }
                }
                let action = format!("kill {name}");
                self.close_human(inc, now, &action);
            }
            Undo::RotateLogs(sid) => {
                if let Some(server) = self.servers.get_mut(&sid) {
                    let victims: Vec<String> = server
                        .fs
                        .list("/logs")
                        .into_iter()
                        .filter(|p| {
                            !p.starts_with("/logs/intelliagents") && !p.starts_with("/logs/perf")
                        })
                        .map(|s| s.to_string())
                        .collect();
                    for v in victims {
                        let _ = server.fs.remove(&v);
                    }
                }
                self.close_human(inc, now, "rotate-logs");
            }
            Undo::ClearExternalLoad(sid) => {
                if let Some(server) = self.servers.get_mut(&sid) {
                    server.external_cpu_demand = 0.0;
                    server.external_mem_gb = 0.0;
                    server.external_io_demand = 0.0;
                }
                self.close_human(inc, now, "clear-external-load");
            }
            Undo::FixNtp(sid) => {
                if let Some(server) = self.servers.get_mut(&sid) {
                    server.ntp_synced = true;
                }
                self.close_human(inc, now, "fix-ntp");
            }
            Undo::EnableCron(sid) => {
                self.cron_enabled.insert(sid, true);
                self.close_human(inc, now, "enable-cron");
            }
            Undo::UnblockFirewall(seg, sid) => {
                self.fabric.set_firewall_block(seg, sid, false);
                self.close_human(inc, now, "unblock-firewall");
            }
            Undo::SegmentUp(seg) => {
                self.fabric.set_segment_up(seg, true);
                self.close_human(inc, now, "segment-up");
            }
            Undo::RepairComponent(sid, class) => {
                if let Some(server) = self.servers.get_mut(&sid) {
                    let n = server.components(class).len();
                    for i in 0..n {
                        server.set_component_health(class, i, ComponentHealth::Healthy);
                    }
                }
                self.close_human(inc, now, "replace-component");
            }
            Undo::ServerRepair(sid) => {
                // Engineer replaced the part; machine reboots now.
                let until = {
                    let server = self.servers.get_mut(&sid).expect("server exists");
                    let n_boards = server.components(HardwareComponent::Board).len();
                    for i in 0..n_boards {
                        server.set_component_health(
                            HardwareComponent::Board,
                            i,
                            ComponentHealth::Healthy,
                        );
                    }
                    let n_psu = server.components(HardwareComponent::PowerSupply).len();
                    for i in 0..n_psu {
                        server.set_component_health(
                            HardwareComponent::PowerSupply,
                            i,
                            ComponentHealth::Healthy,
                        );
                    }
                    server.begin_reboot(now)
                };
                self.queue.schedule(until, WorldEvent::RebootDone(sid));
                // Incident closes at RebootDone; track it.
                self.open_faults.push(OpenFault {
                    incident: inc,
                    mechanism: of.mechanism,
                    server: Some(sid),
                    undo: Undo::ServerRepair(sid),
                });
                return;
            }
        }
        self.try_dispatch(now);
    }

    fn on_service_ready(&mut self, svc: ServiceId, now: SimTime) {
        let became_running = self
            .registry
            .get_mut(svc)
            .map(|s| s.maybe_complete_start(now))
            .unwrap_or(false);
        if !became_running {
            return;
        }
        if let Some((inc, auto)) = self.open_by_service.remove(&svc) {
            if auto {
                self.ledger
                    .restore(inc, now, Actor::Agent, "restart-service");
                self.trace
                    .emit_corr(now, Subsystem::Agent, "restore", Some(inc.0), || {
                        format!("inc={inc} action=restart-service")
                    });
                self.slo_observe(inc, now);
            } else {
                self.close_human(inc, now, "restart-service");
            }
            if let Some(idx) = self.open_faults.iter().position(|of| of.incident == inc) {
                self.open_faults.remove(idx);
            }
        }
        self.sync_lsf_master();
        self.try_dispatch(now);
    }

    fn on_reboot_done(&mut self, sid: ServerId, now: SimTime) {
        let rebooted = self
            .servers
            .get_mut(&sid)
            .map(|s| s.maybe_complete_reboot(now))
            .unwrap_or(false);
        if !rebooted {
            return;
        }
        // Close the hardware incident.
        if let Some(idx) = self
            .open_faults
            .iter()
            .position(|of| of.undo == Undo::ServerRepair(sid))
        {
            let of = self.open_faults.remove(idx);
            self.close_human(of.incident, now, "replace-hardware+reboot");
        }
        // Bring the machine's services back.
        let ids = self.registry.ids_on_server(sid);
        for id in ids {
            let startable = matches!(
                self.registry.get(id).map(|s| s.status),
                Some(ServiceStatus::Crashed) | Some(ServiceStatus::Stopped)
            );
            if !startable || self.registry.dependencies_satisfied(id).is_err() {
                continue;
            }
            let server = self.servers.get_mut(&sid).expect("server exists");
            if let Ok(ready) = self.registry.start(id, server, now) {
                self.queue.schedule(ready, WorldEvent::ServiceReady(id));
            }
        }
        self.try_dispatch(now);
    }
}

/// Build and run a scenario end-to-end.
pub fn run_scenario(cfg: ScenarioConfig) -> ScenarioReport {
    World::build(cfg).run()
}

/// A `DiskFill`'s runaway debug trace: 64 KiB lines appended until
/// `/logs` is ≥ 92 % full. Nothing reads the lines, so they are kept by
/// size only.
fn fill_logs(fs: &mut SimFs, now: SimTime) {
    while fs.usage_fraction("/logs").unwrap_or(1.0) < 0.92 {
        if fs
            .append_sized("/logs/app_debug_trace", 1 << 16, now)
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    #[test]
    fn disk_fill_by_size_equals_the_line_append_loop() {
        // The fill as 64 KiB lines of text, before it kept sizes only.
        fn fill_with_lines(fs: &mut SimFs, now: SimTime) {
            let line = "x".repeat(1 << 16);
            while fs.usage_fraction("/logs").unwrap_or(1.0) < 0.92 {
                if fs
                    .append("/logs/app_debug_trace", line.clone(), now)
                    .is_err()
                {
                    break;
                }
            }
        }
        let line = (1u64 << 16) + 1;
        // A fresh host with /logs scaled down: one where the loop stops
        // on the 92 % threshold (with a flag already on disk, so the stop
        // point is not a multiple of the line), one where it stops on
        // NoSpace.
        for (cap, flag) in [(64 * line + 5000, true), (3 * line + 10, false)] {
            let mut by_lines = Server::new(
                ServerId(0),
                "db000",
                ServerModel::SunE4500.default_spec(),
                Site::new("London", "LDN"),
            );
            by_lines.fs.add_mount("/logs", cap);
            if flag {
                let agent = crate::agents::AgentKind::Performance.name();
                crate::flags::write_flag(
                    &mut by_lines.fs,
                    agent,
                    crate::flags::FlagOutcome::Ok,
                    None,
                    SimTime::ZERO,
                )
                .unwrap();
            }
            let mut by_size = by_lines.clone();
            let now = SimTime::from_secs(60);
            fill_with_lines(&mut by_lines.fs, now);
            fill_logs(&mut by_size.fs, now);
            assert_eq!(
                by_lines.fs.used_bytes("/logs"),
                by_size.fs.used_bytes("/logs")
            );
            assert_eq!(
                by_lines.fs.usage_fraction("/logs"),
                by_size.fs.usage_fraction("/logs")
            );
            let (a, b) = (
                by_lines.fs.read("/logs/app_debug_trace").unwrap(),
                by_size.fs.read("/logs/app_debug_trace").unwrap(),
            );
            assert_eq!(a.size_bytes(), b.size_bytes());
            assert_eq!((a.created_at, a.modified_at), (b.created_at, b.modified_at));
            assert!(b.lines.is_empty());
            // Rotation frees exactly what the fill took.
            by_lines.fs.remove("/logs/app_debug_trace").unwrap();
            by_size.fs.remove("/logs/app_debug_trace").unwrap();
            assert_eq!(
                by_lines.fs.used_bytes("/logs"),
                by_size.fs.used_bytes("/logs")
            );
        }
    }

    fn small(mode: ManagementMode) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::small(42, mode);
        cfg.horizon = SimDuration::from_days(7);
        cfg
    }

    #[test]
    fn world_builds_the_site_shape() {
        let w = World::build(small(ManagementMode::Intelliagents));
        assert_eq!(w.servers.len(), 8 + 3 + 3 + 2);
        assert_eq!(w.db_hosts.len(), 8);
        // One service per db host + web/dns/mktdata + lsf master + fes.
        assert!(w.registry.len() >= 8 + 3 + 3);
        assert!(!w.apps.is_empty());
    }

    #[test]
    fn services_come_up_shortly_after_epoch() {
        let mut w = World::build(small(ManagementMode::Intelliagents));
        w.run_until(SimTime::from_mins(30));
        let down: Vec<String> = w
            .registry
            .iter()
            .filter(|s| !s.status.is_serving())
            .map(|s| s.spec.name.clone())
            .collect();
        assert!(down.is_empty(), "not serving after 30 min: {down:?}");
        assert!(w.lsf.master_up);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = run_scenario(small(ManagementMode::ManualOps));
        let b = run_scenario(small(ManagementMode::ManualOps));
        assert_eq!(a.total_downtime_hours, b.total_downtime_hours);
        assert_eq!(a.incidents, b.incidents);
        assert_eq!(a.lsf.completed, b.lsf.completed);
        assert_eq!(a.db_crashes, b.db_crashes);
    }

    #[test]
    fn fault_tape_identical_across_modes() {
        let a = World::build(small(ManagementMode::ManualOps));
        let b = World::build(small(ManagementMode::Intelliagents));
        assert_eq!(a.fault_tape.len(), b.fault_tape.len());
        assert!(a.fault_tape.iter().zip(&b.fault_tape).all(|(x, y)| x == y));
        assert_eq!(a.workload_tape.len(), b.workload_tape.len());
    }

    #[test]
    fn jobs_flow_through_the_week() {
        let report = run_scenario(small(ManagementMode::Intelliagents));
        assert!(
            report.lsf.submitted > 100,
            "submitted = {}",
            report.lsf.submitted
        );
        assert!(
            report.lsf.completed as f64 > report.lsf.submitted as f64 * 0.7,
            "completed = {} of {}",
            report.lsf.completed,
            report.lsf.submitted
        );
    }

    #[test]
    fn agents_beat_manual_ops_on_downtime() {
        let manual = run_scenario(small(ManagementMode::ManualOps));
        let agents = run_scenario(small(ManagementMode::Intelliagents));
        assert!(
            manual.total_downtime_hours > agents.total_downtime_hours * 2.0,
            "manual = {:.1}h agents = {:.1}h",
            manual.total_downtime_hours,
            agents.total_downtime_hours
        );
    }

    #[test]
    fn agent_detection_is_minutes_not_hours() {
        let report = run_scenario(small(ManagementMode::Intelliagents));
        for (cat, totals) in &report.categories {
            if totals.incidents == 0 || *cat == FaultCategory::Hardware {
                continue;
            }
            let det = totals.mean_detection_hours();
            assert!(
                det <= 0.5,
                "{cat}: mean detection {det:.2}h should be within ~2 sweep periods"
            );
        }
    }

    #[test]
    fn manual_mode_sends_no_agent_pages_but_has_incidents() {
        let report = run_scenario(small(ManagementMode::ManualOps));
        assert!(report.incidents > 0);
        // All incidents manual.
        for totals in report.categories.values() {
            assert_eq!(totals.auto_repaired, 0);
        }
    }

    #[test]
    fn open_incidents_are_bounded_at_horizon() {
        let report = run_scenario(small(ManagementMode::Intelliagents));
        // A few faults may be mid-repair at the horizon; they must not
        // accumulate unboundedly.
        assert!(
            report.open_incidents < 10,
            "open = {}",
            report.open_incidents
        );
    }
}
