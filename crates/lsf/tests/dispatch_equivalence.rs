//! Dispatch through the lazy candidate view must do exactly what the
//! eager snapshot it replaced did.
//!
//! The reference model below is the former dispatch loop and the former
//! selectors, kept verbatim: a snapshot of every execution host built
//! once per call (utilisation included) and patched in place after each
//! placement, and a "no host accepts" head-of-line check before every
//! selection. Over seeded random states — hosts up or down, databases
//! serving or not, running counts at and below the limit, the master
//! down, a queue that nothing can take, resubmitted jobs with tried
//! servers — both must produce the same dispatches, pending order, job
//! states, stats and process tables, and leave each selector's RNG at
//! the same next draw.

use std::collections::{BTreeMap, VecDeque};

use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
use intelliqos_cluster::ids::{ServerId, Site};
use intelliqos_cluster::server::Server;
use intelliqos_core::DgsplSelector;
use intelliqos_lsf::{
    CandidateView, Dispatch, FailReason, Job, JobId, JobKind, JobSpec, JobState,
    LeastLoadedSelector, LsfCluster, LsfStats, ManualStickySelector, RandomSelector,
    ServerSelector,
};
use intelliqos_ontology::dgspl::{Dgspl, DgsplEntry};
use intelliqos_simkern::{SimDuration, SimRng, SimTime};

// ---- reference model: the eager snapshot and the selectors over it ----

struct OldCandidate {
    server: ServerId,
    spec: HardwareSpec,
    running_jobs: u32,
    job_limit: u32,
    cpu_utilization: f64,
    db_serving: bool,
    up: bool,
}

impl OldCandidate {
    fn accepts_jobs(&self) -> bool {
        self.up && self.db_serving && self.running_jobs < self.job_limit
    }
}

trait OldSelector {
    fn select(&mut self, job: &Job, candidates: &[OldCandidate]) -> Option<ServerId>;
}

struct OldManual {
    rng: SimRng,
}

impl OldManual {
    fn favourites(user: &str, n_candidates: usize) -> Vec<usize> {
        let mut picks = Vec::new();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in user.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for k in 0..2 {
            let idx = ((h.rotate_left(13 * (k as u32 + 1))) % n_candidates.max(1) as u64) as usize;
            if !picks.contains(&idx) {
                picks.push(idx);
            }
        }
        picks
    }
}

impl OldSelector for OldManual {
    fn select(&mut self, job: &Job, candidates: &[OldCandidate]) -> Option<ServerId> {
        if candidates.is_empty() {
            return None;
        }
        for idx in Self::favourites(&job.spec.user, candidates.len()) {
            let c = &candidates[idx];
            if c.accepts_jobs() {
                return Some(c.server);
            }
        }
        let acceptable: Vec<&OldCandidate> =
            candidates.iter().filter(|c| c.accepts_jobs()).collect();
        if acceptable.is_empty() {
            None
        } else {
            Some(acceptable[self.rng.index(acceptable.len())].server)
        }
    }
}

struct OldRandom {
    rng: SimRng,
}

impl OldSelector for OldRandom {
    fn select(&mut self, _job: &Job, candidates: &[OldCandidate]) -> Option<ServerId> {
        let acceptable: Vec<&OldCandidate> =
            candidates.iter().filter(|c| c.accepts_jobs()).collect();
        if acceptable.is_empty() {
            None
        } else {
            Some(acceptable[self.rng.index(acceptable.len())].server)
        }
    }
}

struct OldLeastLoaded;

impl OldSelector for OldLeastLoaded {
    fn select(&mut self, _job: &Job, candidates: &[OldCandidate]) -> Option<ServerId> {
        candidates
            .iter()
            .filter(|c| c.accepts_jobs())
            .min_by(|a, b| {
                a.cpu_utilization
                    .partial_cmp(&b.cpu_utilization)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(
                        b.spec
                            .compute_power()
                            .partial_cmp(&a.spec.compute_power())
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
            })
            .map(|c| c.server)
    }
}

struct OldDgspl {
    dgspl: Dgspl,
    host_ids: BTreeMap<String, ServerId>,
    floor: Option<(String, f64, u32)>,
}

impl OldSelector for OldDgspl {
    fn select(&mut self, job: &Job, candidates: &[OldCandidate]) -> Option<ServerId> {
        let pred = |e: &DgsplEntry| e.app_type.starts_with(APP_TYPE);
        let shortlist = match &self.floor {
            Some((model, power, ram)) => self
                .dgspl
                .replacement_shortlist_by(pred, model, *power, *ram),
            None => self.dgspl.shortlist_by(pred),
        };
        for entry in shortlist {
            let Some(&sid) = self.host_ids.get(&entry.hostname) else {
                continue;
            };
            if job.attempts > 0 && job.tried_servers.contains(&sid) {
                continue;
            }
            if let Some(c) = candidates.iter().find(|c| c.server == sid) {
                if c.accepts_jobs() {
                    return Some(sid);
                }
            }
        }
        None
    }
}

/// The former LSF job table and dispatch loop, mirrored from a live
/// cluster through its public accessors.
struct Model {
    jobs: BTreeMap<JobId, Job>,
    pending: VecDeque<JobId>,
    running_on: BTreeMap<ServerId, Vec<JobId>>,
    exec_hosts: Vec<ServerId>,
    limit: u32,
    master_up: bool,
    stats: LsfStats,
}

impl Model {
    fn of(lsf: &LsfCluster) -> Model {
        Model {
            jobs: lsf.jobs().map(|j| (j.id, j.clone())).collect(),
            pending: lsf.pending_ids().collect(),
            running_on: lsf
                .exec_hosts()
                .iter()
                .map(|&sid| (sid, lsf.running_on(sid).to_vec()))
                .collect(),
            exec_hosts: lsf.exec_hosts().to_vec(),
            limit: lsf.job_limit_per_server,
            master_up: lsf.master_up,
            stats: lsf.stats(),
        }
    }

    fn submit(&mut self, id: JobId, spec: JobSpec, now: SimTime) {
        self.jobs.insert(id, Job::new(id, spec, now));
        self.pending.push_back(id);
        self.stats.submitted += 1;
    }

    fn dispatch_pending(
        &mut self,
        selector: &mut dyn OldSelector,
        servers: &mut BTreeMap<ServerId, Server>,
        db_serving_on: &dyn Fn(ServerId) -> bool,
        now: SimTime,
    ) -> Vec<Dispatch> {
        if !self.master_up {
            return Vec::new();
        }
        let mut dispatched = Vec::new();
        let mut still_pending = VecDeque::new();
        let mut cands = old_candidates(
            &self.exec_hosts,
            servers,
            db_serving_on,
            |sid| self.running_on.get(&sid).map_or(0, |v| v.len() as u32),
            self.limit,
        );
        while let Some(jid) = self.pending.pop_front() {
            let job = &self.jobs[&jid];
            if !cands.iter().any(|c| c.accepts_jobs()) {
                still_pending.push_back(jid);
                still_pending.extend(self.pending.drain(..));
                break;
            }
            match selector.select(job, &cands) {
                Some(sid) => {
                    let srv = servers.get_mut(&sid).unwrap();
                    let job = self.jobs.get_mut(&jid).unwrap();
                    let pid = srv.procs.spawn(
                        "lsf_job",
                        format!("{} {}", job.spec.kind.tag(), jid),
                        job.spec.user.clone(),
                        job.spec.cpu_demand,
                        job.spec.mem_mb,
                        job.spec.io_demand,
                        now,
                    );
                    let stretch = srv.cpu_utilization().max(1.0);
                    let runtime =
                        SimDuration::from_secs_f64(job.spec.runtime.as_secs() as f64 * stretch);
                    let expected_end = now + runtime;
                    job.state = JobState::Running {
                        server: sid,
                        pid,
                        started: now,
                        expected_end,
                    };
                    job.attempts += 1;
                    if !job.tried_servers.contains(&sid) {
                        job.tried_servers.push(sid);
                    }
                    self.running_on.entry(sid).or_default().push(jid);
                    self.stats.dispatched += 1;
                    dispatched.push(Dispatch {
                        job: jid,
                        server: sid,
                        expected_end,
                    });
                    if let Some(c) = cands.iter_mut().find(|c| c.server == sid) {
                        c.running_jobs += 1;
                        c.cpu_utilization = servers[&sid].cpu_utilization();
                    }
                }
                None => still_pending.push_back(jid),
            }
        }
        self.pending = still_pending;
        dispatched
    }
}

fn old_candidates(
    exec_hosts: &[ServerId],
    servers: &BTreeMap<ServerId, Server>,
    db_serving_on: &dyn Fn(ServerId) -> bool,
    running: impl Fn(ServerId) -> u32,
    limit: u32,
) -> Vec<OldCandidate> {
    exec_hosts
        .iter()
        .filter_map(|&sid| {
            let srv = servers.get(&sid)?;
            Some(OldCandidate {
                server: sid,
                spec: srv.spec,
                running_jobs: running(sid),
                job_limit: limit,
                cpu_utilization: srv.cpu_utilization(),
                db_serving: db_serving_on(sid),
                up: srv.is_up(),
            })
        })
        .collect()
}

// ---- random states ----

const APP_TYPE: &str = "db-";

/// One seeded random state: a cluster with history, its servers, which
/// databases serve, and a DGSPL over (most of) the hosts.
struct Scenario {
    lsf: LsfCluster,
    servers: BTreeMap<ServerId, Server>,
    db_up: Vec<bool>,
    dgspl: Dgspl,
    host_ids: BTreeMap<String, ServerId>,
    floor: Option<(String, f64, u32)>,
    rng: SimRng,
}

fn spec_for(rng: &mut SimRng) -> JobSpec {
    let kind = JobKind::ALL[rng.index(JobKind::ALL.len())];
    JobSpec::defaults_for(kind, format!("analyst{:02}", rng.index(12)))
}

fn scenario(case: u64) -> Scenario {
    let mut rng = SimRng::stream(case, "dispatch-equivalence");
    let n = 1 + rng.index(10) as u32;
    let limit = 1 + rng.index(3) as u32;
    let mut servers = BTreeMap::new();
    for i in 0..n {
        let model = if rng.chance(0.7) {
            ServerModel::SunE4500
        } else {
            ServerModel::SunE10k
        };
        let mut srv = Server::new(
            ServerId(i),
            format!("db{i:03}"),
            model.default_spec(),
            Site::new("London", "LDN"),
        );
        srv.external_cpu_demand = rng.uniform(0.0, 1.5) * srv.spec.compute_power();
        servers.insert(ServerId(i), srv);
    }
    let mut lsf = LsfCluster::new((0..n).map(ServerId).collect(), limit);

    // History: a dispatched batch, database crashes, resubmissions and
    // completions, then fresh arrivals.
    for _ in 0..rng.index(3 * n as usize + 1) {
        lsf.submit(spec_for(&mut rng), SimTime::ZERO);
    }
    let mut setup = RandomSelector::new(SimRng::stream(case, "setup"));
    lsf.dispatch_pending(&mut setup, &mut servers, |_| true, SimTime::ZERO);
    let t1 = SimTime::from_mins(10);
    for i in 0..n {
        if rng.chance(0.3) {
            lsf.fail_all_on(ServerId(i), FailReason::DbCrash, &mut servers, t1);
        }
    }
    for id in lsf.failed_ids() {
        if rng.chance(0.7) {
            lsf.resubmit(id);
        }
    }
    lsf.dispatch_pending(&mut setup, &mut servers, |_| true, t1);
    let running: Vec<JobId> = lsf
        .jobs()
        .filter(|j| j.is_running())
        .map(|j| j.id)
        .collect();
    for id in running {
        if rng.chance(0.4) {
            lsf.complete(id, &mut servers);
        }
    }
    for id in lsf.failed_ids() {
        if rng.chance(0.5) {
            lsf.resubmit(id);
        }
    }
    for _ in 0..rng.index(2 * n as usize + 2) {
        lsf.submit(spec_for(&mut rng), t1);
    }

    // The state at dispatch time.
    for srv in servers.values_mut() {
        if rng.chance(0.2) {
            srv.crash();
        }
    }
    let stuck = rng.chance(0.15);
    let db_up: Vec<bool> = (0..n).map(|_| !stuck && !rng.chance(0.2)).collect();
    lsf.master_up = !rng.chance(0.1);

    let mut entries = Vec::new();
    for i in 0..n + 1 {
        if i < n && rng.chance(0.2) {
            continue; // host absent from the DGSPL
        }
        let app_type = ["db-oracle", "db-sybase", "web"][rng.index(3)];
        entries.push(DgsplEntry {
            // Host `n` is unknown to the cluster.
            hostname: format!("db{i:03}"),
            server_type: ["Sun-E4500", "Sun-E10000"][rng.index(2)].into(),
            os: "Solaris".into(),
            ram_gb: [4, 8, 16][rng.index(3)],
            cpus: 8,
            compute_power: rng.uniform(2.0, 30.0),
            app_type: app_type.into(),
            version: "8.1.7".into(),
            load: rng.uniform(0.0, 1.5),
            users: rng.index(4) as u32,
            location: "London".into(),
            site: "LDN".into(),
            service: format!("db-{i}"),
        });
    }
    let floor = rng
        .chance(0.4)
        .then(|| ("Sun-E4500".to_string(), rng.uniform(0.0, 20.0), 8));
    Scenario {
        lsf,
        servers,
        db_up,
        dgspl: Dgspl {
            generated_at_secs: 0,
            entries,
        },
        host_ids: (0..n + 1)
            .map(|i| (format!("db{i:03}"), ServerId(i)))
            .collect(),
        floor,
        rng,
    }
}

#[derive(Clone, Copy, Debug)]
enum Policy {
    Manual,
    Random,
    LeastLoaded,
    Dgspl,
}

fn selectors(
    policy: Policy,
    case: u64,
    sc: &Scenario,
) -> (Box<dyn ServerSelector>, Box<dyn OldSelector>) {
    let rng = || SimRng::stream(case, "policy");
    match policy {
        Policy::Manual => (
            Box::new(ManualStickySelector::new(rng())),
            Box::new(OldManual { rng: rng() }),
        ),
        Policy::Random => (
            Box::new(RandomSelector::new(rng())),
            Box::new(OldRandom { rng: rng() }),
        ),
        Policy::LeastLoaded => (Box::new(LeastLoadedSelector), Box::new(OldLeastLoaded)),
        Policy::Dgspl => {
            let mut sel = DgsplSelector::new(sc.host_ids.clone(), APP_TYPE);
            sel.update(sc.dgspl.clone());
            if let Some((model, power, ram)) = &sc.floor {
                sel.set_replacement_floor(model.clone(), *power, *ram);
            }
            let old = OldDgspl {
                dgspl: sc.dgspl.clone(),
                host_ids: sc.host_ids.clone(),
                floor: sc.floor.clone(),
            };
            (Box::new(sel), Box::new(old))
        }
    }
}

type JobView = (JobId, JobState, u32, Vec<ServerId>);

fn job_views<'a>(jobs: impl Iterator<Item = &'a Job>) -> Vec<JobView> {
    jobs.map(|j| (j.id, j.state, j.attempts, j.tried_servers.clone()))
        .collect()
}

fn proc_counts(servers: &BTreeMap<ServerId, Server>) -> Vec<(ServerId, usize)> {
    servers
        .iter()
        .map(|(&sid, s)| (sid, s.procs.len()))
        .collect()
}

/// Runs one case under `policy`: two dispatch rounds with arrivals in
/// between, then probes that make each selector draw from its RNG.
fn check(policy: Policy, case: u64) {
    let mut sc = scenario(case);
    let (mut new_sel, mut old_sel) = selectors(policy, case, &sc);
    let mut model = Model::of(&sc.lsf);
    let mut old_servers = sc.servers.clone();
    let db_up = sc.db_up.clone();
    let db = |sid: ServerId| db_up[sid.index()];
    let ctx = format!("{policy:?} case {case}");
    for round in 0..2u64 {
        let now = SimTime::from_mins(20 + round);
        let got = sc
            .lsf
            .dispatch_pending(new_sel.as_mut(), &mut sc.servers, db, now);
        let want = model.dispatch_pending(old_sel.as_mut(), &mut old_servers, &db, now);
        assert_eq!(got, want, "{ctx} round {round}: dispatches");
        assert_eq!(
            sc.lsf.pending_ids().collect::<Vec<_>>(),
            Vec::from(model.pending.clone()),
            "{ctx} round {round}: pending order"
        );
        assert_eq!(sc.lsf.stats(), model.stats, "{ctx} round {round}: stats");
        assert_eq!(
            job_views(sc.lsf.jobs()),
            job_views(model.jobs.values()),
            "{ctx} round {round}: job table"
        );
        assert_eq!(
            proc_counts(&sc.servers),
            proc_counts(&old_servers),
            "{ctx} round {round}: process tables"
        );
        for _ in 0..sc.rng.index(4) {
            let spec = spec_for(&mut sc.rng);
            let id = sc.lsf.submit(spec.clone(), now);
            model.submit(id, spec, now);
        }
    }

    // Probe the RNGs: six idle hosts where the probe user's favourites
    // refuse work, so a sticky or random selector must draw.
    let probe = Job::new(
        JobId(u64::MAX),
        JobSpec::defaults_for(JobKind::Report, "probe-user"),
        SimTime::ZERO,
    );
    let hosts: Vec<ServerId> = (0..6).map(ServerId).collect();
    let servers: BTreeMap<ServerId, Server> = hosts
        .iter()
        .map(|&sid| {
            let spec = ServerModel::SunE4500.default_spec();
            (
                sid,
                Server::new(
                    sid,
                    format!("db{:03}", sid.index()),
                    spec,
                    Site::new("L", "L"),
                ),
            )
        })
        .collect();
    let favs = OldManual::favourites(&probe.spec.user, hosts.len());
    let probe_db = |sid: ServerId| !favs.contains(&sid.index());
    let empty = BTreeMap::new();
    let view = CandidateView::new(&hosts, &servers, &empty, 1, &probe_db);
    let old = old_candidates(&hosts, &servers, &probe_db, |_| 0, 1);
    for draw in 0..3 {
        assert_eq!(
            new_sel.select(&probe, &view),
            old_sel.select(&probe, &old),
            "{ctx}: next draw {draw}"
        );
    }
}

const CASES: u64 = 300;

#[test]
fn manual_sticky_dispatch_equals_the_eager_snapshot() {
    (0..CASES).for_each(|c| check(Policy::Manual, c));
}

#[test]
fn random_dispatch_equals_the_eager_snapshot() {
    (0..CASES).for_each(|c| check(Policy::Random, c));
}

#[test]
fn least_loaded_dispatch_equals_the_eager_snapshot() {
    (0..CASES).for_each(|c| check(Policy::LeastLoaded, c));
}

#[test]
fn dgspl_dispatch_equals_the_eager_snapshot() {
    (0..CASES).for_each(|c| check(Policy::Dgspl, c));
}

/// The generator reaches the states the equivalence is about.
#[test]
fn random_states_cover_the_edge_cases() {
    let (mut stuck, mut master_down, mut full, mut retried, mut none_while_open) = (0, 0, 0, 0, 0);
    for case in 0..CASES {
        let sc = scenario(case);
        let ids = sc.lsf.exec_hosts();
        stuck += usize::from(sc.db_up.iter().all(|up| !up));
        master_down += usize::from(!sc.lsf.master_up);
        full += usize::from(
            ids.iter()
                .any(|&sid| sc.lsf.running_on(sid).len() as u32 == sc.lsf.job_limit_per_server),
        );
        retried += usize::from(
            sc.lsf
                .pending_ids()
                .any(|id| sc.lsf.job(id).is_some_and(|j| !j.tried_servers.is_empty())),
        );
        // A DGSPL that refuses a job although some host accepts it.
        let (mut sel, _) = selectors(Policy::Dgspl, case, &sc);
        let db = |sid: ServerId| sc.db_up[sid.index()];
        let view = sc.lsf.candidates(&sc.servers, &db);
        let first = sc.lsf.pending_ids().next();
        if let Some(id) = first {
            let job = sc.lsf.job(id).unwrap();
            none_while_open += usize::from(
                sel.select(job, &view).is_none() && view.iter().any(|c| c.accepts_jobs()),
            );
        }
    }
    for (what, n) in [
        ("all-stuck queue", stuck),
        ("master down", master_down),
        ("host at its limit", full),
        ("pending resubmission", retried),
        ("DGSPL refusal with open hosts", none_while_open),
    ] {
        assert!(n >= 5, "only {n} of {CASES} states have a {what}");
    }
}
