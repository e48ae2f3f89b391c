//! Server-selection policies for job dispatch.
//!
//! Year 1 at the customer site: "Users via the application GUI, manually
//! selected database servers to submit jobs" — and every crashed job
//! carried the implicit conclusion that the user "did not select a
//! powerful enough server, or selected a server that was already
//! overloaded" (§4). We model that behaviour as **sticky manual
//! selection**: each user has favourite servers chosen without regard to
//! load. The baseline alternatives are uniform random choice and a
//! load-aware greedy policy; the paper's DGSPL-guided policy lives in
//! `intelliqos-core` (it needs the ontologies) but implements the same
//! [`ServerSelector`] trait.

use std::collections::BTreeMap;

use intelliqos_simkern::SimRng;

use intelliqos_cluster::hardware::HardwareSpec;
use intelliqos_cluster::ids::ServerId;
use intelliqos_cluster::server::Server;

use crate::job::{Job, JobId};

/// One candidate server as a selector sees it at dispatch time.
#[derive(Debug, Clone, Copy)]
pub struct ServerCandidate<'a> {
    /// Which server.
    pub server: ServerId,
    /// Jobs already running there.
    pub running_jobs: u32,
    /// The per-server job limit.
    pub job_limit: u32,
    /// Is the database on it currently serving?
    pub db_serving: bool,
    /// Is the server up at all?
    pub up: bool,
    host: &'a Server,
}

impl ServerCandidate<'_> {
    /// Does this candidate have a free job slot and a live database?
    pub fn accepts_jobs(&self) -> bool {
        self.up && self.db_serving && self.running_jobs < self.job_limit
    }

    /// Its hardware.
    pub fn spec(&self) -> &HardwareSpec {
        &self.host.spec
    }

    /// Current CPU utilisation fraction: the hidden truth at dispatch
    /// time, which selectors that shouldn't know it never call. Folds the
    /// host's process table, so it is computed only when asked.
    pub fn cpu_utilization(&self) -> f64 {
        self.host.cpu_utilization()
    }
}

/// The execution hosts as candidates, computed only when a selector asks
/// for one: a dispatch costs what its policy reads, not a snapshot of
/// every host.
///
/// Index `i` is the `i`-th execution host; a host missing from the
/// server map yields no candidate.
pub struct CandidateView<'a> {
    exec_hosts: &'a [ServerId],
    servers: &'a BTreeMap<ServerId, Server>,
    running_on: &'a BTreeMap<ServerId, Vec<JobId>>,
    job_limit: u32,
    db_serving: &'a dyn Fn(ServerId) -> bool,
}

impl<'a> CandidateView<'a> {
    /// A view over `exec_hosts`, reading liveness from `servers`, running
    /// jobs from `running_on`, and database state from `db_serving`.
    pub fn new(
        exec_hosts: &'a [ServerId],
        servers: &'a BTreeMap<ServerId, Server>,
        running_on: &'a BTreeMap<ServerId, Vec<JobId>>,
        job_limit: u32,
        db_serving: &'a dyn Fn(ServerId) -> bool,
    ) -> Self {
        CandidateView {
            exec_hosts,
            servers,
            running_on,
            job_limit,
            db_serving,
        }
    }

    /// Number of execution hosts.
    pub fn len(&self) -> usize {
        self.exec_hosts.len()
    }

    /// No execution hosts at all?
    pub fn is_empty(&self) -> bool {
        self.exec_hosts.is_empty()
    }

    /// The `i`-th execution host as a candidate.
    pub fn get(&self, i: usize) -> Option<ServerCandidate<'a>> {
        self.candidate(*self.exec_hosts.get(i)?)
    }

    /// The candidate for `server`, if it is an execution host.
    pub fn find(&self, server: ServerId) -> Option<ServerCandidate<'a>> {
        if self.exec_hosts.contains(&server) {
            self.candidate(server)
        } else {
            None
        }
    }

    /// Every candidate, in execution-host order.
    pub fn iter(&self) -> impl Iterator<Item = ServerCandidate<'a>> + '_ {
        self.exec_hosts
            .iter()
            .filter_map(|&sid| self.candidate(sid))
    }

    fn candidate(&self, server: ServerId) -> Option<ServerCandidate<'a>> {
        let host = self.servers.get(&server)?;
        Some(ServerCandidate {
            server,
            running_jobs: self.running_on.get(&server).map_or(0, |v| v.len() as u32),
            job_limit: self.job_limit,
            db_serving: (self.db_serving)(server),
            up: host.is_up(),
            host,
        })
    }
}

/// A policy choosing where a job goes.
pub trait ServerSelector {
    /// Pick a server for `job` among `candidates`, or `None` when no
    /// acceptable server exists (the job stays queued). A selector must
    /// not draw from its RNG when no candidate accepts jobs: dispatch
    /// relies on that to stop at a stuck queue.
    fn select(&mut self, job: &Job, candidates: &CandidateView<'_>) -> Option<ServerId>;

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;
}

/// Uniformly random choice among the acceptable candidates; no draw
/// when there is none.
fn random_acceptable(rng: &mut SimRng, candidates: &CandidateView<'_>) -> Option<ServerId> {
    let acceptable: Vec<ServerId> = candidates
        .iter()
        .filter(|c| c.accepts_jobs())
        .map(|c| c.server)
        .collect();
    if acceptable.is_empty() {
        None
    } else {
        Some(acceptable[rng.index(acceptable.len())])
    }
}

/// How many habitual favourites each user has.
const FAVOURITES_PER_USER: usize = 2;

/// Year-1 behaviour: each user sticks to a couple of favourite servers
/// picked by habit, not load. If a favourite has a free slot it gets the
/// job even when it is already melting; only when **all** favourites are
/// unavailable does the user grudgingly pick something else at random.
pub struct ManualStickySelector {
    rng: SimRng,
}

impl ManualStickySelector {
    /// New selector with its own RNG stream.
    pub fn new(rng: SimRng) -> Self {
        ManualStickySelector { rng }
    }

    /// A user's favourite servers: a stable pseudo-random pair of indices
    /// keyed by the user name (habit, reproducibly modelled). The two may
    /// coincide; asking the same host twice gives the same answer.
    fn favourites(user: &str, n_candidates: usize) -> [usize; FAVOURITES_PER_USER] {
        // Deterministic per-user picks independent of the RNG state so a
        // user's habit never changes mid-year.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in user.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        std::array::from_fn(|k| {
            ((h.rotate_left(13 * (k as u32 + 1))) % n_candidates.max(1) as u64) as usize
        })
    }
}

impl ServerSelector for ManualStickySelector {
    fn select(&mut self, job: &Job, candidates: &CandidateView<'_>) -> Option<ServerId> {
        if candidates.is_empty() {
            return None;
        }
        // Try the habitual favourites first, load unseen.
        for idx in Self::favourites(&job.spec.user, candidates.len()) {
            if let Some(c) = candidates.get(idx).filter(|c| c.accepts_jobs()) {
                return Some(c.server);
            }
        }
        // Grudging fallback: uniformly random among acceptable servers.
        random_acceptable(&mut self.rng, candidates)
    }

    fn name(&self) -> &'static str {
        "manual-sticky"
    }
}

/// Uniform random choice among acceptable servers — the paper's
/// "choosing randomly a server for resubmitting a failed job, without
/// any knowledge of its past job submission history".
pub struct RandomSelector {
    rng: SimRng,
}

impl RandomSelector {
    /// New selector with its own RNG stream.
    pub fn new(rng: SimRng) -> Self {
        RandomSelector { rng }
    }
}

impl ServerSelector for RandomSelector {
    fn select(&mut self, _job: &Job, candidates: &CandidateView<'_>) -> Option<ServerId> {
        random_acceptable(&mut self.rng, candidates)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Load-aware greedy: acceptable server with the lowest utilisation,
/// ties broken by higher compute power. An oracle upper bound the
/// DGSPL policy approximates with 15-minute-old information.
pub struct LeastLoadedSelector;

impl ServerSelector for LeastLoadedSelector {
    fn select(&mut self, _job: &Job, candidates: &CandidateView<'_>) -> Option<ServerId> {
        candidates
            .iter()
            .filter(|c| c.accepts_jobs())
            .map(|c| (c.server, c.cpu_utilization(), c.spec().compute_power()))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
            })
            .map(|(server, ..)| server)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec};
    use intelliqos_cluster::hardware::ServerModel;
    use intelliqos_cluster::ids::Site;
    use intelliqos_simkern::SimTime;
    use std::collections::BTreeSet;

    const LIMIT: u32 = 4;

    /// The state a view reads: hosts `0..n` at utilisation `0.1 · i`.
    struct Fixture {
        hosts: Vec<ServerId>,
        servers: BTreeMap<ServerId, Server>,
        running: BTreeMap<ServerId, Vec<JobId>>,
        db_down: BTreeSet<ServerId>,
    }

    impl Fixture {
        fn new(n: u32) -> Self {
            let mut f = Fixture {
                hosts: (0..n).map(ServerId).collect(),
                servers: BTreeMap::new(),
                running: BTreeMap::new(),
                db_down: BTreeSet::new(),
            };
            for i in 0..n {
                let spec = ServerModel::SunE4500.default_spec();
                let srv = Server::new(ServerId(i), format!("db{i:03}"), spec, Site::new("L", "L"));
                f.servers.insert(ServerId(i), srv);
                f.set_util(ServerId(i), 0.1 * i as f64);
            }
            f
        }

        fn set_util(&mut self, sid: ServerId, u: f64) {
            let srv = self.servers.get_mut(&sid).unwrap();
            srv.external_cpu_demand = u * srv.spec.compute_power();
        }

        fn fill(&mut self, sid: ServerId) {
            self.running.insert(sid, vec![JobId(0); LIMIT as usize]);
        }

        fn select(&self, sel: &mut dyn ServerSelector, job: &Job) -> Option<ServerId> {
            let db = |sid: ServerId| !self.db_down.contains(&sid);
            let view = CandidateView::new(&self.hosts, &self.servers, &self.running, LIMIT, &db);
            sel.select(job, &view)
        }
    }

    fn job_for(user: &str) -> Job {
        Job::new(
            JobId(0),
            JobSpec::defaults_for(JobKind::Report, user),
            SimTime::ZERO,
        )
    }

    fn job() -> Job {
        job_for("alice")
    }

    #[test]
    fn view_computes_candidates_from_live_state() {
        let mut f = Fixture::new(3);
        f.fill(ServerId(1));
        f.db_down.insert(ServerId(2));
        f.servers.get_mut(&ServerId(0)).unwrap().crash();
        let db = |sid: ServerId| !f.db_down.contains(&sid);
        let view = CandidateView::new(&f.hosts, &f.servers, &f.running, LIMIT, &db);
        assert_eq!(view.len(), 3);
        let c: Vec<_> = view.iter().collect();
        assert_eq!(
            (c[0].up, c[0].running_jobs, c[0].db_serving),
            (false, 0, true)
        );
        assert_eq!(
            (c[1].up, c[1].running_jobs, c[1].db_serving),
            (true, 4, true)
        );
        assert_eq!(
            (c[2].up, c[2].running_jobs, c[2].db_serving),
            (true, 0, false)
        );
        assert!(c.iter().all(|c| !c.accepts_jobs()));
        assert!((c[2].cpu_utilization() - 0.2).abs() < 1e-9);
        assert_eq!(view.get(1).unwrap().server, ServerId(1));
        assert_eq!(view.find(ServerId(2)).unwrap().server, ServerId(2));
        assert!(view.get(3).is_none());
        assert!(view.find(ServerId(7)).is_none());
    }

    #[test]
    fn manual_selector_is_sticky_per_user() {
        let mut sel = ManualStickySelector::new(SimRng::stream(1, "manual"));
        let f = Fixture::new(10);
        let first = f.select(&mut sel, &job()).unwrap();
        for _ in 0..20 {
            assert_eq!(
                f.select(&mut sel, &job()),
                Some(first),
                "favourite must not drift"
            );
        }
        // A different user generally lands elsewhere (hash-keyed).
        let bob_pick = f.select(&mut sel, &job_for("bob-the-analyst")).unwrap();
        // (Not guaranteed different, but with 10 servers it is for these names.)
        assert_ne!(first, bob_pick);
    }

    #[test]
    fn manual_selector_ignores_load_on_favourites() {
        let mut sel = ManualStickySelector::new(SimRng::stream(1, "manual"));
        let mut f = Fixture::new(10);
        let fav = f.select(&mut sel, &job()).unwrap();
        // Overload the favourite massively — user still picks it.
        f.set_util(fav, 3.0);
        assert_eq!(f.select(&mut sel, &job()), Some(fav));
    }

    #[test]
    fn manual_selector_falls_back_when_favourites_full() {
        let mut sel = ManualStickySelector::new(SimRng::stream(1, "manual"));
        let mut f = Fixture::new(4);
        let fav = f.select(&mut sel, &job()).unwrap();
        // Fill every favourite slot.
        f.fill(fav);
        let next = f.select(&mut sel, &job()).unwrap();
        assert_ne!(next, fav);
    }

    #[test]
    fn random_selector_skips_unacceptable() {
        let mut sel = RandomSelector::new(SimRng::stream(2, "rand"));
        let mut f = Fixture::new(3);
        f.servers.get_mut(&ServerId(0)).unwrap().crash();
        f.db_down.insert(ServerId(1));
        for _ in 0..10 {
            assert_eq!(f.select(&mut sel, &job()), Some(ServerId(2)));
        }
        f.fill(ServerId(2));
        assert_eq!(f.select(&mut sel, &job()), None);
    }

    #[test]
    fn least_loaded_picks_minimum_utilization() {
        let f = Fixture::new(5); // utilisations 0.0 .. 0.4
        assert_eq!(
            f.select(&mut LeastLoadedSelector, &job()),
            Some(ServerId(0))
        );
    }

    #[test]
    fn least_loaded_breaks_ties_by_power() {
        let mut f = Fixture::new(2);
        // Far more power, same utilisation.
        f.servers.get_mut(&ServerId(1)).unwrap().spec = ServerModel::SunE10k.default_spec();
        f.set_util(ServerId(0), 0.25);
        f.set_util(ServerId(1), 0.25);
        assert_eq!(
            f.select(&mut LeastLoadedSelector, &job()),
            Some(ServerId(1))
        );
    }

    #[test]
    fn empty_candidates_yield_none() {
        let f = Fixture::new(0);
        let mut m = ManualStickySelector::new(SimRng::stream(3, "m"));
        let mut r = RandomSelector::new(SimRng::stream(3, "r"));
        assert_eq!(f.select(&mut m, &job()), None);
        assert_eq!(f.select(&mut r, &job()), None);
        assert_eq!(f.select(&mut LeastLoadedSelector, &job()), None);
    }

    #[test]
    fn policy_names() {
        assert_eq!(
            ManualStickySelector::new(SimRng::stream(0, "x")).name(),
            "manual-sticky"
        );
        assert_eq!(RandomSelector::new(SimRng::stream(0, "x")).name(), "random");
        assert_eq!(LeastLoadedSelector.name(), "least-loaded");
    }
}
