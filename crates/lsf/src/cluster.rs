//! The LSF batch cluster: queues, dispatch, per-server limits, and the
//! overload crash model.
//!
//! "The LSF software was configured to allow a finite number of
//! scheduled jobs per database server" (§4). Dispatch places a job's
//! processes on the chosen server; the job's resource demand then flows
//! through the ordinary process-table → OS-observables path, so
//! overload is visible to agents exactly the way it was visible to
//! `vmstat`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use intelliqos_simkern::{SimDuration, SimRng, SimTime};

use intelliqos_cluster::ids::ServerId;
use intelliqos_cluster::server::Server;

use crate::job::{FailReason, Job, JobId, JobSpec, JobState};
use crate::select::{CandidateView, ServerSelector};

/// Dispatch outcome for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// Which job.
    pub job: JobId,
    /// Where it landed.
    pub server: ServerId,
    /// When it will complete if nothing goes wrong.
    pub expected_end: SimTime,
}

/// Counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsfStats {
    /// Jobs submitted (first attempts).
    pub submitted: u64,
    /// Successful completions.
    pub completed: u64,
    /// Failures (each attempt counted).
    pub failed: u64,
    /// Dispatches (each attempt counted).
    pub dispatched: u64,
    /// Resubmissions after failure.
    pub resubmitted: u64,
}

/// The batch cluster state.
pub struct LsfCluster {
    jobs: BTreeMap<JobId, Job>,
    pending: VecDeque<JobId>,
    /// Per-server running-job index.
    running_on: BTreeMap<ServerId, Vec<JobId>>,
    /// Servers eligible for batch work (the database tier).
    exec_hosts: Vec<ServerId>,
    /// "A finite number of scheduled jobs per database server."
    pub job_limit_per_server: u32,
    /// Master daemon availability (wired to the LSF master service by
    /// the world driver). No dispatch happens while the master is down.
    pub master_up: bool,
    /// Jobs currently in `Failed` state (index; kept in sync by
    /// `fail`/`resubmit`).
    failed_ids: BTreeSet<JobId>,
    next_job: u64,
    stats: LsfStats,
}

impl LsfCluster {
    /// New cluster over the given execution hosts.
    pub fn new(exec_hosts: Vec<ServerId>, job_limit_per_server: u32) -> Self {
        LsfCluster {
            jobs: BTreeMap::new(),
            pending: VecDeque::new(),
            running_on: BTreeMap::new(),
            exec_hosts,
            job_limit_per_server,
            master_up: true,
            failed_ids: BTreeSet::new(),
            next_job: 0,
            stats: LsfStats::default(),
        }
    }

    /// Execution hosts.
    pub fn exec_hosts(&self) -> &[ServerId] {
        &self.exec_hosts
    }

    /// Submit a new job into the queue.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(id, Job::new(id, spec, now));
        self.pending.push_back(id);
        self.stats.submitted += 1;
        id
    }

    /// Resubmit a failed job (a fresh attempt of the same work). Keeps
    /// the attempt/tried-server history so smarter policies can avoid
    /// the machine that just failed. No-op unless the job is `Failed`.
    pub fn resubmit(&mut self, id: JobId) -> bool {
        if let Some(job) = self.jobs.get_mut(&id) {
            if matches!(job.state, JobState::Failed { .. }) {
                job.state = JobState::Pending;
                self.pending.push_back(id);
                self.failed_ids.remove(&id);
                self.stats.resubmitted += 1;
                return true;
            }
        }
        false
    }

    /// Job accessor.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All pending, running and failed jobs (id order); completed jobs
    /// leave the table.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Jobs currently running on `server`.
    pub fn running_on(&self, server: ServerId) -> &[JobId] {
        self.running_on
            .get(&server)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of queued jobs.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Queued job ids, in dispatch order.
    pub fn pending_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.iter().copied()
    }

    /// Ids of jobs currently in `Failed` state (indexed — O(failed),
    /// not O(all jobs ever)).
    pub fn failed_ids(&self) -> Vec<JobId> {
        self.failed_ids.iter().copied().collect()
    }

    /// Counters.
    pub fn stats(&self) -> LsfStats {
        self.stats
    }

    /// The candidate view a selector sees. `db_serving_on` reports
    /// whether the database on a host is currently serving.
    pub fn candidates<'a>(
        &'a self,
        servers: &'a BTreeMap<ServerId, Server>,
        db_serving_on: &'a dyn Fn(ServerId) -> bool,
    ) -> CandidateView<'a> {
        CandidateView::new(
            &self.exec_hosts,
            servers,
            &self.running_on,
            self.job_limit_per_server,
            db_serving_on,
        )
    }

    /// Dispatch pending jobs through `selector`. Each dispatched job
    /// spawns a process on its server (demand flows into the OS model)
    /// and reports an expected completion time inflated by the server's
    /// post-placement CPU saturation.
    ///
    /// Jobs the selector cannot place stay queued, order preserved.
    pub fn dispatch_pending<S, F>(
        &mut self,
        selector: &mut S,
        servers: &mut BTreeMap<ServerId, Server>,
        db_serving_on: F,
        now: SimTime,
    ) -> Vec<Dispatch>
    where
        S: ServerSelector + ?Sized,
        F: Fn(ServerId) -> bool,
    {
        if !self.master_up {
            return Vec::new();
        }
        let mut dispatched = Vec::new();
        let mut still_pending = VecDeque::new();
        while let Some(jid) = self.pending.pop_front() {
            // qoslint::allow(no-panic, jid was drawn from the pending queue)
            let job = self.jobs.get(&jid).expect("pending job exists");
            let view = self.candidates(servers, &db_serving_on);
            let Some(sid) = selector.select(job, &view) else {
                // Acceptability (up/db/slots) is job-independent, so once
                // no candidate accepts jobs every remaining pending job is
                // equally stuck: stop scanning (head-of-line FIFO). Asking
                // the selector first changes nothing, since no selector
                // draws from its RNG when nothing accepts.
                still_pending.push_back(jid);
                if !view.iter().any(|c| c.accepts_jobs()) {
                    still_pending.extend(self.pending.drain(..));
                    break;
                }
                continue;
            };
            // qoslint::allow(no-panic, the selector picks among the candidate servers)
            let srv = servers.get_mut(&sid).expect("candidate server exists");
            // qoslint::allow(no-panic, jid was drawn from the pending queue)
            let job = self.jobs.get_mut(&jid).expect("pending job exists");
            let pid = srv.procs.spawn(
                "lsf_job",
                format!("{} {}", job.spec.kind.tag(), jid),
                job.spec.user.clone(),
                job.spec.cpu_demand,
                job.spec.mem_mb,
                job.spec.io_demand,
                now,
            );
            // Saturation stretches the runtime: a job on a box at
            // 2× capacity takes ~2× longer.
            let stretch = srv.cpu_utilization().max(1.0);
            let runtime = SimDuration::from_secs_f64(job.spec.runtime.as_secs() as f64 * stretch);
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
        }
        self.pending = still_pending;
        dispatched
    }

    /// Complete a running job: removes its process and drops it from
    /// the job table, which holds only pending, running and failed jobs.
    pub fn complete(&mut self, id: JobId, servers: &mut BTreeMap<ServerId, Server>) -> bool {
        let Some(JobState::Running { server, pid, .. }) = self.jobs.get(&id).map(|j| j.state)
        else {
            return false;
        };
        if let Some(srv) = servers.get_mut(&server) {
            srv.procs.kill(pid);
        }
        self.jobs.remove(&id);
        if let Some(v) = self.running_on.get_mut(&server) {
            v.retain(|j| *j != id);
        }
        self.stats.completed += 1;
        true
    }

    /// Fail a running job (db crash, server crash, …); removes its
    /// process if the server still exists.
    pub fn fail(
        &mut self,
        id: JobId,
        reason: FailReason,
        servers: &mut BTreeMap<ServerId, Server>,
        now: SimTime,
    ) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        let JobState::Running { server, pid, .. } = job.state else {
            return false;
        };
        if let Some(srv) = servers.get_mut(&server) {
            srv.procs.kill(pid);
        }
        job.state = JobState::Failed { at: now, reason };
        self.failed_ids.insert(id);
        if let Some(v) = self.running_on.get_mut(&server) {
            v.retain(|j| *j != id);
        }
        self.stats.failed += 1;
        true
    }

    /// Fail every job running on `server` (used when its database or
    /// the machine itself crashes). Returns the failed job ids.
    pub fn fail_all_on(
        &mut self,
        server: ServerId,
        reason: FailReason,
        servers: &mut BTreeMap<ServerId, Server>,
        now: SimTime,
    ) -> Vec<JobId> {
        let ids: Vec<JobId> = self.running_on(server).to_vec();
        for id in &ids {
            self.fail(*id, reason, servers, now);
        }
        ids
    }
}

/// Per-hour probability that a database crashes, as a function of its
/// server's CPU utilisation. Below ~90 % the database is stable; past
/// saturation the hazard climbs steeply — "large database jobs scheduled
/// to run overnight would frequently crash databases".
pub fn db_crash_hazard_per_hour(cpu_utilization: f64) -> f64 {
    let u = cpu_utilization.max(0.0);
    if u <= 0.9 {
        0.0
    } else {
        // Hazard rate (events/hour), capped: 0.9→0, 1.2→0.016,
        // 1.5→0.072, 2.0→0.29 — a persistently 2×-overloaded database
        // survives a few hours at best; calibrated so the year-1
        // scenario produces the paper's ~weekly mid-job crash tempo.
        (0.12 * (u - 0.9).powi(2) * (1.0 + u)).min(0.5)
    }
}

/// Sample whether a database crashes during `dt` at the given
/// utilisation, using the caller's RNG stream.
pub fn db_crash_roll(cpu_utilization: f64, dt: SimDuration, rng: &mut SimRng) -> bool {
    let hazard = db_crash_hazard_per_hour(cpu_utilization);
    if hazard <= 0.0 {
        return false;
    }
    let p = 1.0 - (-hazard * dt.as_hours_f64()).exp();
    rng.chance(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use crate::select::LeastLoadedSelector;
    use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
    use intelliqos_cluster::ids::Site;

    fn make_servers(n: u32) -> BTreeMap<ServerId, Server> {
        (0..n)
            .map(|i| {
                (
                    ServerId(i),
                    Server::new(
                        ServerId(i),
                        format!("db{i:03}"),
                        HardwareSpec::new(ServerModel::SunE4500, 8, 8, 6),
                        Site::new("London", "LDN"),
                    ),
                )
            })
            .collect()
    }

    fn cluster(n: u32) -> LsfCluster {
        LsfCluster::new((0..n).map(ServerId).collect(), 3)
    }

    #[test]
    fn submit_dispatch_complete_lifecycle() {
        let mut servers = make_servers(2);
        let mut lsf = cluster(2);
        let id = lsf.submit(JobSpec::defaults_for(JobKind::Report, "u"), SimTime::ZERO);
        assert_eq!(lsf.pending_count(), 1);
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(lsf.pending_count(), 0);
        let job = lsf.job(id).unwrap();
        assert!(job.is_running());
        // The job's process exists on the chosen server.
        let sid = d[0].server;
        assert_eq!(servers[&sid].procs.live_count("lsf_job"), 1);
        assert!(lsf.complete(id, &mut servers));
        // A completed job leaves the table; the counters remember it.
        assert!(lsf.job(id).is_none());
        assert!(!lsf.complete(id, &mut servers));
        assert_eq!(servers[&sid].procs.live_count("lsf_job"), 0);
        assert_eq!(lsf.stats().completed, 1);
    }

    #[test]
    fn job_table_holds_only_live_jobs() {
        let mut servers = make_servers(2);
        let mut lsf = cluster(2);
        let ids: Vec<JobId> = (0..8)
            .map(|i| {
                let spec = JobSpec::defaults_for(JobKind::Report, format!("u{i}"));
                lsf.submit(spec, SimTime::ZERO)
            })
            .collect();
        // Two hosts with limit 3: six run, two stay pending.
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        assert_eq!(d.len(), 6);
        let failed = lsf.fail_all_on(
            d[0].server,
            FailReason::DbCrash,
            &mut servers,
            SimTime::ZERO,
        );
        for dispatch in &d {
            if !failed.contains(&dispatch.job) {
                assert!(lsf.complete(dispatch.job, &mut servers));
            }
        }
        let live: Vec<JobId> = lsf.jobs().map(|j| j.id).collect();
        let mut expect: Vec<JobId> = failed.iter().chain(&ids[6..]).copied().collect();
        expect.sort();
        assert_eq!(live, expect);
        assert!(lsf
            .jobs()
            .all(|j| j.is_pending() || matches!(j.state, JobState::Failed { .. })));
        assert_eq!(lsf.stats().completed, 6 - failed.len() as u64);
        assert_eq!(lsf.pending_ids().collect::<Vec<_>>(), ids[6..].to_vec());
    }

    #[test]
    fn master_down_blocks_dispatch() {
        let mut servers = make_servers(1);
        let mut lsf = cluster(1);
        lsf.submit(JobSpec::defaults_for(JobKind::Report, "u"), SimTime::ZERO);
        lsf.master_up = false;
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        assert!(d.is_empty());
        assert_eq!(lsf.pending_count(), 1);
        lsf.master_up = true;
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn job_limit_is_enforced() {
        let mut servers = make_servers(1);
        let mut lsf = cluster(1); // limit 3 on a single host
        for _ in 0..5 {
            lsf.submit(JobSpec::defaults_for(JobKind::Report, "u"), SimTime::ZERO);
        }
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        assert_eq!(d.len(), 3);
        assert_eq!(lsf.pending_count(), 2);
        assert_eq!(lsf.running_on(ServerId(0)).len(), 3);
    }

    #[test]
    fn db_down_excludes_host() {
        let mut servers = make_servers(2);
        let mut lsf = cluster(2);
        lsf.submit(JobSpec::defaults_for(JobKind::Report, "u"), SimTime::ZERO);
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |sid| sid != ServerId(0), // db on 0 is down
            SimTime::ZERO,
        );
        assert_eq!(d[0].server, ServerId(1));
    }

    #[test]
    fn fail_all_on_server_and_resubmit() {
        let mut servers = make_servers(1);
        let mut lsf = cluster(1);
        let a = lsf.submit(JobSpec::defaults_for(JobKind::Report, "u"), SimTime::ZERO);
        let b = lsf.submit(JobSpec::defaults_for(JobKind::Report, "v"), SimTime::ZERO);
        lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        let failed = lsf.fail_all_on(
            ServerId(0),
            FailReason::DbCrash,
            &mut servers,
            SimTime::from_mins(10),
        );
        assert_eq!(failed.len(), 2);
        assert_eq!(lsf.stats().failed, 2);
        assert!(matches!(
            lsf.job(a).unwrap().state,
            JobState::Failed {
                reason: FailReason::DbCrash,
                ..
            }
        ));
        // Resubmission puts them back in the queue with history intact.
        assert!(lsf.resubmit(a));
        assert!(lsf.resubmit(b));
        assert!(!lsf.resubmit(a)); // already pending
        assert_eq!(lsf.pending_count(), 2);
        assert_eq!(lsf.job(a).unwrap().tried_servers, vec![ServerId(0)]);
        assert_eq!(lsf.stats().resubmitted, 2);
    }

    #[test]
    fn overload_stretches_expected_runtime() {
        let mut servers = make_servers(1);
        // Pre-load the server to 2× capacity.
        let cap = servers[&ServerId(0)].spec.compute_power();
        servers.get_mut(&ServerId(0)).unwrap().external_cpu_demand = cap * 2.0;
        let mut lsf = cluster(1);
        let spec = JobSpec::defaults_for(JobKind::Report, "u"); // 30 min nominal
        lsf.submit(spec, SimTime::ZERO);
        let d = lsf.dispatch_pending(
            &mut LeastLoadedSelector,
            &mut servers,
            |_| true,
            SimTime::ZERO,
        );
        let end = d[0].expected_end;
        assert!(
            end.as_secs() >= 2 * 30 * 60,
            "expected ≥2× stretch, got end = {end}"
        );
    }

    #[test]
    fn crash_hazard_shape() {
        assert_eq!(db_crash_hazard_per_hour(0.5), 0.0);
        assert_eq!(db_crash_hazard_per_hour(0.9), 0.0);
        let h1 = db_crash_hazard_per_hour(1.0);
        let h15 = db_crash_hazard_per_hour(1.5);
        let h2 = db_crash_hazard_per_hour(2.0);
        assert!(h1 > 0.0 && h1 < 0.01, "h(1.0) = {h1}");
        assert!(h15 > h1);
        assert!(h2 > h15);
        assert!(h2 <= 0.5);
    }

    #[test]
    fn crash_roll_statistics() {
        let mut rng = SimRng::stream(5, "crash");
        // At u = 1.5 for 1 hour, p ≈ 1 - exp(-0.47) ≈ 0.37.
        let n = 10_000;
        let hits = (0..n)
            .filter(|_| db_crash_roll(1.5, SimDuration::from_hours(1), &mut rng))
            .count();
        let p = hits as f64 / n as f64;
        let expect = 1.0 - (-db_crash_hazard_per_hour(1.5)).exp();
        assert!((p - expect).abs() < 0.03, "p = {p}, expect = {expect}");
        // Never crashes when idle.
        assert!(!(0..1000).any(|_| db_crash_roll(0.5, SimDuration::from_hours(24), &mut rng)));
    }

    #[test]
    fn complete_on_non_running_job_is_false() {
        let mut servers = make_servers(1);
        let mut lsf = cluster(1);
        let id = lsf.submit(JobSpec::defaults_for(JobKind::Report, "u"), SimTime::ZERO);
        assert!(!lsf.complete(id, &mut servers)); // still pending
        assert!(!lsf.fail(id, FailReason::Killed, &mut servers, SimTime::ZERO));
    }
}
