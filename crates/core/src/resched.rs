//! DGSPL-guided job (re)scheduling.
//!
//! §4: "If jobs failed, intelliagents residing on the administration
//! servers resubmitted them not based on the manual LSF settings and
//! rules for job submissions, but based on the dynamically generated
//! DGSPs … their selection process would 'prefer' first a server of the
//! same model with more CPUs and memory." This module implements that
//! policy as an [`ServerSelector`] so it plugs into the same dispatch
//! path as the manual and random baselines.

use std::collections::BTreeMap;

use intelliqos_cluster::ids::ServerId;

use intelliqos_lsf::job::Job;
use intelliqos_lsf::select::{CandidateView, ServerSelector};

use intelliqos_ontology::dgspl::Dgspl;

/// Selector driven by the latest DGSPL shortlist.
///
/// The DGSPL is regenerated every ~15 minutes, so its load picture can
/// be stale — that is the realistic imperfection the paper accepts. The
/// candidate view still vetoes servers that are down, databaseless,
/// or at their job limit *right now* (the LSF layer knows that much), so
/// staleness costs placement quality, not correctness.
pub struct DgsplSelector {
    /// Latest global profile list; `None` until the first one arrives.
    dgspl: Option<Dgspl>,
    /// Hostname → server id mapping (DGSPLs speak hostnames).
    host_ids: BTreeMap<String, ServerId>,
    /// Application-type prefix jobs run against (`db-` covers both
    /// database engines).
    app_type: String,
    /// Optional hardware floor from the SLKT of a failed server:
    /// `(model, power, ram_gb)`. When set, only equal-or-higher-power
    /// candidates are considered, same model preferred.
    replacement_floor: Option<(String, f64, u32)>,
}

impl DgsplSelector {
    /// New selector with no DGSPL yet: it selects nothing until the
    /// first [`DgsplSelector::update`].
    pub fn new(host_ids: BTreeMap<String, ServerId>, app_type: impl Into<String>) -> Self {
        DgsplSelector {
            dgspl: None,
            host_ids,
            app_type: app_type.into(),
            replacement_floor: None,
        }
    }

    /// Replace the DGSPL snapshot (called after each regeneration).
    pub fn update(&mut self, dgspl: Dgspl) {
        self.dgspl = Some(dgspl);
    }

    /// The DGSPL snapshot currently driving selection, if any.
    pub fn current(&self) -> Option<&Dgspl> {
        self.dgspl.as_ref()
    }

    /// Set the SLKT power floor for resubmitting work off a failed
    /// server.
    pub fn set_replacement_floor(&mut self, model: impl Into<String>, power: f64, ram_gb: u32) {
        self.replacement_floor = Some((model.into(), power, ram_gb));
    }

    /// Clear the power floor (ordinary submissions).
    pub fn clear_replacement_floor(&mut self) {
        self.replacement_floor = None;
    }

    /// Age of the DGSPL snapshot in seconds at `now_secs` (with none
    /// yet, the time since the epoch).
    pub fn staleness_secs(&self, now_secs: u64) -> u64 {
        now_secs.saturating_sub(self.dgspl.as_ref().map_or(0, |d| d.generated_at_secs))
    }
}

impl ServerSelector for DgsplSelector {
    fn select(&mut self, job: &Job, candidates: &CandidateView<'_>) -> Option<ServerId> {
        let dgspl = self.dgspl.as_ref()?;
        let pred = |e: &intelliqos_ontology::dgspl::DgsplEntry| {
            e.app_type.starts_with(self.app_type.as_str())
        };
        let shortlist = match &self.replacement_floor {
            Some((model, power, ram)) => dgspl.replacement_shortlist_by(pred, model, *power, *ram),
            None => dgspl.shortlist_by(pred),
        };
        // Walk the shortlist best-first; take the first entry whose
        // server currently accepts jobs.
        for entry in shortlist {
            let Some(&sid) = self.host_ids.get(&entry.hostname) else {
                continue;
            };
            // On resubmission, avoid the servers this job already
            // crashed on — knowledge the manual/random baselines lack.
            if job.attempts > 0 && job.tried_servers.contains(&sid) {
                continue;
            }
            if candidates.find(sid).is_some_and(|c| c.accepts_jobs()) {
                return Some(sid);
            }
        }
        // DGSPL exhausted (or a hard floor excluded everything): the
        // paper's agents email a human in that case; dispatch-wise the
        // job stays queued.
        None
    }

    fn name(&self) -> &'static str {
        "dgspl-shortlist"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_cluster::hardware::ServerModel;
    use intelliqos_cluster::ids::Site;
    use intelliqos_cluster::server::Server;
    use intelliqos_lsf::job::{JobId, JobKind, JobSpec};
    use intelliqos_ontology::dgspl::DgsplEntry;
    use intelliqos_simkern::SimTime;

    fn entry(host: &str, model: &str, power: f64, ram: u32, load: f64) -> DgsplEntry {
        DgsplEntry {
            hostname: host.into(),
            server_type: model.into(),
            os: "Solaris".into(),
            ram_gb: ram,
            cpus: 8,
            compute_power: power,
            app_type: "db-oracle".into(),
            version: "8.1.7".into(),
            load,
            users: 0,
            location: "London".into(),
            site: "LDN".into(),
            service: format!("db-{host}"),
        }
    }

    /// Hosts `0..running.len()` with `running[i]` jobs each (limit 4);
    /// the database serves everywhere but on `db_down`.
    struct Hosts {
        ids: Vec<ServerId>,
        servers: BTreeMap<ServerId, Server>,
        running: BTreeMap<ServerId, Vec<JobId>>,
        db_down: Option<ServerId>,
    }

    fn hosts(running: &[usize]) -> Hosts {
        let ids: Vec<ServerId> = (0..running.len() as u32).map(ServerId).collect();
        let servers = ids
            .iter()
            .map(|&sid| {
                let spec = ServerModel::SunE4500.default_spec();
                (
                    sid,
                    Server::new(sid, sid.to_string(), spec, Site::new("L", "L")),
                )
            })
            .collect();
        let running = ids
            .iter()
            .zip(running)
            .map(|(&sid, &n)| (sid, vec![JobId(0); n]))
            .collect();
        Hosts {
            ids,
            servers,
            running,
            db_down: None,
        }
    }

    impl Hosts {
        fn select(&self, sel: &mut DgsplSelector, job: &Job) -> Option<ServerId> {
            let db = |sid: ServerId| self.db_down != Some(sid);
            let view = CandidateView::new(&self.ids, &self.servers, &self.running, 4, &db);
            sel.select(job, &view)
        }
    }

    fn selector(entries: Vec<DgsplEntry>) -> DgsplSelector {
        let host_ids: BTreeMap<String, ServerId> = vec![
            ("a".to_string(), ServerId(0)),
            ("b".to_string(), ServerId(1)),
            ("c".to_string(), ServerId(2)),
        ]
        .into_iter()
        .collect();
        let mut sel = DgsplSelector::new(host_ids, "db-oracle");
        sel.update(Dgspl {
            generated_at_secs: 0,
            entries,
        });
        sel
    }

    fn job() -> Job {
        Job::new(
            JobId(0),
            JobSpec::defaults_for(JobKind::DataMining, "analyst01"),
            SimTime::ZERO,
        )
    }

    #[test]
    fn picks_best_shortlist_entry() {
        let mut sel = selector(vec![
            entry("a", "Sun-E4500", 7.2, 8, 0.9),
            entry("b", "Sun-E4500", 7.2, 8, 0.1), // least loaded → best
            entry("c", "Sun-E4500", 7.2, 8, 0.5),
        ]);
        assert_eq!(
            hosts(&[0, 0, 0]).select(&mut sel, &job()),
            Some(ServerId(1))
        );
    }

    #[test]
    fn skips_best_entry_when_it_no_longer_accepts() {
        let mut sel = selector(vec![
            entry("a", "Sun-E4500", 7.2, 8, 0.9),
            entry("b", "Sun-E4500", 7.2, 8, 0.1),
        ]);
        // b is at its job limit right now despite the rosy DGSPL view.
        assert_eq!(hosts(&[0, 4]).select(&mut sel, &job()), Some(ServerId(0)));
    }

    #[test]
    fn replacement_floor_prefers_same_model_with_more_power() {
        let mut sel = selector(vec![
            entry("a", "Sun-E10000", 32.0, 32, 0.05), // other model, huge, idle
            entry("b", "Sun-E4500", 10.8, 16, 0.5),   // same model, bigger
            entry("c", "Sun-E4500", 3.6, 4, 0.3),     // same model, too small
        ]);
        sel.set_replacement_floor("Sun-E4500", 7.2, 8);
        let h = hosts(&[0, 0, 0]);
        // Same-model-with-more-resources wins over the idler E10K.
        assert_eq!(h.select(&mut sel, &job()), Some(ServerId(1)));
        sel.clear_replacement_floor();
        // Without the floor, plain best-first (load) applies: the E10K.
        assert_eq!(h.select(&mut sel, &job()), Some(ServerId(0)));
    }

    #[test]
    fn unknown_hosts_in_dgspl_are_skipped() {
        let mut sel = selector(vec![entry("ghost-host", "Sun-E4500", 7.2, 8, 0.0)]);
        assert_eq!(hosts(&[0]).select(&mut sel, &job()), None);
    }

    #[test]
    fn exhausted_shortlist_returns_none() {
        let mut sel = selector(vec![entry("a", "Sun-E4500", 7.2, 8, 0.2)]);
        let mut h = hosts(&[0]);
        h.db_down = Some(ServerId(0));
        assert_eq!(h.select(&mut sel, &job()), None);
    }

    #[test]
    fn no_dgspl_selects_nothing() {
        let mut sel = DgsplSelector::new(BTreeMap::new(), "db-oracle");
        assert!(sel.current().is_none());
        assert_eq!(hosts(&[0]).select(&mut sel, &job()), None);
    }

    #[test]
    fn staleness_and_update() {
        let mut sel = selector(vec![]);
        assert_eq!(sel.staleness_secs(900), 900);
        sel.update(Dgspl {
            generated_at_secs: 800,
            entries: vec![],
        });
        assert_eq!(sel.staleness_secs(900), 100);
        assert_eq!(sel.name(), "dgspl-shortlist");
    }
}
