//! Administration servers.
//!
//! §3.1: "Dedicated administration servers that act as external agent
//! coordinators in a high-availability failover configuration and share
//! a common pool of NFS mounted disks, to avoid single points of
//! failure." They:
//!
//! * watch flag creation every X+5 minutes and troubleshoot agents whose
//!   flags stop appearing (§3.3);
//! * collect DLSPs into the shared pool and generate DGSPLs (~every
//!   15 minutes, §4);
//! * drive DGSPL-guided resubmission of failed batch jobs (§4).

use std::collections::BTreeMap;

use intelliqos_simkern::{SimDuration, SimTime};

use intelliqos_cluster::fs::SimFs;
use intelliqos_cluster::ids::ServerId;
use intelliqos_cluster::server::Server;

use intelliqos_ontology::dgspl::Dgspl;
use intelliqos_ontology::dlsp::Dlsp;

use crate::agents::AgentKind;
use crate::flags;

/// Where a host's latest DLSP lives in the shared pool.
pub(crate) fn pool_dlsp_path(hostname: &str) -> String {
    format!("/pool/dlsp/{hostname}.dlsp")
}

/// The HA pair of administration servers plus their shared NFS pool.
#[derive(Debug, Clone)]
pub struct AdminPair {
    /// Primary coordinator.
    pub primary: ServerId,
    /// Standby coordinator.
    pub standby: ServerId,
    /// The common pool of NFS-mounted disks. DLSPs and DGSPLs persist
    /// here so a failover loses nothing.
    pub shared_pool: SimFs,
    /// Latest profile per hostname (the in-memory index over the pool).
    dlsps: BTreeMap<String, Dlsp>,
}

impl AdminPair {
    /// New pair with an empty pool.
    pub fn new(primary: ServerId, standby: ServerId) -> Self {
        let mut shared_pool = SimFs::new();
        shared_pool.add_mount("/", 8 * 1024 * 1024 * 1024);
        AdminPair {
            primary,
            standby,
            shared_pool,
            dlsps: BTreeMap::new(),
        }
    }

    /// Which admin server is acting right now: the primary if it is up,
    /// else the standby (failover), else none — coordination is lost
    /// while both are down, though local agents keep healing locally.
    pub fn acting(&self, servers: &BTreeMap<ServerId, Server>) -> Option<ServerId> {
        let up = |id: ServerId| servers.get(&id).map(|s| s.is_up()).unwrap_or(false);
        if up(self.primary) {
            Some(self.primary)
        } else if up(self.standby) {
            Some(self.standby)
        } else {
            None
        }
    }

    /// Ingest a DLSP shipped over the agent network: index it and
    /// persist `lines`, the profile's file as the status agent rendered
    /// it, in the shared pool.
    pub fn ingest_dlsp(&mut self, dlsp: Dlsp, lines: Vec<String>, now: SimTime) {
        let _ = self
            .shared_pool
            .write(pool_dlsp_path(&dlsp.hostname), lines, now);
        match self.dlsps.get_mut(&dlsp.hostname) {
            Some(slot) => *slot = dlsp,
            None => {
                self.dlsps.insert(dlsp.hostname.clone(), dlsp);
            }
        }
    }

    /// Latest profile for a host.
    pub fn dlsp_of(&self, hostname: &str) -> Option<&Dlsp> {
        self.dlsps.get(hostname)
    }

    /// Number of indexed profiles.
    pub fn dlsp_count(&self) -> usize {
        self.dlsps.len()
    }

    /// Hosts whose latest profile is older than `max_age` at `now` —
    /// either the host is down or its status agent stopped running.
    pub fn stale_hosts(&self, now: SimTime, max_age: SimDuration) -> Vec<&str> {
        self.dlsps
            .values()
            .filter(|d| d.age_secs(now.as_secs()) > max_age.as_secs())
            .map(|d| d.hostname.as_str())
            .collect()
    }

    /// Generate the DGSPL from profiles no older than `max_age`,
    /// persisting it to the shared pool. `power_of(model, cpus)` maps a
    /// model string to total compute power.
    pub fn generate_dgspl<F>(&mut self, now: SimTime, max_age: SimDuration, power_of: F) -> Dgspl
    where
        F: Fn(&str, u32) -> f64,
    {
        let fresh = self
            .dlsps
            .values()
            .filter(|d| d.age_secs(now.as_secs()) <= max_age.as_secs());
        let dgspl = Dgspl::from_dlsps(fresh, now.as_secs(), power_of);
        let _ = self
            .shared_pool
            .write("/pool/dgspl/current.dgspl", dgspl.to_lines(), now);
        dgspl
    }

    /// Flag monitoring (§3.3): for each monitored server, find agents
    /// whose newest flag is older than `max_age` — "If these flags are
    /// not there, they start troubleshooting intelliagent processes."
    /// Returns `(server, agent name, last flag secs)` tuples; `None`
    /// last-run means the agent never produced a flag at all.
    pub fn missing_flags(
        &self,
        servers: &BTreeMap<ServerId, Server>,
        monitored: &[ServerId],
        now: SimTime,
        max_age: SimDuration,
    ) -> Vec<(ServerId, AgentKind, Option<u64>)> {
        let mut out = Vec::new();
        for &sid in monitored {
            let Some(server) = servers.get(&sid) else {
                continue;
            };
            if !server.is_up() {
                continue; // a dead host is a different problem
            }
            for kind in AgentKind::ALL {
                let last = flags::last_run_secs(&server.fs, kind.name());
                let stale = match last {
                    Some(t) => now.as_secs().saturating_sub(t) > max_age.as_secs(),
                    None => true,
                };
                if stale {
                    out.push((sid, kind, last));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
    use intelliqos_cluster::ids::Site;
    use intelliqos_ontology::dlsp::DlspService;

    fn server(id: u32) -> Server {
        Server::new(
            ServerId(id),
            format!("host{id:03}"),
            HardwareSpec::new(ServerModel::SunE450, 4, 4, 4),
            Site::new("London", "LDN"),
        )
    }

    fn dlsp(host: &str, at: u64, status: &str) -> Dlsp {
        Dlsp {
            hostname: host.into(),
            generated_at_secs: at,
            model: "Sun-E4500".into(),
            os: "Solaris".into(),
            cpus: 8,
            ram_gb: 8,
            load_score: 0.2,
            free_mem_mb: 4096.0,
            cpu_idle_pct: 80.0,
            users: 1,
            location: "London".into(),
            site: "LDN".into(),
            services: vec![DlspService {
                name: format!("db-{host}"),
                app_type: "db-oracle".into(),
                version: "8.1.7".into(),
                status: status.into(),
                latency_ms: Some(100.0),
            }],
        }
    }

    fn ingest(pair: &mut AdminPair, d: Dlsp, now: SimTime) {
        let lines = d.to_lines();
        pair.ingest_dlsp(d, lines, now);
    }

    #[test]
    fn failover_logic() {
        let mut servers: BTreeMap<ServerId, Server> = BTreeMap::new();
        servers.insert(ServerId(100), server(100));
        servers.insert(ServerId(101), server(101));
        let pair = AdminPair::new(ServerId(100), ServerId(101));
        assert_eq!(pair.acting(&servers), Some(ServerId(100)));
        servers.get_mut(&ServerId(100)).unwrap().crash();
        assert_eq!(pair.acting(&servers), Some(ServerId(101)));
        servers.get_mut(&ServerId(101)).unwrap().crash();
        assert_eq!(pair.acting(&servers), None);
    }

    #[test]
    fn dlsp_ingest_and_shared_pool_persistence() {
        let mut pair = AdminPair::new(ServerId(100), ServerId(101));
        ingest(
            &mut pair,
            dlsp("db001", 900, "running"),
            SimTime::from_mins(15),
        );
        ingest(
            &mut pair,
            dlsp("db001", 1800, "running"),
            SimTime::from_mins(30),
        );
        assert_eq!(pair.dlsp_count(), 1); // replaced, not accumulated
        assert_eq!(pair.dlsp_of("db001").unwrap().generated_at_secs, 1800);
        // Pool file survives (failover durability).
        assert!(pair.shared_pool.exists("/pool/dlsp/db001.dlsp"));
    }

    #[test]
    fn stale_host_detection() {
        let mut pair = AdminPair::new(ServerId(100), ServerId(101));
        ingest(
            &mut pair,
            dlsp("fresh", 1800, "running"),
            SimTime::from_mins(30),
        );
        ingest(&mut pair, dlsp("stale", 0, "running"), SimTime::ZERO);
        let stale = pair.stale_hosts(SimTime::from_mins(30), SimDuration::from_mins(10));
        assert_eq!(stale, vec!["stale"]);
    }

    #[test]
    fn dgspl_generation_filters_stale_and_persists() {
        let mut pair = AdminPair::new(ServerId(100), ServerId(101));
        ingest(
            &mut pair,
            dlsp("fresh", 1700, "running"),
            SimTime::from_mins(30),
        );
        ingest(&mut pair, dlsp("stale", 0, "running"), SimTime::ZERO);
        ingest(
            &mut pair,
            dlsp("dead-db", 1750, "refused"),
            SimTime::from_mins(30),
        );
        let dg = pair.generate_dgspl(
            SimTime::from_mins(30),
            SimDuration::from_mins(20),
            |_, c| c as f64,
        );
        // Only the fresh host with a running database appears.
        assert_eq!(dg.entries.len(), 1);
        assert_eq!(dg.entries[0].hostname, "fresh");
        let file = pair.shared_pool.read("/pool/dgspl/current.dgspl").unwrap();
        assert_eq!(Dgspl::parse_text(&file.lines.join("\n")).unwrap(), dg);
    }

    #[test]
    fn missing_flags_found() {
        let mut servers: BTreeMap<ServerId, Server> = BTreeMap::new();
        servers.insert(ServerId(0), server(0));
        servers.insert(ServerId(1), server(1));
        // Server 0 has a fresh service-agent flag; server 1 has nothing.
        {
            let s = servers.get_mut(&ServerId(0)).unwrap();
            flags::write_flag(
                &mut s.fs,
                AgentKind::Service.name(),
                flags::FlagOutcome::Ok,
                None,
                SimTime::from_mins(28),
            )
            .unwrap();
        }
        let pair = AdminPair::new(ServerId(100), ServerId(101));
        let missing = pair.missing_flags(
            &servers,
            &[ServerId(0), ServerId(1)],
            SimTime::from_mins(30),
            SimDuration::from_mins(10),
        );
        // Server 0: 5 stale agents (all but Service). Server 1: all 6.
        let s0: Vec<_> = missing
            .iter()
            .filter(|(s, _, _)| *s == ServerId(0))
            .collect();
        let s1: Vec<_> = missing
            .iter()
            .filter(|(s, _, _)| *s == ServerId(1))
            .collect();
        assert_eq!(s0.len(), 5);
        assert_eq!(s1.len(), 6);
        assert!(s0.iter().all(|(_, k, _)| *k != AgentKind::Service));
    }

    #[test]
    fn dead_servers_are_skipped_in_flag_checks() {
        let mut servers: BTreeMap<ServerId, Server> = BTreeMap::new();
        servers.insert(ServerId(0), server(0));
        servers.get_mut(&ServerId(0)).unwrap().crash();
        let pair = AdminPair::new(ServerId(100), ServerId(101));
        let missing = pair.missing_flags(
            &servers,
            &[ServerId(0)],
            SimTime::from_mins(30),
            SimDuration::from_mins(10),
        );
        assert!(missing.is_empty());
    }
}
