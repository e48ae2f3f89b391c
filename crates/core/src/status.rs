//! The **status intelliagent**: DLSP generation.
//!
//! §3.4: "Each local server in the datacentre is responsible for
//! 'knowing' and taking care of its own resources and services. Its
//! local status intelliagent is 'awakened' by the Unix cron and compiles
//! dynamically its local DLSP." The profile is written both to the local
//! disk and (by the world driver) shipped to the administration servers'
//! shared pool over the private agent network.

use intelliqos_simkern::{SimRng, SimTime};

use intelliqos_cluster::server::Server;

use intelliqos_ontology::dlsp::{Dlsp, DlspService};

use intelliqos_services::probe::{probe, ProbeResult};
use intelliqos_services::registry::ServiceRegistry;

use crate::agents::AgentKind;
use crate::flags::{clear_flags, write_flag, FlagOutcome};

/// Where a server's freshest DLSP lives on its local disk.
pub fn dlsp_path(hostname: &str) -> String {
    format!("/logs/intelliagents/dlsp/{hostname}.dlsp")
}

/// Compile the DLSP for one server: observe the OS, probe every hosted
/// service, and write the flat-ASCII profile to the local disk. Returns
/// the profile with the lines of its file, rendered once, for shipping
/// to the administration servers' pool.
pub fn run_status_agent(
    server: &mut Server,
    registry: &ServiceRegistry,
    rng: &mut SimRng,
    now: SimTime,
) -> (Dlsp, Vec<String>) {
    clear_flags(&mut server.fs, AgentKind::Status.name());
    let obs = server.observe(rng);
    let (load_score, free_mem_mb, cpu_idle_pct) = match &obs {
        Some(o) => (o.load_score(), o.free_mem_mb, o.cpu_idle_pct),
        None => (1.5, 0.0, 0.0), // a dead box profiles as fully loaded
    };
    let mut services = Vec::new();
    for svc in registry.on_server(server.id) {
        let result = probe(svc, server, rng);
        let (status, latency_ms) = match result {
            ProbeResult::Ok { latency_ms } => ("running", Some(latency_ms)),
            ProbeResult::Timeout => ("timeout", None),
            ProbeResult::ConnectionRefused => ("refused", None),
            ProbeResult::QueryError => ("query-error", None),
        };
        services.push(DlspService {
            name: svc.spec.name.clone(),
            app_type: svc.spec.kind.type_str().to_string(),
            version: svc.spec.version.clone(),
            status: status.to_string(),
            latency_ms,
        });
    }
    let spec = server.effective_spec();
    let dlsp = Dlsp {
        hostname: server.hostname.clone(),
        generated_at_secs: now.as_secs(),
        model: spec.model.name().to_string(),
        os: server.os().to_string(),
        cpus: spec.cpus,
        ram_gb: spec.ram_gb,
        load_score,
        free_mem_mb,
        cpu_idle_pct,
        users: server.users_logged_in,
        location: server.site.location.clone(),
        site: server.site.name.clone(),
        services,
    };
    // Self-maintenance: replace the previous profile ("removes … old
    // local dynamic service profiles").
    let lines = dlsp.to_lines();
    let _ = server
        .fs
        .write(dlsp_path(&server.hostname), lines.clone(), now);
    let all_ok = dlsp.all_services_running();
    let _ = write_flag(
        &mut server.fs,
        AgentKind::Status.name(),
        if all_ok {
            FlagOutcome::Ok
        } else {
            FlagOutcome::FaultDetected
        },
        None,
        now,
    );
    (dlsp, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::{pool_dlsp_path, AdminPair};
    use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
    use intelliqos_cluster::ids::{ServerId, Site};
    use intelliqos_services::spec::{DbEngine, ServiceSpec};

    fn setup() -> (Server, ServiceRegistry) {
        let mut server = Server::new(
            ServerId(0),
            "db000",
            HardwareSpec::new(ServerModel::SunE4500, 8, 8, 6),
            Site::new("London", "LDN-DC1"),
        );
        server.users_logged_in = 4;
        let mut reg = ServiceRegistry::new();
        let id = reg.deploy(
            ServiceSpec::database("trades-db", DbEngine::Oracle),
            ServerId(0),
        );
        reg.start(id, &mut server, SimTime::ZERO).unwrap();
        reg.complete_pending_starts(SimTime::from_secs(1600));
        (server, reg)
    }

    #[test]
    fn dlsp_reflects_healthy_host() {
        let (mut server, reg) = setup();
        let mut rng = SimRng::stream(2, "status");
        let (dlsp, _) = run_status_agent(&mut server, &reg, &mut rng, SimTime::from_mins(15));
        assert_eq!(dlsp.hostname, "db000");
        assert_eq!(dlsp.generated_at_secs, 900);
        assert_eq!(dlsp.users, 4);
        assert_eq!(dlsp.services.len(), 1);
        assert!(dlsp.all_services_running());
        assert!(dlsp.services[0].latency_ms.is_some());
        assert_eq!(dlsp.site, "LDN-DC1");
        // Profile written to the local disk in the flat format.
        let file = server.fs.read(&dlsp_path("db000")).unwrap();
        let parsed = Dlsp::parse_text(&file.lines.join("\n")).unwrap();
        assert_eq!(parsed.hostname, "db000");
    }

    #[test]
    fn dlsp_reports_faulted_services() {
        let (mut server, mut reg) = setup();
        let id = reg.ids_on_server(ServerId(0))[0];
        reg.get_mut(id).unwrap().hang();
        let mut rng = SimRng::stream(2, "status");
        let (dlsp, _) = run_status_agent(&mut server, &reg, &mut rng, SimTime::from_mins(15));
        assert_eq!(dlsp.services[0].status, "timeout");
        assert!(!dlsp.all_services_running());
        let flags = crate::flags::read_flags(&server.fs, "intelliagent_status");
        assert_eq!(flags[0].outcome, FlagOutcome::FaultDetected);
    }

    #[test]
    fn profile_is_replaced_not_accumulated() {
        let (mut server, reg) = setup();
        let mut rng = SimRng::stream(2, "status");
        run_status_agent(&mut server, &reg, &mut rng, SimTime::from_mins(15));
        run_status_agent(&mut server, &reg, &mut rng, SimTime::from_mins(30));
        let files = server.fs.list("/logs/intelliagents/dlsp");
        assert_eq!(files.len(), 1);
        let file = server.fs.read(&dlsp_path("db000")).unwrap();
        let parsed = Dlsp::parse_text(&file.lines.join("\n")).unwrap();
        assert_eq!(parsed.generated_at_secs, 1800);
    }

    #[test]
    fn pool_copy_equals_the_local_profile() {
        let (mut server, reg) = setup();
        let mut pair = AdminPair::new(ServerId(100), ServerId(101));
        let mut rng = SimRng::stream(2, "status");
        for mins in [15, 30] {
            let now = SimTime::from_mins(mins);
            let (dlsp, lines) = run_status_agent(&mut server, &reg, &mut rng, now);
            pair.ingest_dlsp(dlsp, lines, now);
            let local = &server.fs.read(&dlsp_path("db000")).unwrap().lines;
            let pooled = &pair.shared_pool.read(&pool_dlsp_path("db000")).unwrap();
            assert_eq!(&pooled.lines, local);
            assert_eq!(pooled.modified_at, now);
            assert_eq!(local, &pair.dlsp_of("db000").unwrap().to_doc().to_lines());
        }
    }

    #[test]
    fn dead_host_profiles_as_loaded() {
        let (mut server, reg) = setup();
        server.crash();
        let mut rng = SimRng::stream(2, "status");
        // (In reality no agent runs on a dead host; the world driver
        // skips them. The function itself must still be total.)
        let (dlsp, _) = run_status_agent(&mut server, &reg, &mut rng, SimTime::from_mins(15));
        assert_eq!(dlsp.load_score, 1.5);
        assert_eq!(dlsp.services[0].status, "timeout");
    }
}
