//! Generating the static ontologies from a built datacenter.
//!
//! The paper maintains ISSLs by hand ("manually updated", ≤200 entries
//! each) and writes one SLKT per server describing its should-be state.
//! When the world is built we materialise both: ISSL chunks into the
//! administration servers' shared pool, and each server's SLKT onto its
//! own disk under the agent install path — which is also where a human
//! operator would look for them.

use intelliqos_cluster::server::Server;
use intelliqos_ontology::issl::{Issl, IsslEntry, ISSL_MAX_ENTRIES};
use intelliqos_ontology::slkt::{Slkt, SlktApp, SlktHardware};
use intelliqos_services::registry::ServiceRegistry;

use crate::flags::AGENT_INSTALL_PATH;

/// Build the ISSL set for a datacenter: entries in hostname order,
/// chunked to the paper's 200-entry cap (a site larger than 200 hosts
/// simply maintains several lists).
pub fn generate_issls<'a, I>(servers: I, registry: &ServiceRegistry) -> Vec<Issl>
where
    I: Iterator<Item = &'a Server>,
{
    let mut lists = vec![Issl::new()];
    for (i, server) in servers.enumerate() {
        let entry = IsslEntry {
            hostname: server.hostname.clone(),
            ip: format!("10.0.{}.{}", server.id.0 / 256, server.id.0 % 256),
            services: registry
                .on_server(server.id)
                .map(|s| s.spec.name.clone())
                .collect(),
        };
        if i > 0 && i % ISSL_MAX_ENTRIES == 0 {
            lists.push(Issl::new());
        }
        lists
            .last_mut()
            // qoslint::allow(no-panic, lists starts non-empty and only grows)
            .expect("at least one list")
            .add(entry)
            // qoslint::allow(no-panic, the rotation above keeps the tail list under ISSL_MAX_ENTRIES)
            .expect("chunking keeps lists under the cap");
    }
    lists
}

/// Build the SLKT describing one server's should-be state from the
/// deployed service specs.
pub fn generate_slkt(server: &Server, registry: &ServiceRegistry) -> Slkt {
    Slkt {
        hostname: server.hostname.clone(),
        ip: format!("10.0.{}.{}", server.id.0 / 256, server.id.0 % 256),
        hardware: SlktHardware {
            model: server.spec.model.to_string(),
            cpus: server.spec.cpus,
            ram_gb: server.spec.ram_gb,
            disks: server.spec.disks,
        },
        apps: registry
            .on_server(server.id)
            .map(|svc| SlktApp {
                name: svc.spec.name.clone(),
                app_type: svc.spec.kind.type_str().to_string(),
                version: svc.spec.version.clone(),
                binary_path: svc.spec.binary_path.clone(),
                port: svc.spec.port,
                processes: svc
                    .spec
                    .processes
                    .iter()
                    .map(|p| (p.name.clone(), p.count))
                    .collect(),
                startup_sequence: svc
                    .spec
                    .startup
                    .iter()
                    .map(|s| s.component.clone())
                    .collect(),
                depends_on: svc.spec.depends_on.clone(),
                mounts: svc.spec.required_mounts.clone(),
                connect_timeout_secs: svc.spec.connect_timeout.as_secs() as u32,
            })
            .collect(),
    }
}

/// Path of a server's SLKT file on its own disk.
pub fn slkt_path(hostname: &str) -> String {
    format!("{AGENT_INSTALL_PATH}/slkt/{hostname}.slkt")
}

/// Write the server's SLKT onto its disk (done once at install time)
/// and return it.
pub fn install_slkt(server: &mut Server, registry: &ServiceRegistry) -> Slkt {
    let slkt = generate_slkt(server, registry);
    let lines = slkt.to_doc().to_lines();
    let _ = server.fs.write(
        slkt_path(&server.hostname),
        lines,
        intelliqos_simkern::SimTime::ZERO,
    );
    slkt
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
    use intelliqos_cluster::ids::{ServerId, Site};
    use intelliqos_services::spec::{DbEngine, ServiceSpec};

    fn site(n: u32) -> (Vec<Server>, ServiceRegistry) {
        let mut servers = Vec::new();
        let mut reg = ServiceRegistry::new();
        for i in 0..n {
            let s = Server::new(
                ServerId(i),
                format!("db{i:03}"),
                HardwareSpec::new(ServerModel::SunE4500, 8, 8, 6),
                Site::new("London", "LDN"),
            );
            reg.deploy(
                ServiceSpec::database(format!("trades-db-{i}"), DbEngine::Oracle),
                s.id,
            );
            servers.push(s);
        }
        (servers, reg)
    }

    #[test]
    fn issl_chunks_respect_the_200_entry_cap() {
        let (servers, reg) = site(450);
        let lists = generate_issls(servers.iter(), &reg);
        assert_eq!(lists.len(), 3); // 200 + 200 + 50
        assert_eq!(lists[0].len(), 200);
        assert_eq!(lists[1].len(), 200);
        assert_eq!(lists[2].len(), 50);
        // Entries carry the services.
        assert_eq!(
            lists[0].entries()[0].services,
            vec!["trades-db-0".to_string()]
        );
        // Round-trips through the flat format.
        let text = lists[0].to_doc().to_text();
        assert_eq!(Issl::parse_text(&text).unwrap(), lists[0]);
    }

    #[test]
    fn small_site_fits_one_issl() {
        let (servers, reg) = site(42);
        let lists = generate_issls(servers.iter(), &reg);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].len(), 42);
    }

    #[test]
    fn slkt_mirrors_the_deployed_spec() {
        let (mut servers, reg) = site(1);
        let slkt = generate_slkt(&servers[0], &reg);
        assert_eq!(slkt.hostname, "db000");
        assert_eq!(slkt.hardware.cpus, 8);
        let app = slkt.app("trades-db-0").expect("app present");
        assert_eq!(app.app_type, "db-oracle");
        assert_eq!(app.processes.len(), 3);
        assert_eq!(
            app.startup_sequence,
            vec!["listener", "instance", "recovery"]
        );
        assert_eq!(app.connect_timeout_secs, 30);
        // Install writes the flat file onto the server's own disk.
        install_slkt(&mut servers[0], &reg);
        let file = servers[0].fs.read(&slkt_path("db000")).unwrap();
        let parsed = Slkt::parse_text(&file.lines.join("\n")).unwrap();
        assert_eq!(parsed, slkt);
    }
}
