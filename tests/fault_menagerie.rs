//! The full fault menagerie, end-to-end: inject each mechanism into a
//! live world and verify the agent layer detects, heals (or escalates),
//! and accounts it under the right Figure 2 category.
//!
//! These tests drive the public `World` API only: they disable the
//! random exogenous tape (zero rates) so each test owns its fault.

use intelliqos::cluster::{FaultCategory, FaultRates};
use intelliqos::core::World;
use intelliqos::prelude::*;
use intelliqos_cluster::hardware::{ComponentHealth, HardwareComponent};
use intelliqos_cluster::ids::ServerId;
use intelliqos_simkern::{SimDuration, SimTime};

/// A quiet world: no exogenous faults, light workload, agents on.
fn quiet_world(seed: u64) -> World {
    let mut cfg = ScenarioConfig::small(seed, ManagementMode::Intelliagents);
    cfg.horizon = SimDuration::from_days(3);
    cfg.fault_rates = FaultRates {
        human_per_year: 0.0,
        performance_per_year: 0.0,
        front_end_per_year: 0.0,
        lsf_per_year: 0.0,
        firewall_network_per_year: 0.0,
        service_unavailable_per_year: 0.0,
        hardware_per_year: 0.0,
        latent_fraction: 0.0,
        complex_fraction: 0.0,
    };
    cfg.workload.day_rate_per_hour = 0.5;
    cfg.workload.night_rate_per_hour = 0.5;
    cfg.workload.weekend_rate_per_hour = 0.5;
    let mut w = World::build(cfg);
    // Let everything come up.
    w.run_until(SimTime::from_hours(1));
    w
}

#[test]
fn crashed_database_is_restarted_within_one_sweep_plus_recovery() {
    let mut w = quiet_world(1);
    let db_server = ServerId(0);
    let svc = w.registry.ids_on_server(db_server)[0];
    {
        let server = w.servers.get_mut(&db_server).unwrap();
        w.registry.get_mut(svc).unwrap().crash(server);
    }
    let crash_time = w.now();
    w.run_until(crash_time + SimDuration::from_hours(2));
    assert!(
        w.registry.get(svc).unwrap().status.is_serving(),
        "database not restarted: {:?}",
        w.registry.get(svc).unwrap().status
    );
    // Restart count incremented (initial start + agent restart).
    assert!(w.registry.get(svc).unwrap().restarts >= 2);
}

#[test]
fn hung_front_end_is_bounced() {
    let mut w = quiet_world(2);
    // Find a front-end service.
    let fe = w
        .registry
        .iter()
        .find(|s| s.spec.kind == ServiceKind::FrontEnd)
        .map(|s| s.id)
        .expect("front end deployed");
    w.registry.get_mut(fe).unwrap().hang();
    let t = w.now();
    w.run_until(t + SimDuration::from_mins(30));
    assert!(w.registry.get(fe).unwrap().status.is_serving());
}

#[test]
fn degraded_cpu_is_offlined_proactively() {
    let mut w = quiet_world(3);
    let sid = ServerId(1);
    w.servers.get_mut(&sid).unwrap().set_component_health(
        HardwareComponent::Cpu,
        0,
        ComponentHealth::Degraded,
    );
    let t = w.now();
    w.run_until(t + SimDuration::from_mins(15));
    let server = &w.servers[&sid];
    assert_eq!(
        server.degraded_count(HardwareComponent::Cpu),
        0,
        "CPU still degraded"
    );
    assert_eq!(
        server.failed_count(HardwareComponent::Cpu),
        1,
        "CPU not offlined"
    );
    assert!(server.effective_spec().cpus < server.spec.cpus);
}

#[test]
fn runaway_process_is_killed_by_os_agent() {
    let mut w = quiet_world(4);
    let sid = ServerId(2);
    {
        let server = w.servers.get_mut(&sid).unwrap();
        let cap = server.effective_spec().compute_power();
        server.procs.spawn(
            "runaway",
            "spin",
            "app",
            cap * 1.3,
            64.0,
            0.0,
            SimTime::from_hours(1),
        );
    }
    let t = w.now();
    w.run_until(t + SimDuration::from_mins(15));
    assert_eq!(w.servers[&sid].procs.live_count("runaway"), 0);
}

#[test]
fn private_network_outage_reroutes_agent_traffic() {
    let mut w = quiet_world(5);
    let private = w
        .fabric
        .segments_of(intelliqos::cluster::SegmentKind::PrivateAgent)[0];
    w.fabric.set_segment_up(private, false);
    let t = w.now();
    // DLSPs keep flowing (over the public LAN) — the DGSPL stays fresh.
    w.run_until(t + SimDuration::from_hours(1));
    let dgspl = w.dgspl().expect("DGSPL still generated");
    assert!(
        w.now().as_secs() - dgspl.generated_at_secs <= 2 * 15 * 60,
        "DGSPL stale during private-LAN outage"
    );
    // Public segments carried the traffic.
    let public_util: f64 = w
        .fabric
        .segments_of(intelliqos::cluster::SegmentKind::Public)
        .iter()
        .map(|&s| w.fabric.segment(s).unwrap().mean_utilization())
        .sum();
    assert!(public_util > 0.0);
}

#[test]
fn lsf_master_crash_stops_dispatch_until_agent_restart() {
    let mut w = quiet_world(6);
    let master = w
        .registry
        .iter()
        .find(|s| s.spec.kind == ServiceKind::LsfMaster)
        .map(|s| (s.id, s.server))
        .expect("master deployed");
    {
        let server = w.servers.get_mut(&master.1).unwrap();
        w.registry.get_mut(master.0).unwrap().crash(server);
    }
    w.lsf.master_up = false;
    let t = w.now();
    w.run_until(t + SimDuration::from_mins(30));
    // Agent restarted the master and the world resynced the flag.
    assert!(w.registry.get(master.0).unwrap().status.is_serving());
    assert!(w.lsf.master_up);
}

#[test]
fn whole_run_accounts_under_correct_categories() {
    // Use the ordinary faulty world and check category consistency: no
    // incident lands in MidJobDbCrash unless db crashes happened, etc.
    let mut cfg = ScenarioConfig::small(7, ManagementMode::Intelliagents);
    cfg.horizon = SimDuration::from_days(21);
    let report = run_scenario(cfg);
    let mid = report.categories.get(&FaultCategory::MidJobDbCrash);
    if let Some(t) = mid {
        assert!(report.db_crashes >= t.incidents);
    }
    // Downtime rows cover all eight categories, Figure 2 order.
    assert_eq!(report.downtime_hours.len(), 8);
    assert_eq!(report.downtime_hours[0].0, FaultCategory::MidJobDbCrash);
    assert_eq!(report.downtime_hours[7].0, FaultCategory::Hardware);
}
