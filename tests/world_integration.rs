//! Cross-crate integration tests: whole-datacenter scenarios exercising
//! the agents, the admin pair, the network fabric, and the batch tier
//! together.

use intelliqos::cluster::FaultCategory;
use intelliqos::core::World;
use intelliqos::prelude::*;
use intelliqos_simkern::{SimDuration, SimTime};

fn small(seed: u64, mode: ManagementMode) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(seed, mode);
    cfg.horizon = SimDuration::from_days(14);
    cfg
}

#[test]
fn paired_experiment_agents_win_across_seeds() {
    for seed in [1, 2, 3] {
        let before = run_scenario(small(seed, ManagementMode::ManualOps));
        let after = run_scenario(small(seed, ManagementMode::Intelliagents));
        assert!(
            before.total_downtime_hours > after.total_downtime_hours,
            "seed {seed}: manual {:.1}h vs agents {:.1}h",
            before.total_downtime_hours,
            after.total_downtime_hours
        );
        // Jobs complete at least as well with agents.
        assert!(after.lsf.completed >= before.lsf.completed * 95 / 100);
    }
}

#[test]
fn agents_automate_the_vast_majority_of_repairs() {
    let report = run_scenario(small(5, ManagementMode::Intelliagents));
    let total: u64 = report.categories.values().map(|t| t.incidents).sum();
    assert!(total > 0);
    // Every category the paper calls agent-healable heals automatically.
    // FW/NW and hardware stay manual ("our software was unable to take
    // care of firewall/network and hardware related errors"), and the
    // performance category contains obscure slowdowns agents only flag.
    for cat in [
        FaultCategory::MidJobDbCrash,
        FaultCategory::HumanError,
        FaultCategory::FrontEndError,
        FaultCategory::LsfError,
        FaultCategory::ServiceUnavailable,
    ] {
        if let Some(t) = report.categories.get(&cat) {
            assert_eq!(
                t.incidents, t.auto_repaired,
                "{cat}: {} incidents but only {} auto-repaired",
                t.incidents, t.auto_repaired
            );
        }
    }
}

#[test]
fn notifications_flow_to_humans_in_agent_mode() {
    let report = run_scenario(small(5, ManagementMode::Intelliagents));
    // Agents page on escalations and threshold breaches; two weeks of a
    // faulty datacenter produces at least some traffic.
    assert!(report.notifications > 0);
}

#[test]
fn dgspl_is_regenerated_and_fresh() {
    let cfg = small(5, ManagementMode::Intelliagents);
    let mut w = World::build(cfg);
    w.run_until(SimTime::from_days(1));
    let dgspl = w.dgspl().expect("DGSPL generated");
    // Regenerated within the last two periods (15 min each).
    let age = w.now().as_secs() - dgspl.generated_at_secs;
    assert!(age <= 2 * 15 * 60, "DGSPL age {age}s");
    // Every running database appears.
    assert!(!dgspl.entries.is_empty());
    assert!(dgspl
        .entries
        .iter()
        .any(|e| e.app_type == "db-oracle" || e.app_type == "db-sybase"));
}

#[test]
fn admin_shared_pool_holds_profiles_for_every_up_server() {
    let cfg = small(5, ManagementMode::Intelliagents);
    let mut w = World::build(cfg);
    w.run_until(SimTime::from_days(1));
    // 14 monitored servers (8 db + 3 tx + 3 fe); admins don't profile
    // themselves in this implementation.
    assert!(
        w.admin.dlsp_count() >= 10,
        "only {} DLSPs",
        w.admin.dlsp_count()
    );
    assert!(w.admin.shared_pool.list("/pool/dlsp").len() >= 10);
    // The pooled list is the one the rescheduler selects from.
    let pooled = w.admin.shared_pool.read("/pool/dgspl/current.dgspl");
    assert_eq!(
        pooled.unwrap().lines,
        w.dgspl().expect("DGSPL generated").to_doc().to_lines()
    );
}

#[test]
fn flags_exist_and_are_fresh_on_every_monitored_server() {
    let cfg = small(5, ManagementMode::Intelliagents);
    let mut w = World::build(cfg);
    w.run_until(SimTime::from_hours(6));
    let now = w.now();
    let mut checked = 0;
    for server in w.servers.values() {
        if !server.is_up() {
            continue;
        }
        let last = intelliqos::core::flags::last_run_secs(&server.fs, "intelliagent_service");
        if let Some(t) = last {
            // Fresh within X+5 minutes (the admin's own criterion).
            assert!(
                now.as_secs() - t <= 10 * 60,
                "stale flag on {}",
                server.hostname
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "flags found on only {checked} servers");
}

#[test]
fn agents_keep_their_flag_trees_bounded() {
    // A quiet site: with no injected faults, only the agents' own
    // bookkeeping writes files, and each run clears its previous flags.
    let mut cfg = small(5, ManagementMode::Intelliagents);
    cfg.fault_rates = cfg.fault_rates.scaled(0.0);
    let mut w = World::build(cfg);
    let files_per_host =
        |w: &World| -> Vec<usize> { w.servers.values().map(|s| s.fs.list("/").len()).collect() };
    w.run_until(SimTime::from_days(2));
    let day2 = files_per_host(&w);
    w.run_until(SimTime::from_days(3));
    for server in w.servers.values() {
        let perf = intelliqos::core::flags::read_flags(&server.fs, "intelliagent_perf");
        assert!(
            perf.len() <= 1,
            "{}: {} perf flags",
            server.hostname,
            perf.len()
        );
    }
    assert_eq!(files_per_host(&w), day2);
}

#[test]
fn manual_mode_runs_no_agents() {
    let cfg = small(5, ManagementMode::ManualOps);
    let mut w = World::build(cfg);
    w.run_until(SimTime::from_days(2));
    for server in w.servers.values() {
        assert!(
            intelliqos::core::flags::last_run_secs(&server.fs, "intelliagent_service").is_none(),
            "agent flag found in manual mode on {}",
            server.hostname
        );
    }
    assert!(w.dgspl().is_none());
}

#[test]
fn year1_detection_is_slow_year2_detection_is_fast() {
    // Run longer so mid-crash incidents accumulate.
    let mut cfg = small(8, ManagementMode::ManualOps);
    cfg.horizon = SimDuration::from_days(28);
    let before = run_scenario(cfg);
    let mut cfg = small(8, ManagementMode::Intelliagents);
    cfg.horizon = SimDuration::from_days(28);
    let after = run_scenario(cfg);
    let b = before.mean_detection_hours(FaultCategory::MidJobDbCrash);
    let a = after.mean_detection_hours(FaultCategory::MidJobDbCrash);
    if before
        .categories
        .get(&FaultCategory::MidJobDbCrash)
        .map(|t| t.incidents)
        .unwrap_or(0)
        > 2
        && after
            .categories
            .get(&FaultCategory::MidJobDbCrash)
            .map(|t| t.incidents)
            .unwrap_or(0)
            > 2
    {
        assert!(b > 1.0, "manual detection {b:.2}h should be hours");
        assert!(a < 0.2, "agent detection {a:.2}h should be ≤ one sweep");
    }
}

#[test]
fn determinism_full_world_state() {
    let a = run_scenario(small(9, ManagementMode::Intelliagents));
    let b = run_scenario(small(9, ManagementMode::Intelliagents));
    assert_eq!(a.total_downtime_hours, b.total_downtime_hours);
    assert_eq!(a.incidents, b.incidents);
    assert_eq!(a.notifications, b.notifications);
    assert_eq!(a.lsf, b.lsf);
    assert_eq!(a.db_crashes, b.db_crashes);
}

#[test]
fn different_seeds_differ() {
    let a = run_scenario(small(10, ManagementMode::Intelliagents));
    let b = run_scenario(small(11, ManagementMode::Intelliagents));
    // Astronomically unlikely to coincide exactly.
    assert!(
        a.lsf.submitted != b.lsf.submitted
            || a.total_downtime_hours != b.total_downtime_hours
            || a.incidents != b.incidents
    );
}

#[test]
fn detect_only_agents_page_but_do_not_heal() {
    let mut cfg = small(12, ManagementMode::Intelliagents);
    cfg.agent_parts = intelliqos::core::AgentParts::detect_only();
    let report = run_scenario(cfg);
    let auto: u64 = report.categories.values().map(|t| t.auto_repaired).sum();
    // Healing disabled: nothing is auto-repaired by service/os agents.
    // (Admin-side crontab repair also counts as auto but requires the
    // healing path; accept a tiny number.)
    assert!(auto <= 2, "auto = {auto}");
    assert!(report.notifications > 0);
}

#[test]
fn resched_policies_are_all_runnable() {
    for policy in [
        ReschedPolicy::Dgspl,
        ReschedPolicy::Random,
        ReschedPolicy::ManualSticky,
    ] {
        let mut cfg = small(13, ManagementMode::Intelliagents);
        cfg.resched = policy;
        let report = run_scenario(cfg);
        assert!(report.lsf.completed > 0);
    }
}

#[test]
fn ontologies_installed_and_perf_agents_collect() {
    let cfg = small(5, ManagementMode::Intelliagents);
    let mut w = World::build(cfg);
    // SLKTs on every server's disk at install time.
    for server in w.servers.values() {
        let path = intelliqos::core::ontogen::slkt_path(&server.hostname);
        assert!(
            server.fs.exists(&path),
            "missing SLKT on {}",
            server.hostname
        );
    }
    // ISSL chunks in the admin pool (site fits one list).
    assert_eq!(w.admin.shared_pool.list("/pool/issl").len(), 1);
    // Performance agents produce circular measurement files + flags.
    w.run_until(SimTime::from_hours(6));
    let report = w.report(SimTime::from_hours(6));
    let mut perf_files = 0;
    for server in w.servers.values() {
        if server
            .fs
            .exists(&format!("/logs/perf/{}/os", server.hostname))
        {
            perf_files += 1;
        }
    }
    assert!(
        perf_files >= 10,
        "perf archives on only {perf_files} servers"
    );
    // Six hours of a faulty site typically breaches something, but at
    // minimum the counter plumbing must be alive (non-panicking).
    let _ = report.threshold_breaches;
}
