//! Batch rescheduling: why DGSPL-guided resubmission beats the users'
//! manual habits.
//!
//! Recreates §4's LSF story in miniature: analysts submit jobs to their
//! favourite database servers regardless of load; overloaded databases
//! crash mid-job; the policies differ in where the *failed* jobs go
//! next. The DGSPL shortlist ("best choice always first", same-model
//! power ordering from the SLKT) avoids both the crashed box and the
//! already-hot ones.
//!
//! ```text
//! cargo run --release --example batch_rescheduling
//! ```

use std::collections::BTreeMap;

use intelliqos::cluster::{Server, ServerModel};
use intelliqos::lsf::{FailReason, LeastLoadedSelector, ManualStickySelector};
use intelliqos::ontology::Dgspl;
use intelliqos::prelude::*;
use intelliqos_cluster::ids::{ServerId, Site};
use intelliqos_core::DgsplSelector;
use intelliqos_ontology::dlsp::{Dlsp, DlspService};

fn make_servers() -> BTreeMap<ServerId, Server> {
    // Six E4500s and two big E10Ks.
    (0..8u32)
        .map(|i| {
            let model = if i < 6 {
                ServerModel::SunE4500
            } else {
                ServerModel::SunE10k
            };
            (
                ServerId(i),
                Server::new(
                    ServerId(i),
                    format!("db{i:03}"),
                    model.default_spec(),
                    Site::new("London", "LDN-DC1"),
                ),
            )
        })
        .collect()
}

/// Build the DGSPL an admin server would generate from DLSPs.
fn dgspl_of(servers: &BTreeMap<ServerId, Server>) -> Dgspl {
    let dlsps: Vec<Dlsp> = servers
        .values()
        .map(|s| Dlsp {
            hostname: s.hostname.clone(),
            generated_at_secs: 0,
            model: s.spec.model.to_string(),
            os: s.os().to_string(),
            cpus: s.spec.cpus,
            ram_gb: s.spec.ram_gb,
            load_score: s.cpu_utilization().min(1.5),
            free_mem_mb: 1024.0,
            cpu_idle_pct: 100.0 * (1.0 - s.cpu_utilization()).max(0.0),
            users: 0,
            location: s.site.location.clone(),
            site: s.site.name.clone(),
            services: vec![DlspService {
                name: format!("db-{}", s.hostname),
                app_type: "db-oracle".into(),
                version: "8.1.7".into(),
                status: "running".into(),
                latency_ms: Some(100.0),
            }],
        })
        .collect();
    Dgspl::from_dlsps(&dlsps, 0, |model, cpus| {
        ServerModel::ALL
            .iter()
            .find(|m| m.to_string() == model)
            .map(|m| m.cpu_power() * cpus as f64)
            .unwrap_or(1.0)
    })
}

fn run_policy(policy: &str) -> (u64, u64) {
    let mut servers = make_servers();
    let mut lsf = LsfCluster::new(servers.keys().copied().collect(), 3);
    let mut rng = SimRng::stream(9, "resched");
    let mut manual = ManualStickySelector::new(SimRng::stream(9, "manual"));
    let host_ids: BTreeMap<String, ServerId> = servers
        .values()
        .map(|s| (s.hostname.clone(), s.id))
        .collect();
    let mut dgspl_sel = DgsplSelector::new(host_ids, "db-oracle");

    // Twenty analysts slam the cluster with oversized mining runs.
    let mut now = SimTime::ZERO;
    for round in 0..48u64 {
        now = SimTime::from_mins(round * 30);
        for a in 0..6 {
            let mut spec = JobSpec::defaults_for(
                JobKind::DataMining,
                format!("analyst{:02}", (round + a) % 20),
            );
            spec.cpu_demand *= 1.6; // quarter-end crunch
            lsf.submit(spec, now);
        }
        // Initial submissions always follow user habit.
        lsf.dispatch_pending(&mut manual, &mut servers, |_| true, now);

        // Overloaded databases crash; their jobs fail.
        let crashed: Vec<ServerId> = servers
            .values()
            .filter(|s| {
                !lsf.running_on(s.id).is_empty()
                    && intelliqos::lsf::db_crash_roll(
                        s.cpu_utilization(),
                        SimDuration::from_mins(30),
                        &mut rng,
                    )
            })
            .map(|s| s.id)
            .collect();
        for sid in crashed {
            lsf.fail_all_on(sid, FailReason::DbCrash, &mut servers, now);
        }

        // Resubmit the failed jobs under the policy being compared.
        for id in lsf.failed_ids() {
            lsf.resubmit(id);
        }
        dgspl_sel.update(dgspl_of(&servers)); // fresh 15-minute snapshot
        match policy {
            "dgspl" => {
                lsf.dispatch_pending(&mut dgspl_sel, &mut servers, |_| true, now);
            }
            "manual" => {
                lsf.dispatch_pending(&mut manual, &mut servers, |_| true, now);
            }
            "least-loaded" => {
                lsf.dispatch_pending(&mut LeastLoadedSelector, &mut servers, |_| true, now);
            }
            _ => unreachable!(),
        }

        // Jobs that survived an hour complete (abbreviated runtimes
        // keep the example quick).
        let done: Vec<_> = lsf
            .jobs()
            .filter(|j| j.is_running() && now.since(j.submitted) >= SimDuration::from_mins(60))
            .map(|j| j.id)
            .collect();
        for id in done {
            lsf.complete(id, &mut servers);
        }
    }
    let _ = now;
    (lsf.stats().completed, lsf.stats().failed)
}

fn main() {
    println!("resubmission policy comparison (same workload, same crash model):\n");
    println!(
        "{:<14} {:>10} {:>10} {:>14}",
        "policy", "completed", "failures", "fail/complete"
    );
    for policy in ["manual", "dgspl", "least-loaded"] {
        let (completed, failed) = run_policy(policy);
        println!(
            "{policy:<14} {completed:>10} {failed:>10} {:>14.3}",
            failed as f64 / completed.max(1) as f64
        );
    }
    println!(
        "\nThe DGSPL shortlist avoids the machine that just crashed and the\n\
         already-hot favourites, so resubmitted work stops re-crashing — the\n\
         paper's 345 h -> 8 h mid-crash reduction in miniature."
    );
}
