//! T-RESCHED — in-text claim: DGSPL-guided resubmission vs alternatives.
//!
//! Paper: resubmitting failed jobs "not based on the manual LSF settings
//! … but based on the dynamically generated DGSPs" — even random
//! reselection "although not ideal, significantly decreased downtime
//! from database crashes in the middle of a job". Three agent-mode runs
//! on the same tapes differ only in the resubmission policy.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin tbl_reschedule_policy [--seed N] [--days N]
//! ```

use intelliqos_bench::{banner, emit_run_evidence, maybe_build_evdb, run_world, HarnessOpts};
use intelliqos_cluster::faults::FaultCategory;
use intelliqos_core::{ManagementMode, ReschedPolicy, ScenarioReport, World};

fn main() {
    let opts = HarnessOpts::parse(21, &[]);
    banner(
        "T-RESCHED",
        "failed-job resubmission policy comparison (agents mode)",
    );
    println!(
        "seed={} horizon={}d — same fault/workload tapes per run\n",
        opts.seed, opts.days
    );

    let policies = [
        ("dgspl-shortlist", ReschedPolicy::Dgspl),
        ("random", ReschedPolicy::Random),
        ("manual-sticky", ReschedPolicy::ManualSticky),
    ];
    let runs: Vec<(&str, World, ScenarioReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = policies
            .iter()
            .map(|(name, policy)| {
                let mut cfg = opts.site(ManagementMode::Intelliagents);
                cfg.resched = *policy;
                let opts = opts.clone();
                s.spawn(move || {
                    let (world, report) = run_world(&opts, cfg);
                    (*name, world, report)
                })
            })
            .collect();
        handles
            .into_iter()
            // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
            .map(|h| h.join().expect("run"))
            .collect()
    });
    for (name, world, _) in &runs {
        emit_run_evidence(&opts, "tbl_reschedule_policy", name, world);
    }
    maybe_build_evdb(&opts);
    let reports: Vec<(&str, &ScenarioReport)> = runs.iter().map(|(n, _, r)| (*n, r)).collect();

    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "policy", "mid-crash h", "db crashes", "job fails", "resubmits", "completed"
    );
    for (name, r) in &reports {
        println!(
            "{:<18} {:>12.1} {:>12} {:>12} {:>12} {:>12}",
            name,
            r.hours(FaultCategory::MidJobDbCrash),
            r.db_crashes,
            r.lsf.failed,
            r.lsf.resubmitted,
            r.lsf.completed,
        );
    }
    let dgspl = &reports[0].1;
    let manual = &reports[2].1;
    println!(
        "\ndgspl vs manual-sticky: {:.0}% of the mid-crash downtime, {:.0}% of the crashes",
        100.0 * dgspl.hours(FaultCategory::MidJobDbCrash)
            / manual.hours(FaultCategory::MidJobDbCrash).max(0.01),
        100.0 * dgspl.db_crashes as f64 / manual.db_crashes.max(1) as f64,
    );
}
