//! ABL-PARTS — ablation of the five agent parts.
//!
//! §3.3: "Each of the five intelliagent parts can get activated or
//! deactivated either during installation or subsequently." This
//! harness runs the same year with parts progressively disabled to show
//! what each stage buys: monitoring off (blind), diagnosing off (sees
//! but can't conclude), healing off (detect-and-page only), and the
//! full pipeline.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin abl_agent_parts [--seed N] [--days N]
//! ```

use intelliqos_bench::{banner, emit_run_evidence, maybe_build_evdb, run_world, HarnessOpts};
use intelliqos_core::{AgentParts, ManagementMode, ScenarioReport, World};

fn main() {
    let opts = HarnessOpts::parse(21, &[]);
    banner("ABL-PARTS", "which of the five agent parts buys what");
    println!("seed={} horizon={}d per variant\n", opts.seed, opts.days);

    let variants: Vec<(&str, &str, AgentParts)> = vec![
        ("all parts", "all-parts", AgentParts::all()),
        (
            "healing off",
            "healing-off",
            AgentParts {
                healing: false,
                ..AgentParts::all()
            },
        ),
        (
            "diagnosing off",
            "diagnosing-off",
            AgentParts {
                diagnosing: false,
                healing: false,
                ..AgentParts::all()
            },
        ),
        (
            "monitoring off",
            "monitoring-off",
            AgentParts {
                monitoring: false,
                ..AgentParts::all()
            },
        ),
    ];

    let mut runs: Vec<(&str, &str, World, ScenarioReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = variants
            .iter()
            .map(|(name, label, parts)| {
                let mut cfg = opts.site(ManagementMode::Intelliagents);
                cfg.agent_parts = *parts;
                let (name, label) = (*name, *label);
                let opts = opts.clone();
                s.spawn(move || {
                    let (world, report) = run_world(&opts, cfg);
                    (name, label, world, report)
                })
            })
            .collect();
        handles
            .into_iter()
            // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
            .map(|h| h.join().expect("run"))
            .collect()
    });
    // Manual baseline for reference.
    {
        let (world, report) = run_world(&opts, opts.site(ManagementMode::ManualOps));
        runs.push(("(manual ops)", "manual", world, report));
    }
    for (_, label, world, _) in &runs {
        emit_run_evidence(&opts, "abl_agent_parts", label, world);
    }
    maybe_build_evdb(&opts);
    let results: Vec<(&str, &ScenarioReport)> = runs.iter().map(|(n, _, _, r)| (*n, r)).collect();

    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>14}",
        "variant", "downtime h", "incidents", "auto-fix", "notifications"
    );
    for (name, r) in &results {
        let auto: u64 = r.categories.values().map(|t| t.auto_repaired).sum();
        println!(
            "{:<16} {:>12.1} {:>10} {:>10} {:>14}",
            name, r.total_downtime_hours, r.incidents, auto, r.notifications
        );
    }
    println!(
        "\nreading: healing is where the downtime reduction lives; with it\n\
         off, fast detection still helps (humans get paged within one\n\
         sweep instead of the 1–25 h console windows), and with\n\
         monitoring off the agent layer contributes nothing at all."
    );
}
