//! FIG2 — Figure 2: downtime hours by error category, the year before
//! vs the year after intelliagents.
//!
//! Runs the full 215-server financial site for one simulated year twice
//! on the **same fault and workload tapes** (same seed): once under
//! manual operations (BMC-Patrol-style notify-only monitoring + human
//! repair), once with the intelliagent layer. The two runs execute on
//! parallel threads.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin fig2_downtime \
//!     [--seed N] [--days N | --full] [--profile] [--trace] [--scope all|service|client]
//! ```
//!
//! With `--profile`/`--trace`, each run's self-measurement evidence
//! (ledger + trace + profile) lands under `results/evidence/`, and
//! `--profile` additionally drops the machine-readable bin summary at
//! `results/BENCH_fig2.json`. The paper comparison tables always count
//! every failure class (that is what Figure 2 measured); the extra
//! scoped section restricts the bins to the `--scope` failure classes
//! so actionable service-fault downtime can be read off separately.

use intelliqos_bench::{
    banner, emit_run_evidence, maybe_build_evdb, row, HarnessOpts, FIG2_YEAR1, FIG2_YEAR1_TOTAL,
    FIG2_YEAR2, FIG2_YEAR2_TOTAL,
};
use intelliqos_cluster::faults::FaultCategory;
use intelliqos_core::{ManagementMode, World};

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Write the machine-readable bin summary (`results/BENCH_fig2.json`):
/// annualised hours per category for both runs, all-class next to the
/// `--scope` restriction, validated before it touches disk.
fn write_bench_json(
    opts: &HarnessOpts,
    before_world: &World,
    after_world: &World,
    k: f64,
) -> Result<std::path::PathBuf, String> {
    let all_b = before_world.ledger.figure2_rows();
    let all_a = after_world.ledger.figure2_rows();
    let sc_b = before_world.ledger.figure2_rows_scoped(opts.scope);
    let sc_a = after_world.ledger.figure2_rows_scoped(opts.scope);
    let mut bins = String::new();
    for (i, cat) in FaultCategory::ALL.iter().enumerate() {
        if i > 0 {
            bins.push_str(",\n");
        }
        bins.push_str(&format!(
            "    {{\"category\": {}, \"manual_h\": {:.4}, \"agents_h\": {:.4}, \
             \"manual_scoped_h\": {:.4}, \"agents_scoped_h\": {:.4}}}",
            json_str(cat.label()),
            all_b[i].1 * k,
            all_a[i].1 * k,
            sc_b[i].1 * k,
            sc_a[i].1 * k
        ));
    }
    let total = |rows: &[(FaultCategory, f64)]| rows.iter().map(|(_, h)| h).sum::<f64>() * k;
    let json = format!(
        "{{\n  \"report\": \"bench_fig2\",\n  \"seed\": {},\n  \"days\": {},\n  \
         \"scope\": {},\n  \"paper_year1_total_h\": {FIG2_YEAR1_TOTAL},\n  \
         \"paper_year2_total_h\": {FIG2_YEAR2_TOTAL},\n  \
         \"manual_total_h\": {:.4},\n  \"agents_total_h\": {:.4},\n  \
         \"manual_scoped_total_h\": {:.4},\n  \"agents_scoped_total_h\": {:.4},\n  \
         \"bins\": [\n{bins}\n  ]\n}}\n",
        opts.seed,
        opts.days,
        json_str(&opts.scope.to_string()),
        total(&all_b),
        total(&all_a),
        total(&sc_b),
        total(&sc_a)
    );
    intelliqos_core::jsonv::parse(&json).map_err(|e| format!("BENCH_fig2: invalid JSON: {e}"))?;
    let path = std::path::Path::new("results").join("BENCH_fig2.json");
    std::fs::create_dir_all("results").map_err(|e| format!("create results: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let opts = HarnessOpts::parse(365, &[]);
    banner(
        "FIG2",
        "downtime by error category, year before vs year after (paired tapes)",
    );
    println!("seed={} horizon={}d\n", opts.seed, opts.days);

    // Both years on parallel threads — the simulations are independent.
    let run = |mode| {
        let mut world = opts.instrument(World::build(opts.site(mode)));
        let report = world.run_to_end();
        (world, report)
    };
    let ((before_world, before), (after_world, after)) = std::thread::scope(|s| {
        let b = s.spawn(|| run(ManagementMode::ManualOps));
        let a = s.spawn(|| run(ManagementMode::Intelliagents));
        // qoslint::allow(no-panic, join propagates a worker panic; nothing to recover)
        (b.join().expect("manual run"), a.join().expect("agent run"))
    });

    let k = opts.annualize();
    println!("--- year 1 (manual operations) ---");
    for (i, cat) in FaultCategory::ALL.iter().enumerate() {
        println!(
            "{}",
            row(cat.label(), FIG2_YEAR1[i], before.hours(*cat) * k, "h")
        );
    }
    println!(
        "{}\n",
        row(
            "TOTAL",
            FIG2_YEAR1_TOTAL,
            before.total_downtime_hours * k,
            "h"
        )
    );

    println!("--- year 2 (intelliagents) ---");
    for (i, cat) in FaultCategory::ALL.iter().enumerate() {
        println!(
            "{}",
            row(cat.label(), FIG2_YEAR2[i], after.hours(*cat) * k, "h")
        );
    }
    println!(
        "{}",
        row(
            "TOTAL (claimed)",
            FIG2_YEAR2_TOTAL,
            after.total_downtime_hours * k,
            "h"
        )
    );
    println!("(note: the paper's year-2 categories sum to 39 h against its claimed 31 h total)\n");

    let reduction = before.total_downtime_hours / after.total_downtime_hours.max(0.01);
    let paper_reduction = FIG2_YEAR1_TOTAL / FIG2_YEAR2_TOTAL;
    println!("--- headline ---");
    println!(
        "{}",
        row("downtime reduction", paper_reduction, reduction, "x")
    );
    println!(
        "db mid-job crashes: {} (manual) vs {} (agents); auto-repaired incidents: {}",
        before.db_crashes,
        after.db_crashes,
        after
            .categories
            .values()
            .map(|t| t.auto_repaired)
            .sum::<u64>()
    );
    println!(
        "incidents: {} vs {}; open at horizon: {} vs {}",
        before.incidents, after.incidents, before.open_incidents, after.open_incidents
    );

    println!("\n--- bins restricted to scope {} ---", opts.scope);
    let sc_before = before_world.ledger.figure2_rows_scoped(opts.scope);
    let sc_after = after_world.ledger.figure2_rows_scoped(opts.scope);
    println!("{:<18} {:>12} {:>12}", "category", "manual(h)", "agents(h)");
    for (i, cat) in FaultCategory::ALL.iter().enumerate() {
        println!(
            "{:<18} {:>12.2} {:>12.2}",
            cat.label(),
            sc_before[i].1 * k,
            sc_after[i].1 * k
        );
    }
    let sum = |rows: &[(FaultCategory, f64)]| rows.iter().map(|(_, h)| h).sum::<f64>() * k;
    println!(
        "{:<18} {:>12.2} {:>12.2}",
        "TOTAL",
        sum(&sc_before),
        sum(&sc_after)
    );

    emit_run_evidence(&opts, "fig2_downtime", "manual", &before_world);
    emit_run_evidence(&opts, "fig2_downtime", "agents", &after_world);
    if opts.profile {
        match write_bench_json(&opts, &before_world, &after_world, k) {
            Ok(path) => println!("bench: {}", path.display()),
            Err(e) => {
                eprintln!("bench FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    maybe_build_evdb(&opts);
}
