//! T-MTTR — in-text table: repair time after detection.
//!
//! Paper: "It could take up to 2 hours at a time for a service or
//! server restart … The whole troubleshooting procedure (and subsequent
//! downtime) could take an average of 4 hours in such cases" (multiple
//! experts). With agents, a restart completes within one sweep plus the
//! application's startup sequence.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin tbl_mttr [--seed N] [--days N]
//! ```

use intelliqos_baseline::ManualRepairModel;
use intelliqos_bench::{banner, row, run_paired_site, HarnessOpts, MTTR_COMPLEX_H, MTTR_SIMPLE_H};
use intelliqos_cluster::faults::{Complexity, FaultCategory};
use intelliqos_simkern::SimRng;

fn main() {
    let opts = HarnessOpts::parse(21, &[]);
    banner(
        "T-MTTR",
        "repair time: human pipeline vs agent self-healing",
    );

    // -- part 1: the manual repair model --------------------------------
    let model = ManualRepairModel::default();
    let mut rng = SimRng::stream(opts.seed, "tmttr");
    let n = 20_000;
    let mean = |c: Complexity, rng: &mut SimRng| -> f64 {
        (0..n)
            .map(|_| model.sample_repair(c, rng).as_hours_f64())
            .sum::<f64>()
            / n as f64
    };
    println!("--- manual repair model ({n} samples each) ---");
    println!(
        "{}",
        row(
            "simple (1 admin)",
            MTTR_SIMPLE_H,
            mean(Complexity::Simple, &mut rng),
            "h"
        )
    );
    println!(
        "{}",
        row(
            "complex (experts)",
            MTTR_COMPLEX_H,
            mean(Complexity::Complex, &mut rng),
            "h"
        )
    );

    // -- part 2: measured repair times inside full scenarios -------------
    println!(
        "\n--- measured repair (detected -> restored), {}d, seed {} ---",
        opts.days, opts.seed
    );
    let (before, after) = run_paired_site(&opts, "tbl_mttr");

    println!(
        "{:<18} {:>14} {:>14}",
        "category", "manual repair", "agent repair"
    );
    for cat in FaultCategory::ALL {
        let b = before.categories.get(&cat);
        let a = after.categories.get(&cat);
        let (bi, ai) = (
            b.map(|t| t.incidents).unwrap_or(0),
            a.map(|t| t.incidents).unwrap_or(0),
        );
        if bi == 0 && ai == 0 {
            continue;
        }
        let bh = b
            .map(|t| {
                if t.incidents > 0 {
                    t.repair_hours / t.incidents as f64
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0);
        let ah = a
            .map(|t| {
                if t.incidents > 0 {
                    t.repair_hours / t.incidents as f64
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0);
        println!("{:<18} {:>13.2}h {:>12.1}min", cat.label(), bh, ah * 60.0);
    }
    println!(
        "\nnote: agent-mode FW/NW and hardware repairs remain human work\n\
         (the paper's agents could not heal those) — only their *detection*\n\
         accelerates; database restarts include ~18-25 min of crash recovery."
    );
}
