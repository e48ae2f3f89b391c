//! T-DET — in-text table: fault detection latency.
//!
//! Paper: "Faults however, were detected within the first 5 minutes of
//! them happening (the intelliagent run frequency), as opposed to about
//! 1 hour during day time, about 25 hours over the weekends and 10 hours
//! from overnight jobs (data provided by the customer using BMC Patrol)."
//!
//! Part 1 samples the human-detection model per onset window; part 2
//! measures end-to-end detection latency inside full paired scenarios.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin tbl_detection_latency [--seed N] [--days N]
//! ```

use intelliqos_baseline::HumanDetectionModel;
use intelliqos_bench::{
    banner, row, run_paired_site, HarnessOpts, DETECT_AGENT_MIN, DETECT_DAYTIME_H,
    DETECT_OVERNIGHT_H, DETECT_WEEKEND_H,
};
use intelliqos_cluster::faults::FaultCategory;
use intelliqos_simkern::{SimDuration, SimRng, SimTime};

fn main() {
    let opts = HarnessOpts::parse(21, &[]);
    banner(
        "T-DET",
        "fault detection latency: human console watch vs agent sweeps",
    );

    // -- part 1: the human-notice model per onset window ----------------
    let model = HumanDetectionModel::default();
    let mut rng = SimRng::stream(opts.seed, "tdet");
    let n = 20_000;
    let mean_delay = |onset: SimTime, rng: &mut SimRng| -> f64 {
        (0..n)
            .map(|_| model.sample_delay(onset, rng).as_hours_f64())
            .sum::<f64>()
            / n as f64
    };
    let day = mean_delay(SimTime::from_hours(10), &mut rng); // Monday 10:00
    let night = mean_delay(SimTime::from_hours(2), &mut rng); // Monday 02:00
    let weekend = mean_delay(
        SimTime::from_days(5) + SimDuration::from_hours(12),
        &mut rng,
    );
    println!("--- notify-only monitoring (model, {n} samples/window) ---");
    println!("{}", row("daytime", DETECT_DAYTIME_H, day, "h"));
    println!("{}", row("overnight", DETECT_OVERNIGHT_H, night, "h"));
    println!("{}", row("weekend", DETECT_WEEKEND_H, weekend, "h"));

    // -- part 2: end-to-end inside paired scenarios ---------------------
    println!(
        "\n--- measured inside full scenarios ({}d, seed {}) ---",
        opts.days, opts.seed
    );
    let (before, after) = run_paired_site(&opts, "tbl_detection_latency");

    println!(
        "{:<18} {:>16} {:>16} {:>10}",
        "category", "manual detect", "agent detect", "incidents"
    );
    for cat in FaultCategory::ALL {
        let b = before.categories.get(&cat);
        let a = after.categories.get(&cat);
        if b.map(|t| t.incidents).unwrap_or(0) == 0 && a.map(|t| t.incidents).unwrap_or(0) == 0 {
            continue;
        }
        println!(
            "{:<18} {:>15.2}h {:>14.1}min {:>6}/{:<4}",
            cat.label(),
            b.map(|t| t.mean_detection_hours()).unwrap_or(0.0),
            a.map(|t| t.mean_detection_hours() * 60.0).unwrap_or(0.0),
            b.map(|t| t.incidents).unwrap_or(0),
            a.map(|t| t.incidents).unwrap_or(0),
        );
    }
    // The headline claim: every agent-mode detection within the sweep
    // period (≤ X = 5 min), modulo the rare fault landing mid-sweep.
    let worst_agent_min = FaultCategory::ALL
        .iter()
        .filter_map(|c| after.categories.get(c))
        .filter(|t| t.incidents > 0)
        .map(|t| t.mean_detection_hours() * 60.0)
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "{}",
        row("agent worst mean", DETECT_AGENT_MIN, worst_agent_min, "min")
    );
}
