//! FIG4 — Figure 4: monitoring resident memory on one server at peak,
//! eight half-hour samples: BMC Patrol vs intelliagents.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin fig4_mem_overhead [--seed N]
//! ```

use intelliqos_baseline::ResidentMonitorFootprint;
use intelliqos_bench::{
    banner, emit_sample_evidence, json_arr_f64, row, HarnessOpts, FIG4_AGENT_MEM, FIG4_BMC_MEM,
};
use intelliqos_simkern::SimRng;
use intelliqos_telemetry::AgentFootprint;

fn main() {
    let opts = HarnessOpts::parse(1, &[]);
    banner(
        "FIG4",
        "monitoring resident memory (MB) at peak, 8 samples every 30 min",
    );

    let bmc = ResidentMonitorFootprint::default();
    let agent = AgentFootprint::default();
    let mut rng_bmc = SimRng::stream(opts.seed, "fig4-bmc");
    let mut rng_agent = SimRng::stream(opts.seed, "fig4-agent");

    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "sample", "BMC paper", "BMC meas", "agent paper", "agent meas"
    );
    let mut bmc_samples = Vec::new();
    let mut agent_samples = Vec::new();
    for (i, paper_bmc) in FIG4_BMC_MEM.iter().enumerate() {
        let b = bmc.sample_mem_mb(&mut rng_bmc);
        let a = agent.sample_mem_mb(&mut rng_agent);
        bmc_samples.push(b);
        agent_samples.push(a);
        println!(
            "{:<8} {:>10.1}MB {:>10.1}MB {:>12.1}MB {:>12.1}MB",
            i + 1,
            paper_bmc,
            b,
            FIG4_AGENT_MEM,
            a
        );
    }
    let bmc_sum: f64 = bmc_samples.iter().sum();
    let paper_bmc_mean: f64 = FIG4_BMC_MEM.iter().sum::<f64>() / 8.0;
    println!();
    println!("{}", row("BMC mean", paper_bmc_mean, bmc_sum / 8.0, "MB"));
    println!(
        "{}",
        row("agent (flat)", FIG4_AGENT_MEM, agent_samples[0], "MB")
    );
    // Figure 4's key qualitative feature: the agent line is perfectly
    // flat because nothing stays resident between wake-ups.
    let flat = agent_samples
        .iter()
        .all(|&a| (a - agent_samples[0]).abs() < 1e-12);
    println!("agent series flat: {flat} (non-memory-resident design)");
    println!(
        "{}",
        row(
            "BMC/agent ratio",
            paper_bmc_mean / FIG4_AGENT_MEM,
            (bmc_sum / 8.0) / agent_samples[0],
            "x"
        )
    );

    let json = format!(
        "{{\n\"figure\": \"fig4_mem_overhead\",\n\"seed\": {},\n\
         \"bmc_mem_mb\": {},\n\"agent_mem_mb\": {},\n\
         \"paper_bmc_mem_mb\": {},\n\"paper_agent_mem_mb\": {}\n}}",
        opts.seed,
        json_arr_f64(&bmc_samples),
        json_arr_f64(&agent_samples),
        json_arr_f64(&FIG4_BMC_MEM),
        FIG4_AGENT_MEM,
    );
    emit_sample_evidence(&opts, "fig4_mem_overhead", "samples", &json);
}
