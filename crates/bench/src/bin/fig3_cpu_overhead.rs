//! FIG3 — Figure 3: monitoring CPU utilisation on one server at peak,
//! eight half-hour samples: BMC Patrol vs intelliagents.
//!
//! The resident monitor's footprint model and the agents' duty-cycle
//! footprint model (calibrated from §3.3's non-resident design) each
//! produce the eight samples the figure plots.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin fig3_cpu_overhead [--seed N]
//! ```

use intelliqos_baseline::ResidentMonitorFootprint;
use intelliqos_bench::{
    banner, emit_sample_evidence, json_arr_f64, row, HarnessOpts, FIG3_AGENT_CPU, FIG3_BMC_CPU,
};
use intelliqos_simkern::SimRng;
use intelliqos_telemetry::AgentFootprint;

fn main() {
    let opts = HarnessOpts::parse(1, &[]);
    banner("FIG3", "monitoring CPU % at peak, 8 samples every 30 min");

    let bmc = ResidentMonitorFootprint::default();
    let agent = AgentFootprint::default();
    let mut rng_bmc = SimRng::stream(opts.seed, "fig3-bmc");
    let mut rng_agent = SimRng::stream(opts.seed, "fig3-agent");

    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "sample", "BMC paper", "BMC meas", "agent paper", "agent meas"
    );
    let mut bmc_samples = Vec::new();
    let mut agent_samples = Vec::new();
    for i in 0..8 {
        let b = bmc.sample_cpu_pct(&mut rng_bmc);
        let a = agent.sample_cpu_pct(&mut rng_agent);
        bmc_samples.push(b);
        agent_samples.push(a);
        println!(
            "{:<8} {:>11.3}% {:>11.3}% {:>13.3}% {:>13.3}%",
            i + 1,
            FIG3_BMC_CPU[i],
            b,
            FIG3_AGENT_CPU[i],
            a
        );
    }
    let bmc_sum: f64 = bmc_samples.iter().sum();
    let agent_sum: f64 = agent_samples.iter().sum();
    let paper_bmc_mean: f64 = FIG3_BMC_CPU.iter().sum::<f64>() / 8.0;
    let paper_agent_mean: f64 = FIG3_AGENT_CPU.iter().sum::<f64>() / 8.0;
    println!();
    println!("{}", row("BMC mean", paper_bmc_mean, bmc_sum / 8.0, "%"));
    println!(
        "{}",
        row("agent mean", paper_agent_mean, agent_sum / 8.0, "%")
    );
    println!(
        "{}",
        row(
            "BMC/agent ratio",
            paper_bmc_mean / paper_agent_mean,
            (bmc_sum / 8.0) / (agent_sum / 8.0),
            "x"
        )
    );
    println!(
        "\nthe agents' mean is a duty cycle: {}s of work every {}s at {:.1}% while running",
        9, 300, 1.5
    );

    let json = format!(
        "{{\n\"figure\": \"fig3_cpu_overhead\",\n\"seed\": {},\n\
         \"bmc_cpu_pct\": {},\n\"agent_cpu_pct\": {},\n\
         \"paper_bmc_cpu_pct\": {},\n\"paper_agent_cpu_pct\": {}\n}}",
        opts.seed,
        json_arr_f64(&bmc_samples),
        json_arr_f64(&agent_samples),
        json_arr_f64(&FIG3_BMC_CPU),
        json_arr_f64(&FIG3_AGENT_CPU),
    );
    emit_sample_evidence(&opts, "fig3_cpu_overhead", "samples", &json);
}
