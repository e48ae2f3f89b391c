//! ABL-NET — ablation of the private intelliagent network.
//!
//! Figure 1's design routes all agent traffic over a dedicated LAN "to
//! avoid loading public LANs", with automatic fallback. This harness
//! measures (a) how much agent traffic the private LAN actually absorbs
//! during normal operation, and (b) that a private-LAN outage neither
//! stops DLSP collection nor meaningfully loads the public LANs.
//!
//! ```text
//! cargo run --release -p intelliqos-bench --bin abl_private_network [--seed N] [--days N]
//! ```

use intelliqos_bench::{banner, emit_run_evidence, maybe_build_evdb, HarnessOpts};
use intelliqos_cluster::net::SegmentKind;
use intelliqos_core::{ManagementMode, World};
use intelliqos_simkern::{SimTime, DAY};

fn segment_report(w: &mut World, label: &str) {
    w.fabric.roll_all_windows(w.now());
    println!("--- {label} ---");
    for kind in [SegmentKind::PrivateAgent, SegmentKind::Public] {
        for seg in w.fabric.segments_of(kind) {
            // qoslint::allow(no-panic, segment ids come from the scenario topology)
            let s = w.fabric.segment(seg).unwrap();
            println!(
                "{seg} ({kind:?}): mean util {:.6}% of bandwidth, up={}",
                s.mean_utilization() * 100.0,
                s.up
            );
        }
    }
    if let Some(dgspl) = w.dgspl() {
        println!(
            "DGSPL age at horizon: {}s ({} entries)",
            w.now().as_secs() - dgspl.generated_at_secs,
            dgspl.entries.len()
        );
    }
    println!();
}

fn main() {
    let opts = HarnessOpts::parse(7);
    banner(
        "ABL-NET",
        "private agent LAN: load absorption and outage fallback",
    );
    println!("seed={} horizon={}d per variant\n", opts.seed, opts.days);

    // Variant A: normal operation.
    let mut w = opts.instrument(World::build(opts.site(ManagementMode::Intelliagents)));
    w.run_until(SimTime::from_secs(opts.days * DAY));
    segment_report(&mut w, "A: private network healthy");
    emit_run_evidence(&opts, "abl_private_network", "healthy", &w);

    // Variant B: private LAN down the whole time — everything reroutes.
    let mut w = opts.instrument(World::build(opts.site(ManagementMode::Intelliagents)));
    let private = w.fabric.segments_of(SegmentKind::PrivateAgent)[0];
    w.fabric.set_segment_up(private, false);
    w.run_until(SimTime::from_secs(opts.days * DAY));
    segment_report(
        &mut w,
        "B: private network down from t=0 (reroute over public)",
    );
    emit_run_evidence(&opts, "abl_private_network", "private-down", &w);
    maybe_build_evdb(&opts);

    println!(
        "reading: in A the private LAN absorbs all agent traffic (public\n\
         LANs see none of it); in B the same traffic rides the public\n\
         LANs — coordination survives, at the cost the paper's design\n\
         set out to avoid. Agent traffic is small in absolute terms, but\n\
         the isolation also bounds interference during market-data bursts."
    );
}
