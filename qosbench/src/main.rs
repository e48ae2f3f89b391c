//! `qosbench`: the end-to-end and per-layer benchmark of the intelliqos
//! simulator.
//!
//! ```text
//! cargo run --release --manifest-path qosbench/Cargo.toml -- \
//!     --workload site-agents|site-manual|evidence \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! profiler off; `--trace 1` runs the traced per-layer measurement. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Everything runs on one thread.
//! See `qosbench/README.md` for the workloads and the metric map.

mod layers;
mod metrics;
mod stats;
mod workload;

use std::process::ExitCode;

use metrics::{declared, render, Values};
use stats::{describe, fastest, fastest_units, median, quantile, tail_percentile};
use workload::{
    check_world, digest, export, ingest, query, query_mix, setup_only, simulate, Checks, WorkDir,
    Workload,
};

/// The default workload seed.
const DEFAULT_SEED: u64 = 11;

/// `World::build` samples behind `setup_s`, at least.
const SETUP_SAMPLES: usize = 15;

/// Timed queries per pass behind `query_p50_ms`/`query_p99_ms`, at
/// least, so that the 99th percentile has ten or more beyond it.
const QUERY_SAMPLES: usize = 1100;

/// Passes over the query rounds per repetition; each query's time is
/// its fastest over every pass of every repetition.
const QUERY_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut out = Args {
        workload: Workload::SiteAgents,
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.max(1),
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("qosbench: {e}");
            eprintln!(
                "usage: qosbench --workload {} [--seed N] [--seconds N] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qosbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    println!(
        "qosbench workload={} seed={} seconds={} trace={} threads=1",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let values = if args.trace {
        layers::run(w, args.seed, &mut checks)?
    } else {
        end_to_end(w, args.seed, args.seconds, &mut checks)?
    };
    for note in &checks.notes {
        println!("CHECK FAILED: {note}");
    }
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    render(
        &declared(args.trace),
        &values,
        checks.failed == 0,
        checks.attempted,
        checks.failed,
    )
}

/// The untraced run. Every repetition replays the same inputs through
/// the whole pipeline, and every timed unit (a simulated hour, an
/// export, an ingest, one query of the mix) reports the fastest of its
/// repetitions. On a shared host, interference only ever adds time: on a
/// 2-core x86-64 VM a fixed loop took from 0.25 to 0.47 s within a minute.
fn end_to_end(w: Workload, seed: u64, seconds: u64, checks: &mut Checks) -> Result<Values, String> {
    let (s, mut accepted) = w.select(seed)?;
    let reps = w.reps(seconds);
    let work = WorkDir::create(w)?;
    let mix = query_mix(w.config(s, w.modes()[0]).horizon.as_secs() / 86_400);
    let rounds = QUERY_SAMPLES.div_ceil(mix.len());
    println!(
        "scenario seed {s}, {reps} repetitions, {QUERY_PASSES} passes of {rounds} rounds of {} queries",
        mix.len()
    );

    let (mut setup, mut runs, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    let (mut exp, mut ing, mut queries) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_digest = None;
    for r in 0..reps {
        work.reset()?;
        let sim = match accepted.take() {
            Some(sim) => sim,
            None => simulate(w, s, false)?,
        };
        let d = digest(&sim);
        let first = *first_digest.get_or_insert(d);
        checks.check(d == first, || {
            format!("repetition {r} diverged from repetition 0")
        });
        checks.check(w.shape_holds(&sim), || {
            format!("seed {s}: the run lost the workload's input shape")
        });
        for world in &sim.worlds {
            check_world(world, checks);
        }
        let ex = export(w, &sim, &work.evidence(), checks)?;
        println!(
            "rep {r}: digest {:016x} setup {:.4} s run {:.4} s export {:.4} s ({} bytes)",
            d.0,
            sim.setup_s,
            sim.run_s(),
            ex.export_s,
            ex.bytes
        );
        setup.push(sim.setup_s);
        runs.push(sim.run_s());
        slices.push(sim.slices.concat());
        exp.push(ex.export_s);
        drop(sim);
        let (_, ingest_s) = ingest(&work.evidence(), &work.store())?;
        ing.push(ingest_s);
        for pass in 0..QUERY_PASSES {
            let verify = (r == 0 && pass == 0).then_some(&mut *checks);
            let answers = query(&work.store(), &work.evidence(), &mix, rounds, verify)?;
            queries.push(answers.iter().map(|a| a.ms).collect::<Vec<f64>>());
        }
    }
    while setup.len() < SETUP_SAMPLES {
        setup.push(setup_only(w, s)?);
    }
    let peak_mb = peak_rss_mb()?;
    let run_s: f64 = fastest_units(&slices).iter().sum();
    let query_ms = fastest_units(&queries);

    println!(
        "setup_s: fastest {:.4} s; {}",
        fastest(&setup),
        describe(&setup, "s")
    );
    println!(
        "run_s: fastest hours sum to {run_s:.4} s; whole runs {}",
        describe(&runs, "s")
    );
    println!(
        "export_s: fastest {:.4} s; {}",
        fastest(&exp),
        describe(&exp, "s")
    );
    println!(
        "ingest_s: fastest {:.4} s; {}",
        fastest(&ing),
        describe(&ing, "s")
    );
    println!(
        "query_ms (fastest of each unit): {}",
        describe(&query_ms, "ms")
    );
    println!("peak_rss_mb: {peak_mb:.1} MB (process high-water mark)");
    if tail_percentile(query_ms.len()).is_none_or(|p| p < 0.99) {
        return Err("too few query samples for a 99th percentile".into());
    }
    let mut v = Values::new();
    v.insert("setup_s".into(), fastest(&setup));
    v.insert("run_s".into(), run_s);
    v.insert("peak_rss_mb".into(), peak_mb);
    v.insert("export_s".into(), fastest(&exp));
    v.insert("ingest_s".into(), fastest(&ing));
    v.insert("query_p50_ms".into(), median(&query_ms));
    v.insert("query_p99_ms".into(), quantile(&query_ms, 0.99));
    Ok(v)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse_args(&args(&[
            "--workload",
            "evidence",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::Evidence);
        assert_eq!((a.seed, a.trace), (7, true));
        for bad in [
            &["--seed", "7"][..],
            &["--workload", "nope"],
            &["--workload", "evidence", "--trace", "2"],
            &["--workload", "evidence", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn candidate_seeds_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a: Vec<u64> = w.candidates(11).take(3).collect();
            assert_eq!(a, w.candidates(11).take(3).collect::<Vec<_>>());
            assert_ne!(a, w.candidates(12).take(3).collect::<Vec<_>>());
        }
    }
}
