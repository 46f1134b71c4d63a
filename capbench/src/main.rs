//! capbench: capsim's benchmark. One command runs one workload, prints
//! every metric with its unit and sample count, checks the simulated
//! outputs, and ends with one JSON line:
//!
//! ```text
//! capbench --workload <paper_sweep|fleet_datacenter|serving_storm>
//!          --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload untraced for half the time and traced for the other half,
//! and reports the per-layer metrics plus the tracing overhead. `--smoke`
//! shrinks every input to test size. See README.md beside this file.

mod bench;
mod fleet;
mod host;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;

use bench::{end_to_end, measure, per_layer, workload_figures, Bench, Metric};

const WORKLOADS: [&str; 3] = ["paper_sweep", "fleet_datacenter", "serving_storm"];

/// Worker threads for the fleet workloads when `CAPSIM_THREADS` is
/// unset: at most this many, never more than the host's cores.
const DEFAULT_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Fix the fleet engine's worker count before its pool first sizes
/// itself, and return it.
fn worker_threads() -> usize {
    if let Some(n) = std::env::var("CAPSIM_THREADS").ok().and_then(|v| v.trim().parse().ok()) {
        if n >= 1 {
            return n;
        }
    }
    let n = DEFAULT_THREADS.min(host::nproc());
    // Single-threaded here: nothing else reads the environment yet.
    std::env::set_var("CAPSIM_THREADS", n.to_string());
    n
}

fn print_metrics(ms: &[Metric]) {
    for m in ms {
        println!("metric {:<28} {:>16.6} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
}

fn json(correct: bool, attempted: usize, failed: usize, ms: &[Metric]) -> String {
    let metrics: Vec<String> = ms
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let threads = worker_threads();
    let bench: Box<dyn Bench> = match args.workload.as_str() {
        "paper_sweep" => Box::new(sweep::PaperSweep::new(args.smoke)),
        "fleet_datacenter" => Box::new(fleet::FleetBench::datacenter(args.smoke, threads)),
        _ => Box::new(fleet::FleetBench::storm(args.smoke, threads)),
    };
    println!(
        "capbench workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "context nproc={} capsim_threads={threads} loadavg=\"{}\" calibration_mips={:.1}",
        host::nproc(),
        host::loadavg(),
        host::calibration_mips()
    );
    let seeds: Vec<u64> =
        (0..bench::INSTANCES).map(|k| bench::instance_seed(args.seed, k)).collect();
    println!("input {}; instance seeds {seeds:?}", bench.describe());

    let (correct, attempted, failed, metrics) = if !args.trace {
        let p = measure(bench.as_ref(), args.seed, args.seconds, false)?;
        println!("digest {:016x}", p.digest());
        let ms = end_to_end(&p);
        print_metrics(&ms);
        print_metrics(&workload_figures(&p));
        let failed = p.failed();
        (failed == 0, p.attempted(), failed, ms)
    } else {
        let plain = measure(bench.as_ref(), args.seed, args.seconds / 2.0, false)?;
        let traced = measure(bench.as_ref(), args.seed, args.seconds / 2.0, true)?;
        let same = plain.digest() == traced.digest();
        println!("digest {:016x} untraced, {:016x} traced", plain.digest(), traced.digest());
        if !same {
            eprintln!("check failed: the traced run's simulated digest differs from the untraced");
        }
        let overhead_pct = (plain.sim_minstr_per_s() / traced.sim_minstr_per_s() - 1.0) * 100.0;
        let ms = per_layer(&traced, overhead_pct);
        print_metrics(&ms);
        let failed = plain.failed() + traced.failed();
        let attempted = plain.attempted() + traced.attempted();
        print!("{}", traced.spans().render());
        (same && failed == 0, attempted, failed, ms)
    };
    println!(
        "context loadavg_after=\"{}\" calibration_mips_after={:.1}",
        host::loadavg(),
        host::calibration_mips()
    );
    println!("ops attempted={attempted} failed={failed}");
    Ok(json(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("capbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("capbench: {e}");
            ExitCode::FAILURE
        }
    }
}
