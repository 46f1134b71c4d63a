//! Policy-lab bench: the energy/performance frontier of the capping
//! backends, plus the layer's two safety gates.
//!
//! Usage: `cargo run -p capsim-bench --bin policy --release [-- out.json]`
//! (`CAPSIM_SCALE=test` for a fast smoke run.)
//!
//! Three measurements feed `BENCH_policy.json`:
//!
//! * **RL training determinism** — the Q-table is trained twice from the
//!   same seed; the run aborts unless both replays land on the same
//!   digest (`deterministic` in the artifact),
//! * **the frontier** — every backend (ladder, governor, trained RL)
//!   drives an identical budget-tight fleet; each contributes one
//!   (energy_j, avg_freq_mhz) point, the paper's §IV energy-vs-
//!   performance-retention trade at the policy level,
//! * **adversarial chaos** — every backend runs the scripted fault
//!   scenario (sensor dropout + BMC crash) and must come out with all
//!   invariants green (`invariant_violations` must be 0).

use std::time::Instant;

use capsim_bench::Scale;
use capsim_chaos::{check, ChaosScenario};
use capsim_dcm::{train_rl, FleetBuilder, RlTrainConfig};
use capsim_policy::{AllocationPolicy, CapPolicySpec};

/// One frontier point: a backend's whole-fleet energy and the mean
/// measured frequency its nodes retained under the cap.
fn frontier_point(spec: &CapPolicySpec, nodes: usize, epochs: u32, seed: u64) -> (f64, f64, f64) {
    let report = FleetBuilder::new()
        .nodes(nodes)
        .epochs(epochs)
        // Feasible (above the 110 W/node floor) but binding (below the
        // ~150 W uncapped draw): the group half genuinely divides, the
        // node half genuinely throttles.
        .budget_w(120.0 * nodes as f64)
        .seed(seed)
        .cap_policy(spec.build())
        .build()
        .run();
    let energy_j: f64 = report.summaries.iter().map(|s| s.energy_j).sum();
    let freq = report.summaries.iter().map(|s| s.avg_freq_mhz).sum::<f64>()
        / report.summaries.len() as f64;
    let wall_s = report.summaries.iter().map(|s| s.wall_s).fold(0.0, f64::max);
    (energy_j, freq, wall_s)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_policy.json".into());
    let (train_cfg, nodes, epochs) = match Scale::from_env() {
        Scale::Paper => {
            let mut cfg = RlTrainConfig::quick(42);
            cfg.episodes = 8;
            cfg.nodes = 6;
            cfg.epochs = 10;
            cfg.budget_w = 330.0;
            (cfg, 6, 12)
        }
        Scale::Test => (RlTrainConfig::quick(42), 4, 6),
    };

    eprintln!("policy: training the RL backend twice ({} episodes) …", train_cfg.episodes);
    let start = Instant::now();
    let trained = train_rl(&train_cfg);
    let train_ms = start.elapsed().as_secs_f64() * 1e3;
    let replay = train_rl(&train_cfg);
    let deterministic = trained.q_digest == replay.q_digest && trained.q == replay.q;
    eprintln!(
        "  train           : {train_ms:>10.1} ms, digest {:016x}, replay {}",
        trained.q_digest,
        if deterministic { "identical" } else { "DIVERGED" }
    );
    assert!(deterministic, "RL training replay diverged — determinism contract broken");

    let specs = [
        CapPolicySpec::Ladder(AllocationPolicy::Uniform),
        CapPolicySpec::Governor(capsim_policy::GovernorConfig::default()),
        CapPolicySpec::Rl(trained.q.clone()),
    ];

    let mut frontier = Vec::new();
    let mut violations = 0usize;
    for spec in &specs {
        let name = spec.name();
        eprintln!("policy: {name}: frontier fleet ({nodes} nodes × {epochs} epochs) …");
        let (energy_j, avg_freq_mhz, wall_s) = frontier_point(spec, nodes, epochs, 7);
        eprintln!("  {name:<8}        : {energy_j:>10.4} J, {avg_freq_mhz:>7.0} MHz mean");

        eprintln!("policy: {name}: scripted chaos …");
        let report = check(&ChaosScenario::scripted().with_policy(spec.clone()));
        let v = report.violations.len();
        if v > 0 {
            eprintln!("  {name}: {v} invariant violation(s): {:?}", report.violations);
        }
        violations += v;
        frontier.push(format!(
            "{{\"policy\": \"{name}\", \"energy_j\": {energy_j:.6}, \
             \"avg_freq_mhz\": {avg_freq_mhz:.1}, \"wall_s\": {wall_s:.6}, \
             \"chaos_violations\": {v}}}"
        ));
    }

    let json = format!(
        "{{\n  \"train_ms\": {train_ms:.1},\n  \"train_episodes\": {},\n  \
         \"q_digest\": \"{:016x}\",\n  \"q_touched\": {},\n  \
         \"deterministic\": {deterministic},\n  \"invariant_violations\": {violations},\n  \
         \"frontier\": [\n    {}\n  ]\n}}\n",
        train_cfg.episodes,
        trained.q_digest,
        trained.q.touched(),
        frontier.join(",\n    ")
    );
    std::fs::write(&out_path, &json).expect("write json");
    println!("{json}");
    eprintln!("wrote {out_path}");
    if violations > 0 {
        eprintln!("policy: {violations} invariant violation(s) under chaos — failing");
        std::process::exit(1);
    }
}
