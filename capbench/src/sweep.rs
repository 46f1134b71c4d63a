//! `paper_sweep`: the paper's Table II protocol. Stereo Matching and
//! SIRE/RSM each run once with no cap and once under every cap from
//! 160 W down to 120 W, single-threaded, each run on a fresh machine so
//! simulated caches start cold. One operation is both applications at
//! one cap: the two differ fourfold in host time, and pairing them keeps
//! the operation times of a round close enough for stable percentiles.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use capsim_apps::{SireRsm, StereoMatching, Workload};
use capsim_bench::paper::{PaperBlock, CAPS_W, SIRE, STEREO};
use capsim_node::{Machine, MachineConfig, PowerCap};
use capsim_policy::LadderCapPolicy;

use crate::bench::{mem_add, Bench, Round};
use crate::stats::Digest;
use crate::trace::{Clocks, TimedPolicy};

/// The experiment's BMC control period: the 5 µs of the repository's
/// test-scale Table II, fast enough for millisecond-long runs to reach
/// their capping equilibrium.
const CONTROL_PERIOD_US: f64 = 5.0;

/// Ceiling on `table2_err`. The model was tuned against Table II, so the
/// error is a fidelity guard, not a validation: it stays near 0.24 at
/// these sizes, and a change that pushes it past this ceiling broke
/// the paper's shape.
pub const TABLE2_ERR_MAX: f64 = 0.30;

/// The two applications at the sizes one round runs; each round sets
/// the seed of its instance.
pub struct PaperSweep {
    stereo: StereoMatching,
    sire: SireRsm,
}

impl PaperSweep {
    /// Paper widths (the rows that decide L2 residency), with height,
    /// annealing sweeps and apertures cut so a round takes about two
    /// seconds of host time. `smoke` selects the repository's test-scale
    /// instances.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            return PaperSweep {
                stereo: StereoMatching::test_scale(0),
                sire: SireRsm::test_scale(0),
            };
        }
        let mut stereo = StereoMatching::paper_scale(0);
        stereo.height = 12;
        stereo.sweeps = 1;
        let mut sire = SireRsm::paper_scale(0);
        sire.height = 24;
        sire.apertures = 4;
        PaperSweep { stereo, sire }
    }

    /// A fresh machine seeded like the application, as the repository's
    /// `CapSweep` seeds its runs.
    fn machine(&self, seed: u64, cap_w: Option<f64>) -> Machine {
        let mut cfg = MachineConfig::e5_2680(seed);
        cfg.control_period_us = CONTROL_PERIOD_US;
        cfg.meter_window_s = (CONTROL_PERIOD_US * 10.0 * 1e-6).max(2e-4);
        let mut m = Machine::new(cfg);
        if let Some(w) = cap_w {
            m.set_power_cap(Some(PowerCap::new(w).expect("paper caps are valid")));
        }
        m
    }

    fn app(&self, seed: u64, stereo: bool) -> Box<dyn Workload> {
        if stereo {
            Box::new(StereoMatching { seed, ..self.stereo.clone() })
        } else {
            Box::new(SireRsm { seed, ..self.sire.clone() })
        }
    }
}

/// Per-run figures the sweep keeps for the Table II comparison.
struct Point {
    time_s: f64,
    energy_j: f64,
}

impl Bench for PaperSweep {
    fn describe(&self) -> String {
        format!(
            "stereo {}x{} sweeps={} max_disparity={}; sire {}x{} apertures={} samples={} \
             rsm_passes={}; caps none,{:?} W; control_period_us={CONTROL_PERIOD_US}",
            self.stereo.width,
            self.stereo.height,
            self.stereo.sweeps,
            self.stereo.max_disparity,
            self.sire.width,
            self.sire.height,
            self.sire.apertures,
            self.sire.samples,
            self.sire.rsm_passes,
            CAPS_W
        )
    }

    fn round(&self, seed: u64, traced: bool) -> Round {
        let mut r = Round { threads: 1, ..Round::default() };
        let mut digest = Digest::new();
        // Per application: (committed instructions, checksum bits) of the
        // uncapped run, and every run's time and energy.
        let mut reference = [None, None];
        let mut points: [Vec<Point>; 2] = [Vec::new(), Vec::new()];
        for cap in caps() {
            // One operation: both applications at this cap.
            let mut op_s = 0.0;
            let mut failed = false;
            for (app_index, stereo) in [true, false].into_iter().enumerate() {
                let (mut m, mut app) =
                    r.spans.time("setup", || (self.machine(seed, cap), self.app(seed, stereo)));
                let clocks = Arc::new(Clocks::default());
                if traced {
                    m.enable_obs(64);
                    m.set_cap_policy(Box::new(TimedPolicy::new(
                        Box::new(LadderCapPolicy::new()),
                        clocks.clone(),
                    )));
                }
                let out = r.spans.time("Workload::run", || app.run(&mut m));
                op_s += r.spans.get("Workload::run").last().expect("just timed");
                let s = r.spans.time("Machine::finish_run", || m.finish_run());

                // Committed instructions and the output checksum do not
                // depend on the cap.
                let identity = (s.counters.instructions_committed, out.checksum.to_bits());
                failed |= *reference[app_index].get_or_insert(identity) != identity;
                r.instr += s.counters.instructions_committed;
                r.sim_node_s += s.wall_s;
                for x in [s.wall_s, s.energy_j, s.avg_power_w, s.avg_freq_mhz, s.die_temp_c] {
                    digest.f64(x);
                }
                for x in [out.checksum, out.quality, s.min_power_w, s.max_power_w] {
                    digest.f64(x);
                }
                let c = s.counters;
                for x in [
                    c.instructions_committed,
                    c.instructions_executed,
                    c.loads,
                    c.stores,
                    c.spec_loads,
                    c.branches,
                    c.branch_mispredicts,
                    c.unhalted_cycles,
                    s.bmc_stats.0,
                    s.bmc_stats.1,
                    s.bmc_stats.2,
                    s.final_rung as u64,
                    out.items,
                ] {
                    digest.u64(x);
                }
                digest_mem(&mut digest, &s.mem);
                points[app_index].push(Point { time_s: s.wall_s, energy_j: s.energy_j });

                if traced {
                    let l = &mut r.layers;
                    l.apps_runs += 1;
                    l.mem = mem_add(l.mem, s.mem);
                    l.instr_committed += c.instructions_committed;
                    l.instr_executed += c.instructions_executed;
                    l.ticks += m.obs().metrics.counter("machine.ticks");
                    l.escalations += s.bmc_stats.0;
                    l.deescalations += s.bmc_stats.1;
                    l.jumps += m.obs().metrics.counter("policy.jumps");
                    l.obs_events += m.obs().events.len() as u64;
                    // Dropping the machine drops its policy, which adds
                    // its counts to `clocks`.
                    drop(m);
                    l.decide_calls += clocks.decide_calls.load(Relaxed);
                    l.decide_ns += clocks.decide_ns.load(Relaxed);
                }
            }
            r.op_s.push(op_s);
            r.failed += usize::from(failed);
        }
        r.setup_s = r.spans.get("setup").iter().sum();
        let errors: Vec<f64> = ln_errors(&points[0], &STEREO)
            .into_iter()
            .chain(ln_errors(&points[1], &SIRE))
            .collect();
        let err = errors.iter().sum::<f64>() / errors.len() as f64;
        if err > TABLE2_ERR_MAX {
            eprintln!("check failed: table2_err {err} above {TABLE2_ERR_MAX}");
            r.failed = r.op_s.len();
        }
        r.table2_err = Some(err);
        r.digest = digest.finish();
        r
    }
}

/// No cap, then the paper's nine caps.
fn caps() -> impl Iterator<Item = Option<f64>> {
    std::iter::once(None).chain(CAPS_W.iter().copied().map(Some))
}

/// `|ln((1 + ours%) / (1 + paper%))|` for the time and energy %-diff
/// columns of one application (`points[0]` is the uncapped baseline).
fn ln_errors(points: &[Point], paper: &PaperBlock) -> Vec<f64> {
    let base = &points[0];
    let mut out = Vec::with_capacity(2 * CAPS_W.len());
    for (i, p) in points[1..].iter().enumerate() {
        for (ours, theirs) in [
            (p.time_s / base.time_s, paper.time_pct[i]),
            (p.energy_j / base.energy_j, paper.energy_pct[i]),
        ] {
            out.push((ours / (1.0 + theirs as f64 / 100.0)).ln().abs());
        }
    }
    out
}

pub fn digest_mem(d: &mut Digest, m: &capsim_mem::MemStats) {
    for x in [
        m.l1d_accesses,
        m.l1d_misses,
        m.l1i_accesses,
        m.l1i_misses,
        m.l2_accesses,
        m.l2_misses,
        m.l3_accesses,
        m.l3_misses,
        m.dtlb_lookups,
        m.dtlb_misses,
        m.itlb_lookups,
        m.itlb_misses,
        m.stlb_lookups,
        m.stlb_misses,
        m.walk_reads,
        m.dram_reads,
        m.dram_writes,
        m.writebacks,
        m.prefetches,
    ] {
        d.u64(x);
    }
}
