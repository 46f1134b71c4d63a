//! Future-work demo: answer the paper's open question — *which* power-
//! management techniques is the firmware using right now? — with
//! user-level microbenchmarks plus the machine's hardware counters.
//!
//! ```sh
//! cargo run --example technique_probe --release
//! ```

use capsim::prelude::*;
use capsim::study::TechniqueDetector;

fn demo_config(seed: u64) -> MachineConfig {
    // Demo instances simulate only a few milliseconds, so run the BMC
    // control loop proportionally faster than the real firmware's period
    // (the paper's runs were minutes against a ~second-scale loop).
    let mut cfg = MachineConfig::e5_2680(seed);
    cfg.control_period_us = 5.0;
    cfg.meter_window_s = 1e-4;
    cfg
}

fn main() {
    for cap in [None, Some(145.0), Some(130.0), Some(121.0)] {
        let mut m = Machine::new(demo_config(9));
        if let Some(c) = cap {
            m.set_power_cap(Some(PowerCap::new(c).unwrap()));
        }

        // Drive the BMC to equilibrium with representative work, counting
        // it around the code region as the paper did with PAPI.
        let (core0, mem0) = (m.counters_now(), m.mem_stats_now());
        let block = m.code_block(96, 24);
        let buf = m.alloc(8 << 20);
        for i in 0..400_000u64 {
            m.exec_block(&block);
            m.load(buf.at((i * 64) % (8 << 20)));
        }
        let core = m.counters_now().since(&core0);
        let mem = m.mem_stats_now() - mem0;

        let detected = TechniqueDetector::default().probe(&mut m);
        let cap_str = cap.map_or("none".to_string(), |c| format!("{c:.0} W"));
        println!("== cap: {cap_str} ==");
        println!(
            "  warmup counters: {} instr, {} cycles, {} L2 misses, {} iTLB misses",
            core.instructions_committed, core.unhalted_cycles, mem.l2_misses, mem.itlb_misses
        );
        println!(
            "  estimated freq {:.0} MHz, duty {:.2}, L2 {:.1} cyc, DRAM {:.0} ns",
            detected.est_freq_mhz, detected.est_duty, detected.est_l2_cycles, detected.est_dram_ns
        );
        let mut active = Vec::new();
        if detected.dvfs {
            active.push("DVFS");
        }
        if detected.duty_cycling {
            active.push("T-state duty cycling");
        }
        if detected.l2_gating {
            active.push("L2 way gating");
        }
        if detected.l3_gating {
            active.push("L3 way gating");
        }
        if detected.itlb_shrink {
            active.push("ITLB shrink");
        }
        if detected.mem_gating {
            active.push("memory gating");
        }
        println!(
            "  techniques detected: {}\n",
            if active.is_empty() { "none".to_string() } else { active.join(", ") }
        );
    }
}
