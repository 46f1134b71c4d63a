//! Integration: the full out-of-band management path — DCM ↔ IPMI wire ↔
//! BMC ↔ throttle ladder — against live machines running on threads.

use capsim::apps::kernels::AluBurst;
use capsim::apps::Workload;
use capsim::dcm::{Dcm, NodeId};
use capsim::ipmi::LanChannel;
use capsim::node::MachineBuilder;
use capsim::prelude::*;

fn fast(seed: u64) -> Machine {
    MachineBuilder::e5_2680().seed(seed).control_period_us(10.0).meter_window_s(0.0002).build()
}

#[test]
fn dcm_caps_a_running_node_over_ipmi() {
    let (mut mgr, bmc_port) = LanChannel::pair();
    let t = std::thread::spawn(move || {
        let mut m = fast(21);
        m.attach_bmc_port(bmc_port);
        AluBurst { iters: 12_000_000 }.run(&mut m);
        m.finish_run()
    });
    let mut dcm = Dcm::new();
    let node = dcm.register("n0");
    // Wait until the node is reporting busy power, then cap it.
    let mut reading = 0;
    for _ in 0..500 {
        reading = dcm.read_power(node, &mut mgr).expect("node up").current_w;
        if reading > 140 {
            break;
        }
        std::thread::yield_now();
    }
    assert!(reading > 140, "node should be drawing busy power, read {reading}");
    dcm.cap_node(node, &mut mgr, 135.0).expect("cap accepted");
    let limit = dcm.node_limit(node, &mut mgr).expect("limit readable");
    assert_eq!(limit.limit_w, 135);
    let stats = t.join().expect("node thread");
    // The run started uncapped and ended capped: max above, final below.
    assert!(stats.max_power_w > 148.0, "max {}", stats.max_power_w);
    assert!(stats.bmc_stats.0 > 0, "BMC escalated after the cap arrived");
}

#[test]
fn group_budget_throttles_every_node_in_the_rack() {
    let mut dcm = Dcm::new();
    let mut threads = Vec::new();
    let mut ids: Vec<NodeId> = Vec::new();
    let mut ports = Vec::new();
    for i in 0..3u64 {
        let (mgr, bmc_port) = LanChannel::pair();
        ids.push(dcm.register(format!("n{i}")));
        ports.push(mgr);
        threads.push(std::thread::spawn(move || {
            let mut m = fast(30 + i);
            m.attach_bmc_port(bmc_port);
            AluBurst { iters: 10_000_000 }.run(&mut m);
            m.finish_run()
        }));
    }
    // Let them ramp up, then apply a tight group budget.
    for &id in &ids {
        for _ in 0..500 {
            if dcm.read_power(id, &mut ports[id.index()]).map(|r| r.current_w).unwrap_or(0) > 140 {
                break;
            }
            std::thread::yield_now();
        }
    }
    let caps = dcm
        .apply_group_budget(3.0 * 135.0, &LadderCapPolicy::new(), &mut ports)
        .expect("budget applied");
    let expected: Vec<(NodeId, f64)> = ids.iter().map(|&id| (id, 135.0)).collect();
    assert_eq!(caps, expected);
    for t in threads {
        let s = t.join().expect("node");
        assert!(s.bmc_stats.0 > 0, "every node throttled");
    }
}

#[test]
fn inband_and_ipmi_caps_agree() {
    // Capping via Machine::set_power_cap and via the DCMI path must yield
    // the same equilibrium (the BMC is the single control point).
    let run_inband = || {
        let mut m = fast(40);
        m.set_power_cap(Some(PowerCap::new(134.0).unwrap()));
        AluBurst { iters: 4_000_000 }.run(&mut m);
        m.finish_run()
    };
    let run_oob = || {
        let (mut mgr, bmc_port) = LanChannel::pair();
        let t = std::thread::spawn(move || {
            let mut m = fast(40);
            m.attach_bmc_port(bmc_port);
            // Give the manager a moment to land the cap before the run
            // starts in earnest: poll-loop on the first control ticks.
            AluBurst { iters: 4_000_000 }.run(&mut m);
            m.finish_run()
        });
        let mut dcm = Dcm::new();
        let node = dcm.register("n");
        dcm.cap_node(node, &mut mgr, 134.0).expect("cap");
        t.join().expect("node")
    };
    let a = run_inband();
    let b = run_oob();
    // Equilibria match within the dithering band (the OOB run spent its
    // first instants uncapped, so allow slack).
    assert!((a.avg_power_w - b.avg_power_w).abs() < 4.0, "{} vs {}", a.avg_power_w, b.avg_power_w);
    assert!(a.avg_freq_mhz < 2690.0 && b.avg_freq_mhz < 2690.0);
}
