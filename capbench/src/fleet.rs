//! The two fleet workloads. `fleet_datacenter`: a mostly idle datacenter
//! mix under an oversubscribed budget and a lossy management network.
//! `serving_storm`: the backpressure storm's request-serving fleet,
//! without its fault plan. One operation is one `Fleet::step_epoch`.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use capsim_chaos::{check_outcome, ChaosOutcome, ChaosScenario, Violation};
use capsim_dcm::fleet::{Fleet, FleetBuilder, FleetReport};
use capsim_ipmi::FaultSpec;
use capsim_node::workload::traffic_keys;
use capsim_node::{MachineConfig, WorkloadSpec};
use capsim_policy::LadderCapPolicy;
use capsim_traffic::EmergencyConfig;

use crate::bench::{mem_add, Bench, Layers, Round};
use crate::stats::Digest;
use crate::sweep::digest_mem;
use crate::trace::{Clocks, TimedFactory, TimedPolicy};

/// Which fleet, at which size.
pub struct FleetBench {
    /// The scenario the run must satisfy; it also carries the shape
    /// (nodes, epochs, epoch length, seed, budget, workload).
    scenario: ChaosScenario,
    /// Management-link faults (the scenario type has no field for them).
    faults: FaultSpec,
    /// Idle fast-forward on the nodes.
    idle_skip: bool,
    threads: usize,
}

impl FleetBench {
    /// 256 nodes of the datacenter mix at 118 W/node, with 5% of IPMI
    /// frames dropped, corrupted or delayed. Telemetry off. A 1024-node
    /// fleet (~26 MiB of node state) spread 9% between runs on a shared
    /// 2-core host where this size spreads 2%; per-node costs are the
    /// same at both sizes.
    pub fn datacenter(smoke: bool, threads: usize) -> Self {
        let (nodes, epochs) = if smoke { (16, 4) } else { (256, 128) };
        let scenario = ChaosScenario {
            name: "fleet_datacenter".into(),
            budget_w: Some(118.0 * nodes as f64),
            workload: WorkloadSpec::DatacenterMix,
            ..ChaosScenario::fast(0, nodes, epochs)
        };
        FleetBench { scenario, faults: FaultSpec::lossy(0.05), idle_skip: true, threads }
    }

    /// The backpressure storm (diurnal + flash-crowd arrivals, AIMD
    /// clients with retries, failover, brownout, breakers) on a clean
    /// network and without the chaos fault plan. Telemetry on: the
    /// request ledger lives in it. 512 nodes, because each node's AIMD
    /// and breaker thresholds trip at seed-dependent epochs: at 128 nodes
    /// the median epoch time of two seeds differed by 24%, at 512 by 5%.
    pub fn storm(smoke: bool, threads: usize) -> Self {
        let (nodes, epochs) = if smoke { (8, 8) } else { (512, 40) };
        let mut cfg = EmergencyConfig::backpressure_storm(nodes, epochs, 0);
        cfg.faults = false;
        FleetBench {
            scenario: cfg.scenario(),
            faults: FaultSpec::none(),
            idle_skip: false,
            threads,
        }
    }

    /// The scenario of the instance seeded `seed`.
    fn scenario(&self, seed: u64) -> ChaosScenario {
        ChaosScenario { seed, ..self.scenario.clone() }
    }

    /// The fleet a scenario describes, built the way the chaos runner
    /// builds it, plus the link faults; `clocks` installs the traced
    /// run's decorators.
    fn build(&self, s: &ChaosScenario, clocks: Option<&Arc<Clocks>>) -> Fleet {
        let mut base = MachineConfig::tiny(0);
        base.control_period_us = s.control_period_us;
        base.meter_window_s = s.meter_window_s;
        base.idle_skip = self.idle_skip;
        let mut b = FleetBuilder::new()
            .nodes(s.nodes)
            .epochs(s.epochs)
            .epoch_s(s.epoch_s)
            .seed(s.seed)
            .machine(base)
            .faults(self.faults)
            .observe(s.observe || clocks.is_some())
            .workload(s.workload.clone());
        if let Some(w) = s.budget_w {
            b = b.budget_w(w);
        }
        if let Some(clocks) = clocks {
            b = b
                .workload(WorkloadSpec::Custom(Arc::new(TimedFactory {
                    inner: s.workload.clone(),
                    clocks: clocks.clone(),
                })))
                .cap_policy(Box::new(TimedPolicy::new(
                    Box::new(LadderCapPolicy::new()),
                    clocks.clone(),
                )));
        }
        b.build()
    }

    fn serving(&self) -> bool {
        matches!(self.scenario.workload, WorkloadSpec::Custom(_))
    }
}

impl Bench for FleetBench {
    fn describe(&self) -> String {
        let s = &self.scenario;
        format!(
            "{} nodes x {} epochs of {} ms; budget {} W/node; workload {}; link faults {:?}; \
             idle_skip={}; threads={}",
            s.nodes,
            s.epochs,
            s.epoch_s * 1e3,
            s.budget_w.map_or(135.0, |w| w / s.nodes as f64),
            s.workload.name(),
            self.faults,
            self.idle_skip,
            self.threads
        )
    }

    fn round(&self, seed: u64, traced: bool) -> Round {
        let s = &self.scenario(seed);
        let mut r = Round { threads: self.threads, ..Round::default() };
        let clocks = Arc::new(Clocks::default());
        let mut fleet =
            r.spans.time("FleetBuilder::build", || self.build(s, traced.then_some(&clocks)));
        r.setup_s = r.spans.get("FleetBuilder::build")[0];
        // The settle epochs run before the first caps take hold (the
        // checker exempts them from cap compliance too). They are
        // simulated and checked, but not timed: timing them would mix
        // uncapped and capped epochs, whose host times differ by 30x.
        let settle = s.invariants.settle_epochs.min(s.epochs);
        for _ in 0..settle {
            r.spans.time("Fleet::step_epoch (settle)", || {
                fleet.step_epoch();
            });
        }
        let (instr0, resolved0) = totals(&fleet);
        for _ in settle..s.epochs {
            r.spans.time("Fleet::step_epoch", || {
                fleet.step_epoch();
            });
        }
        r.op_s = r.spans.get("Fleet::step_epoch").to_vec();
        r.settle_s = r.spans.get("Fleet::step_epoch (settle)").to_vec();
        let (instr1, resolved1) = totals(&fleet);
        r.instr = instr1 - instr0;
        r.resolved = resolved1 - resolved0;
        r.node_epochs = (s.nodes * r.op_s.len()) as u64;
        r.sim_node_s = r.node_epochs as f64 * s.epoch_s;

        // Untimed from here: read the nodes' counters, audit every SEL
        // over the wire while the fleet exists, then close the books.
        let mut digest = Digest::new();
        for i in 0..s.nodes {
            let m = fleet.machine(i);
            let c = m.counters_now();
            let mem = m.mem_stats_now();
            for x in [c.instructions_committed, c.instructions_executed, c.loads, c.stores] {
                digest.u64(x);
            }
            for x in [c.spec_loads, c.branches, c.branch_mispredicts, c.unhalted_cycles] {
                digest.u64(x);
            }
            digest_mem(&mut digest, &mem);
            if traced {
                r.layers.mem = mem_add(r.layers.mem, mem);
                r.layers.instr_committed += c.instructions_committed;
                r.layers.instr_executed += c.instructions_executed;
            }
        }
        let mut sel_audits = Vec::with_capacity(s.nodes);
        let mut sel_truth = Vec::with_capacity(s.nodes);
        for i in 0..s.nodes {
            let audit =
                if fleet.machine(i).bmc_crashed() { None } else { fleet.read_node_sel(i).ok() };
            sel_audits.push(audit);
            sel_truth.push(fleet.machine(i).sel().iter().copied().collect());
        }
        let report = r.spans.time("Fleet::finish", || fleet.finish());
        let outcome = ChaosOutcome { report, sel_audits, sel_truth };
        r.failed = failed_epochs(s, &outcome, settle);
        let report = &outcome.report;
        digest.bytes(report.render().as_bytes());
        if let Some(t) = report.traffic() {
            for x in [t.arrivals, t.completed, t.shed, t.slo_violations, t.retries] {
                digest.u64(x);
            }
            for x in [t.client_timeouts, t.failover, t.in_flight] {
                digest.u64(x);
            }
            for x in [t.mean_ms, t.p50_ms, t.p99_ms, t.p999_ms] {
                digest.f64(x);
            }
        }
        if let Some(p) = report.priority() {
            for c in 0..p.arrivals.len() {
                for x in [p.arrivals[c], p.completed[c], p.shed[c], p.in_flight[c]] {
                    digest.u64(x);
                }
            }
            digest.u64(p.brownout_shed);
        }
        r.digest = digest.finish();
        if traced {
            read_layers(&mut r.layers, report, &clocks, self.serving());
        }
        r
    }
}

/// Simulated instructions committed and requests resolved (completed
/// or shed) so far, summed over the fleet's nodes.
fn totals(fleet: &Fleet) -> (u64, u64) {
    let (mut instr, mut resolved) = (0, 0);
    for i in 0..fleet.len() {
        let m = fleet.machine(i);
        instr += m.counters_now().instructions_committed;
        let obs = &m.obs().metrics;
        resolved += obs.counter(traffic_keys::COMPLETED) + obs.counter(traffic_keys::SHED);
    }
    (instr, resolved)
}

/// Timed epochs whose checks failed: an epoch where a node broke its
/// cap, or every epoch when a round-wide identity (energy conservation,
/// SEL audit, request conservation) fails. A failed settle epoch counts
/// against the first timed one.
fn failed_epochs(s: &ChaosScenario, out: &ChaosOutcome, settle: u32) -> usize {
    let mut bad = vec![false; (s.epochs - settle) as usize];
    for v in check_outcome(s, out) {
        eprintln!("check failed: {}", v.to_json());
        match v {
            Violation::CapExceeded { epoch, .. } => {
                bad[epoch.saturating_sub(settle) as usize] = true
            }
            _ => bad.fill(true),
        }
    }
    if !conserved(&out.report) {
        eprintln!("check failed: request conservation");
        bad.fill(true);
    }
    bad.iter().filter(|&&b| b).count()
}

/// `arrivals == completed + shed + in_flight`, fleet-wide and per
/// priority class (vacuous for batch fleets).
fn conserved(report: &FleetReport) -> bool {
    let total = report.traffic().is_none_or(|t| t.arrivals == t.completed + t.shed + t.in_flight);
    let classes = report.priority().is_none_or(|p| {
        (0..p.arrivals.len()).all(|c| p.arrivals[c] == p.completed[c] + p.shed[c] + p.in_flight[c])
    });
    total && classes
}

fn read_layers(l: &mut Layers, report: &FleetReport, clocks: &Clocks, serving: bool) {
    let obs = report.obs.as_ref().expect("traced fleets observe");
    let m = &obs.metrics;
    l.ticks = m.counter("machine.ticks");
    l.idle_skips = m.counter("machine.idle_skips");
    l.machine_epochs = m.counter("machine.epochs");
    l.escalations = m.counter("bmc.escalations");
    l.deescalations = m.counter("bmc.deescalations");
    l.jumps = m.counter("policy.jumps");
    l.decide_calls = clocks.decide_calls.load(Relaxed);
    l.decide_ns = clocks.decide_ns.load(Relaxed);
    l.group_calls = clocks.group_calls.load(Relaxed);
    l.group_ns = clocks.group_ns.load(Relaxed);
    l.quantum_ns = clocks.quantum_ns.load(Relaxed);
    if serving {
        l.traffic_quantum_calls = clocks.quantum_calls.load(Relaxed);
        l.traffic_quantum_ns = l.quantum_ns;
    }
    l.failover_ns = clocks.failover_ns.load(Relaxed);
    l.barriers = m.counter("fleet.barriers");
    l.polls_skipped = m.counter("fleet.polls_skipped");
    l.poll_slots = (report.nodes as u64) * report.epochs as u64;
    l.pushes = m.counter("fleet.caps_pushed");
    l.pushes_skipped = m.counter("fleet.cap_pushes_skipped");
    l.ipmi_transactions = m.counter("ipmi.transactions");
    l.ipmi_attempts = m.counter("ipmi.attempts");
    l.ipmi_retries = m.counter("ipmi.retries");
    l.ipmi_timeouts = m.counter("ipmi.timeouts");
    if let Some(t) = report.traffic() {
        l.arrivals = t.arrivals;
        l.completed = t.completed;
        l.shed = t.shed;
        l.retries = t.retries;
    }
    l.obs_events = obs.events.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark builds the storm's fleet exactly as the chaos runner
    /// does, so the scenario it checks is the run it measured.
    #[test]
    fn storm_fleet_matches_the_chaos_runner() {
        let bench = FleetBench::storm(true, 2);
        let scenario = bench.scenario(3);
        let expected = capsim_chaos::run_scenario(&scenario, true).fingerprint();
        let mut fleet = bench.build(&scenario, None);
        for _ in 0..scenario.epochs {
            fleet.step_epoch();
        }
        for i in 0..scenario.nodes {
            let _ = fleet.read_node_sel(i);
        }
        let outcome =
            ChaosOutcome { report: fleet.finish(), sel_audits: Vec::new(), sel_truth: Vec::new() };
        assert_eq!(outcome.fingerprint(), expected);
    }
}
