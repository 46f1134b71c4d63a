//! What one round of a workload yields, the measuring loop that repeats
//! rounds for the run's duration, and the metrics derived from them.

use std::time::{Duration, Instant};

use capsim_mem::MemStats;

use crate::stats::{median, tail};
use crate::trace::Spans;

/// A workload the benchmark can repeat. Its input is `INSTANCES`
/// instances, each generated from a seed derived from the run's seed.
/// One round runs one instance once (a full cap sweep, or one fleet of E
/// epochs); its simulated statistics are identical on every round of
/// that instance.
pub trait Bench {
    /// One line naming the input sizes, for the run's log.
    fn describe(&self) -> String;
    /// Set up, run and check one round of the instance seeded `seed`;
    /// `traced` installs the layer instruments.
    fn round(&self, seed: u64, traced: bool) -> Round;
}

/// Instances per run. Their contents differ with the seed, and so does
/// the host time they take (a storm's phases fall on different epochs);
/// averaging four instances keeps a run's figures close to the next
/// run's, whatever its seed.
pub const INSTANCES: usize = 4;

/// The seed of instance `k` of a run seeded `seed`.
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    capsim_policy::splitmix64(seed, k as u64)
}

/// Counts a round read from the program's own counters and the traced
/// run's decorators. Every field is a total over the round.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub apps_runs: u64,
    pub mem: MemStats,
    pub instr_committed: u64,
    pub instr_executed: u64,
    pub ticks: u64,
    pub idle_skips: u64,
    pub machine_epochs: u64,
    pub escalations: u64,
    pub deescalations: u64,
    pub decide_calls: u64,
    pub decide_ns: u64,
    pub group_calls: u64,
    pub group_ns: u64,
    pub jumps: u64,
    /// Host time inside the workload's epoch quanta, summed over nodes.
    pub quantum_ns: u64,
    /// Quantum calls and host time of request-serving workloads only.
    pub traffic_quantum_calls: u64,
    pub traffic_quantum_ns: u64,
    pub failover_ns: u64,
    pub barriers: u64,
    pub polls_skipped: u64,
    pub poll_slots: u64,
    pub pushes: u64,
    pub pushes_skipped: u64,
    pub ipmi_transactions: u64,
    pub ipmi_attempts: u64,
    pub ipmi_retries: u64,
    pub ipmi_timeouts: u64,
    pub arrivals: u64,
    pub completed: u64,
    pub shed: u64,
    pub retries: u64,
    pub obs_events: u64,
}

/// The outcome of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds of set-up (machines and apps, or the fleet build).
    pub setup_s: f64,
    /// Host seconds of each operation, in order.
    pub op_s: Vec<f64>,
    /// Host seconds of each untimed settle epoch (fleets only). The
    /// per-layer metrics cover them, since the counters do.
    pub settle_s: Vec<f64>,
    /// Operations whose identity checks failed.
    pub failed: usize,
    /// Simulated instructions committed over the round.
    pub instr: u64,
    /// Simulated node-seconds over the round.
    pub sim_node_s: f64,
    /// Digest of every simulated statistic of the round.
    pub digest: u64,
    /// Requests resolved (completed + shed); serving workloads only.
    pub resolved: u64,
    /// Nodes × epochs; fleet workloads only.
    pub node_epochs: u64,
    /// Table II error of the round's sweep; paper sweep only.
    pub table2_err: Option<f64>,
    pub spans: Spans,
    pub layers: Layers,
    /// Worker threads that stepped the round's nodes.
    pub threads: usize,
}

impl Round {
    fn timed_s(&self) -> f64 {
        self.op_s.iter().sum()
    }

    /// Host seconds of all simulation the round's counters cover.
    fn stepped_s(&self) -> f64 {
        self.timed_s() + self.settle_s.iter().sum::<f64>()
    }
}

/// Rounds of one phase (untraced or traced) of a run: round `r` ran
/// instance `r % INSTANCES`.
pub struct Phase {
    pub rounds: Vec<Round>,
    /// Process peak RSS after the warm-up round, in MiB.
    pub peak_rss_mb: f64,
}

/// Operations a phase needs so that p90 keeps ten samples beyond it.
const MIN_OPS: usize = 110;
/// Rounds a phase needs: four of each instance, so that each operation's
/// fastest repetition can discard the rounds a noisy neighbour slowed.
const MIN_ROUNDS: usize = 4 * INSTANCES;
/// Stop repeating rounds after this long whatever the other minimums
/// say, so a run on a slow host still ends in time.
const HARD_STOP: Duration = Duration::from_secs(40);

/// Run one untimed warm-up round, then repeat rounds, cycling through
/// the instances, for `seconds` of host time (and until the phase holds
/// `MIN_ROUNDS` rounds, `MIN_OPS` operations and whole cycles).
///
/// The warm-up round faults in the program's pages and the allocator's
/// heap before any timing. Peak RSS is read right after it: later rounds
/// only add allocator fragmentation, which grows with the number of
/// rounds and so with the host's speed.
pub fn measure(bench: &dyn Bench, seed: u64, seconds: f64, traced: bool) -> Result<Phase, String> {
    bench.round(instance_seed(seed, 0), traced);
    let peak_rss_mb = crate::host::peak_rss_mib()?;
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut ops = 0;
    while !rounds.len().is_multiple_of(INSTANCES)
        || ((start.elapsed().as_secs_f64() < seconds || ops < MIN_OPS || rounds.len() < MIN_ROUNDS)
            && start.elapsed() < HARD_STOP)
    {
        let r = bench.round(instance_seed(seed, rounds.len() % INSTANCES), traced);
        ops += r.op_s.len();
        rounds.push(r);
    }
    Ok(Phase { rounds, peak_rss_mb })
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.rounds.iter().map(|r| r.op_s.len()).sum()
    }

    /// The rounds of instance `k`.
    fn of(&self, k: usize) -> impl Iterator<Item = &Round> {
        self.rounds.iter().skip(k).step_by(INSTANCES)
    }

    /// Failed operations, counting every operation of a round whose
    /// digest differs from the first round of its instance (a replay
    /// that diverged).
    pub fn failed(&self) -> usize {
        (0..INSTANCES)
            .flat_map(|k| {
                let first = self.rounds[k].digest;
                self.of(k).map(move |r| if r.digest == first { r.failed } else { r.op_s.len() })
            })
            .sum()
    }

    /// One digest over the instances' digests, in instance order.
    pub fn digest(&self) -> u64 {
        let mut d = crate::stats::Digest::new();
        for r in &self.rounds[..INSTANCES] {
            d.u64(r.digest);
        }
        d.finish()
    }

    /// The fastest value of `f` over the rounds of instance `k`. Every
    /// round of an instance repeats the same simulation (the digest
    /// checks it), so its host time can only be inflated by the host: the
    /// fastest repetition is the least disturbed one.
    fn fastest(&self, k: usize, f: impl Fn(&Round) -> f64) -> f64 {
        self.of(k).map(f).fold(f64::INFINITY, f64::min)
    }

    /// Each operation's typical host seconds, instance by instance: its
    /// fastest time over the rounds of its instance.
    pub fn typical_op_s(&self) -> Vec<Vec<f64>> {
        (0..INSTANCES)
            .map(|k| {
                (0..self.rounds[k].op_s.len()).map(|i| self.fastest(k, |r| r.op_s[i])).collect()
            })
            .collect()
    }

    /// Typical set-up host seconds of one round: each instance's fastest
    /// set-up, averaged over the instances.
    pub fn setup_s(&self) -> f64 {
        (0..INSTANCES).map(|k| self.fastest(k, |r| r.setup_s)).sum::<f64>() / INSTANCES as f64
    }

    /// Every operation sample with its time replaced by its operation's
    /// typical time: the spread between operations stays, host noise
    /// goes.
    pub fn filtered_ops_s(&self) -> Vec<f64> {
        let typical = self.typical_op_s();
        (0..self.rounds.len()).flat_map(|r| typical[r % INSTANCES].iter().copied()).collect()
    }

    /// One cycle's worth of `f` (a round of each instance) per typical
    /// cycle's host seconds.
    pub fn rate(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let work: f64 = self.rounds[..INSTANCES].iter().map(f).sum();
        work / self.typical_op_s().iter().flatten().sum::<f64>()
    }

    /// Simulated million instructions per host second, the primary rate.
    pub fn sim_minstr_per_s(&self) -> f64 {
        self.rate(|r| r.instr as f64 / 1e6)
    }

    pub fn spans(self) -> Spans {
        let mut all = Spans::default();
        for r in self.rounds {
            all.absorb(r.spans);
        }
        all
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or derivation, for the log line.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Self {
        Metric { name, value, unit, note }
    }
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(p: &Phase) -> Vec<Metric> {
    let ops = p.filtered_ops_s();
    let n = p.rounds.len();
    let (pct, tail_s, beyond) = tail(&ops);
    vec![
        Metric::new("setup_s", p.setup_s(), "s", format!("typical set-up over {n} rounds")),
        Metric::new(
            "sim_minstr_per_s",
            p.sim_minstr_per_s(),
            "Minstr/s",
            format!("typical times over {n} rounds"),
        ),
        Metric::new(
            "sim_node_ms_per_s",
            p.rate(|r| r.sim_node_s * 1e3),
            "ms/s",
            format!("typical times over {n} rounds"),
        ),
        Metric::new(
            "op_ms_p50",
            median(&ops) * 1e3,
            "ms",
            format!("n={} filtered samples", ops.len()),
        ),
        Metric::new(
            "op_ms_p90",
            tail_s * 1e3,
            "ms",
            format!("p{pct} of n={} filtered samples, {beyond} beyond", ops.len()),
        ),
        Metric::new("peak_rss_mb", p.peak_rss_mb, "MiB", "VmHWM after the warm-up round".into()),
    ]
}

/// Workload-specific figures printed beside the end-to-end metrics
/// (they are zero, so not defined, on the other workloads).
pub fn workload_figures(p: &Phase) -> Vec<Metric> {
    let r0 = &p.rounds[0];
    let n = p.rounds.len();
    let mut out = Vec::new();
    if r0.node_epochs > 0 {
        out.push(Metric::new(
            "node_epochs_per_s",
            p.rate(|r| r.node_epochs as f64),
            "1/s",
            format!("typical times over {n} rounds"),
        ));
    }
    if r0.resolved > 0 {
        out.push(Metric::new(
            "requests_per_s",
            p.rate(|r| r.resolved as f64),
            "1/s",
            format!("typical times over {n} rounds"),
        ));
    }
    if r0.table2_err.is_some() {
        let errs: Vec<f64> = p.rounds[..INSTANCES].iter().filter_map(|r| r.table2_err).collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        out.push(Metric::new(
            "table2_err",
            mean,
            "ln-ratio",
            format!("mean over {INSTANCES} instances {errs:.4?}; deterministic"),
        ));
    }
    out
}

/// `num / den`, or 0 when the layer did nothing (`den == 0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced phase. Counts are per round, settle
/// epochs included; host times are per call or per epoch as the unit
/// says, over the same span of simulation as the counts.
pub fn per_layer(traced: &Phase, overhead_pct: f64) -> Vec<Metric> {
    let rounds = &traced.rounds;
    let total = |f: fn(&Layers) -> u64| rounds.iter().map(|r| f(&r.layers)).sum::<u64>() as f64;
    let per_round = |f: fn(&Layers) -> u64| total(f) / rounds.len() as f64;
    // Host time of all simulation the counts cover, and the fleet epochs
    // in it (none on the paper sweep).
    let stepped_ns = rounds.iter().map(|r| r.stepped_s()).sum::<f64>() * 1e9;
    let epochs: usize =
        rounds.iter().filter(|r| r.node_epochs > 0).map(|r| r.op_s.len() + r.settle_s.len()).sum();
    let step_ns = if epochs > 0 { stepped_ns } else { 0.0 };
    let threads = rounds[0].threads as f64;
    let quantum_ns = total(|l| l.quantum_ns);
    let self_ns = step_ns - quantum_ns / threads - total(|l| l.group_ns);
    let run_ms: Vec<f64> =
        rounds.iter().flat_map(|r| r.spans.get("Workload::run")).map(|s| s * 1e3).collect();
    let c = |name, value, unit| Metric::new(name, value, unit, String::new());
    vec![
        c("apps.run_ms_p50", median(&run_ms), "ms"),
        c("apps.runs", per_round(|l| l.apps_runs), "count"),
        c("mem.l1d_accesses", per_round(|l| l.mem.l1d_accesses), "count"),
        c("mem.l2_misses", per_round(|l| l.mem.l2_misses), "count"),
        c("mem.l3_misses", per_round(|l| l.mem.l3_misses), "count"),
        c("mem.dtlb_misses", per_round(|l| l.mem.dtlb_misses), "count"),
        c("mem.itlb_misses", per_round(|l| l.mem.itlb_misses), "count"),
        c("mem.walk_reads", per_round(|l| l.mem.walk_reads), "count"),
        c("mem.dram_reads", per_round(|l| l.mem.dram_reads), "count"),
        c("mem.host_ns_per_access", ratio(stepped_ns, total(|l| l.mem.l1d_accesses)), "ns"),
        c("cpu.instr_committed", per_round(|l| l.instr_committed), "count"),
        c("cpu.instr_executed", per_round(|l| l.instr_executed), "count"),
        c(
            "cpu.commit_ratio",
            ratio(total(|l| l.instr_committed), total(|l| l.instr_executed)),
            "ratio",
        ),
        c("cpu.host_ns_per_instr", ratio(stepped_ns, total(|l| l.instr_committed)), "ns"),
        c("node.ticks", per_round(|l| l.ticks), "count"),
        c("node.idle_skips", per_round(|l| l.idle_skips), "count"),
        c(
            "node.idle_skip_ratio",
            ratio(total(|l| l.idle_skips), total(|l| l.machine_epochs)),
            "ratio",
        ),
        c("node.bmc_escalations", per_round(|l| l.escalations), "count"),
        c("node.bmc_deescalations", per_round(|l| l.deescalations), "count"),
        c("policy.node_decide_calls", per_round(|l| l.decide_calls), "count"),
        c("policy.node_decide_ns", ratio(total(|l| l.decide_ns), total(|l| l.decide_calls)), "ns"),
        c("policy.group_allocate_calls", per_round(|l| l.group_calls), "count"),
        c(
            "policy.group_allocate_us",
            ratio(total(|l| l.group_ns), total(|l| l.group_calls)) / 1e3,
            "us",
        ),
        c("policy.jumps", per_round(|l| l.jumps), "count"),
        c("dcm.epoch_self_ms", ratio(self_ns, epochs as f64) / 1e6, "ms"),
        c("dcm.worker_busy_share", ratio(quantum_ns, step_ns * threads), "ratio"),
        c("dcm.barriers", per_round(|l| l.barriers), "count"),
        c(
            "dcm.poll_elision_ratio",
            ratio(total(|l| l.polls_skipped), total(|l| l.poll_slots)),
            "ratio",
        ),
        c(
            "dcm.push_elision_ratio",
            ratio(total(|l| l.pushes_skipped), total(|l| l.pushes + l.pushes_skipped)),
            "ratio",
        ),
        c("ipmi.attempts", per_round(|l| l.ipmi_attempts), "count"),
        c("ipmi.retries", per_round(|l| l.ipmi_retries), "count"),
        c("ipmi.timeouts", per_round(|l| l.ipmi_timeouts), "count"),
        c(
            "ipmi.success_ratio",
            ratio(total(|l| l.ipmi_transactions - l.ipmi_timeouts), total(|l| l.ipmi_transactions)),
            "ratio",
        ),
        c("traffic.quantum_calls", per_round(|l| l.traffic_quantum_calls), "count"),
        c(
            "traffic.quantum_ns",
            ratio(total(|l| l.traffic_quantum_ns), total(|l| l.traffic_quantum_calls)),
            "ns",
        ),
        c("traffic.failover_us", per_round(|l| l.failover_ns) / 1e3, "us"),
        c("traffic.arrivals", per_round(|l| l.arrivals), "count"),
        c("traffic.completed", per_round(|l| l.completed), "count"),
        c("traffic.shed", per_round(|l| l.shed), "count"),
        c("traffic.retries", per_round(|l| l.retries), "count"),
        c("traffic.goodput_ratio", ratio(total(|l| l.completed), total(|l| l.arrivals)), "ratio"),
        c("traffic.retry_ratio", ratio(total(|l| l.retries), total(|l| l.arrivals)), "ratio"),
        c("traffic.requests_per_s", traced.rate(|r| r.resolved as f64), "1/s"),
        c("obs.events", per_round(|l| l.obs_events), "count"),
        c("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// Field-wise sum of two memory-counter snapshots (the counters are
/// monotone, so the crate offers only their difference).
pub fn mem_add(a: MemStats, b: MemStats) -> MemStats {
    MemStats {
        l1d_accesses: a.l1d_accesses + b.l1d_accesses,
        l1d_misses: a.l1d_misses + b.l1d_misses,
        l1i_accesses: a.l1i_accesses + b.l1i_accesses,
        l1i_misses: a.l1i_misses + b.l1i_misses,
        l2_accesses: a.l2_accesses + b.l2_accesses,
        l2_misses: a.l2_misses + b.l2_misses,
        l3_accesses: a.l3_accesses + b.l3_accesses,
        l3_misses: a.l3_misses + b.l3_misses,
        dtlb_lookups: a.dtlb_lookups + b.dtlb_lookups,
        dtlb_misses: a.dtlb_misses + b.dtlb_misses,
        itlb_lookups: a.itlb_lookups + b.itlb_lookups,
        itlb_misses: a.itlb_misses + b.itlb_misses,
        stlb_lookups: a.stlb_lookups + b.stlb_lookups,
        stlb_misses: a.stlb_misses + b.stlb_misses,
        walk_reads: a.walk_reads + b.walk_reads,
        dram_reads: a.dram_reads + b.dram_reads,
        dram_writes: a.dram_writes + b.dram_writes,
        writebacks: a.writebacks + b.writebacks,
        prefetches: a.prefetches + b.prefetches,
    }
}
