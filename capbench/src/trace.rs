//! The traced run's instruments: decorators that time calls into the
//! workload and capping-policy layers from outside, and span and count
//! collectors for the layers the benchmark calls directly.
//!
//! A decorator keeps its counts in plain fields while the fleet owns it
//! and adds them to the shared [`Clocks`] when it is dropped, so worker
//! threads never contend on a shared counter. A span from outside covers
//! everything beneath it: a timed quantum includes the node's charge
//! path and any control ticks (and policy decisions) it triggers.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use capsim_node::{
    EpochWorkload, FailoverRequest, Machine, QueueRoom, WorkloadFactory, WorkloadSpec,
};
use capsim_policy::{CapDecision, CapPolicy, GroupDemand, NodeCapView};

/// Host time and call counts gathered by the decorators of one round.
/// Statistics only: `Relaxed` is enough, nothing is published through
/// them, and they are read after the fleet that updates them is gone.
#[derive(Debug, Default)]
pub struct Clocks {
    pub quantum_calls: AtomicU64,
    pub quantum_ns: AtomicU64,
    pub failover_ns: AtomicU64,
    pub decide_calls: AtomicU64,
    pub decide_ns: AtomicU64,
    pub group_calls: AtomicU64,
    pub group_ns: AtomicU64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A [`WorkloadSpec::Custom`] factory that builds the real spec's
/// workload and times it.
#[derive(Debug)]
pub struct TimedFactory {
    pub inner: WorkloadSpec,
    pub clocks: Arc<Clocks>,
}

impl WorkloadFactory for TimedFactory {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(&self, m: &mut Machine, index: usize, seed: u64) -> Box<dyn EpochWorkload> {
        Box::new(TimedWorkload {
            inner: self.inner.build_for(m, index, seed),
            clocks: self.clocks.clone(),
            quantum_calls: 0,
            quantum_ns: 0,
            failover_ns: 0,
        })
    }
}

struct TimedWorkload {
    inner: Box<dyn EpochWorkload>,
    clocks: Arc<Clocks>,
    quantum_calls: u64,
    quantum_ns: u64,
    failover_ns: u64,
}

impl EpochWorkload for TimedWorkload {
    fn quantum(&mut self, m: &mut Machine) {
        let t = Instant::now();
        self.inner.quantum(m);
        self.quantum_ns += ns_since(t);
        self.quantum_calls += 1;
    }

    fn queue_room(&self) -> Option<QueueRoom> {
        self.inner.queue_room()
    }

    fn drain_shed(&mut self) -> Vec<FailoverRequest> {
        let t = Instant::now();
        let shed = self.inner.drain_shed();
        self.failover_ns += ns_since(t);
        shed
    }

    fn accept_failover(&mut self, m: &mut Machine, req: FailoverRequest) -> bool {
        let t = Instant::now();
        let taken = self.inner.accept_failover(m, req);
        self.failover_ns += ns_since(t);
        taken
    }

    fn finish(&mut self, m: &mut Machine) {
        self.inner.finish(m);
    }
}

impl Drop for TimedWorkload {
    fn drop(&mut self) {
        self.clocks.quantum_calls.fetch_add(self.quantum_calls, Relaxed);
        self.clocks.quantum_ns.fetch_add(self.quantum_ns, Relaxed);
        self.clocks.failover_ns.fetch_add(self.failover_ns, Relaxed);
    }
}

/// A [`CapPolicy`] that delegates to another and times both halves.
/// Every forwarded method keeps the inner policy's behaviour, so a run
/// under the decorator is bit-identical to one under the inner policy.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn CapPolicy>,
    clocks: Arc<Clocks>,
    decide_calls: u64,
    decide_ns: u64,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn CapPolicy>, clocks: Arc<Clocks>) -> Self {
        TimedPolicy { inner, clocks, decide_calls: 0, decide_ns: 0 }
    }
}

impl CapPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn node_decide(&mut self, view: &NodeCapView) -> CapDecision {
        let t = Instant::now();
        let d = self.inner.node_decide(view);
        self.decide_ns += ns_since(t);
        self.decide_calls += 1;
        d
    }

    fn group_allocate(&self, budget_w: f64, demand: &[GroupDemand], floor_w: f64) -> Vec<f64> {
        // Called serially at the root barrier, so the shared counters see
        // no contention here.
        let t = Instant::now();
        let caps = self.inner.group_allocate(budget_w, demand, floor_w);
        self.clocks.group_ns.fetch_add(ns_since(t), Relaxed);
        self.clocks.group_calls.fetch_add(1, Relaxed);
        caps
    }

    fn wants_tail(&self) -> bool {
        self.inner.wants_tail()
    }

    fn node_quiescent(&self, window_avg_w: f64, cap_w: Option<f64>, hysteresis_w: f64) -> bool {
        self.inner.node_quiescent(window_avg_w, cap_w, hysteresis_w)
    }

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    fn clone_box(&self) -> Box<dyn CapPolicy> {
        Box::new(TimedPolicy::new(self.inner.clone_box(), self.clocks.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.clocks.decide_calls.fetch_add(self.decide_calls, Relaxed);
        self.clocks.decide_ns.fetch_add(self.decide_ns, Relaxed);
    }
}

/// Host-time spans by name, kept in memory and printed when the run
/// ends. Every span the benchmark records has one parent, the round.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.entry(name).or_default().push(t.elapsed().as_secs_f64());
        out
    }

    pub fn absorb(&mut self, other: Spans) {
        for (name, mut v) in other.0 {
            self.0.entry(name).or_default().append(&mut v);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// One line per span name: count, total and median host time.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.0 {
            let total: f64 = v.iter().sum();
            s.push_str(&format!(
                "span {name:<24} n={:<6} total_ms={:<12.3} p50_ms={:.4}\n",
                v.len(),
                total * 1e3,
                crate::stats::median(v) * 1e3
            ));
        }
        s
    }
}
