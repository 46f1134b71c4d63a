//! The raw per-core performance-counter file and the frequency meter.
//!
//! `Machine::counters_now` sums these across cores; the fields mirror the
//! events the paper collected with PAPI on the Romley platform.
//! Memory-side events live in `capsim_mem::MemStats`; this file holds the
//! core-side ones.

/// Core-side counters. Plain data; snapshot and subtract for windows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterFile {
    /// Instructions retired (architecturally committed). Identical across
    /// power caps for a given program — the paper checks this.
    pub instructions_committed: u64,
    /// Instructions executed, including squashed wrong-path work. Differs
    /// across caps by a fraction of a percent.
    pub instructions_executed: u64,
    /// Committed loads and stores.
    pub loads: u64,
    pub stores: u64,
    /// Wrong-path (speculative, squashed) loads.
    pub spec_loads: u64,
    /// Branches and mispredictions.
    pub branches: u64,
    pub branch_mispredicts: u64,
    /// Unhalted core cycles (APERF-like; does not advance while a T-state
    /// halt window or C-state has the clock stopped).
    pub unhalted_cycles: u64,
}

impl CounterFile {
    /// Window = `self` − `earlier`.
    pub fn since(&self, earlier: &CounterFile) -> CounterFile {
        CounterFile {
            instructions_committed: self.instructions_committed - earlier.instructions_committed,
            instructions_executed: self.instructions_executed - earlier.instructions_executed,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            spec_loads: self.spec_loads - earlier.spec_loads,
            branches: self.branches - earlier.branches,
            branch_mispredicts: self.branch_mispredicts - earlier.branch_mispredicts,
            unhalted_cycles: self.unhalted_cycles - earlier.unhalted_cycles,
        }
    }

    /// Instructions per unhalted cycle.
    pub fn ipc(&self) -> f64 {
        if self.unhalted_cycles == 0 {
            0.0
        } else {
            self.instructions_committed as f64 / self.unhalted_cycles as f64
        }
    }
}

/// APERF/MPERF-style average-frequency meter.
///
/// Real tools compute "average frequency" as unhalted cycles divided by
/// unhalted time. Under T-state modulation the core is halted between
/// bursts, so this reading stays at the current P-state frequency even as
/// wall-clock execution time balloons — the signature in the paper's
/// Table II rows A7–A9/B7–B9 (frequency pinned at 1200).
#[derive(Clone, Copy, Debug, Default)]
pub struct FreqMeter {
    unhalted_cycles: f64,
    unhalted_ns: f64,
}

impl FreqMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a burst of `cycles` executed at full clock over `ns` of
    /// *unhalted* time.
    pub fn record(&mut self, cycles: f64, ns: f64) {
        debug_assert!(cycles >= 0.0 && ns >= 0.0);
        self.unhalted_cycles += cycles;
        self.unhalted_ns += ns;
    }

    /// Average frequency in MHz over everything recorded; 0 if nothing.
    pub fn avg_mhz(&self) -> f64 {
        if self.unhalted_ns == 0.0 {
            0.0
        } else {
            self.unhalted_cycles / self.unhalted_ns * 1e3
        }
    }

    /// Raw totals: (unhalted cycles, unhalted nanoseconds). Differencing
    /// two snapshots gives a windowed frequency reading, the way tools
    /// difference APERF/MPERF.
    pub fn totals(&self) -> (f64, f64) {
        (self.unhalted_cycles, self.unhalted_ns)
    }

    /// Merge another meter's window (used when averaging seeded runs).
    pub fn merge(&mut self, other: &FreqMeter) {
        self.unhalted_cycles += other.unhalted_cycles;
        self.unhalted_ns += other.unhalted_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_subtraction() {
        let a = CounterFile { instructions_committed: 100, loads: 5, ..Default::default() };
        let b = CounterFile { instructions_committed: 300, loads: 20, ..Default::default() };
        let w = b.since(&a);
        assert_eq!(w.instructions_committed, 200);
        assert_eq!(w.loads, 15);
    }

    #[test]
    fn ipc_guards_division_by_zero() {
        assert_eq!(CounterFile::default().ipc(), 0.0);
        let c =
            CounterFile { instructions_committed: 200, unhalted_cycles: 100, ..Default::default() };
        assert_eq!(c.ipc(), 2.0);
    }

    #[test]
    fn freq_meter_reads_pstate_frequency_under_duty_cycling() {
        // 1 M cycles at 1.2 GHz take 833,333 ns unhalted. Even if the core
        // was halted for 10x that in wall time, the meter must read 1200.
        let mut m = FreqMeter::new();
        m.record(1e6, 1e6 / 1200.0 * 1e3);
        assert!((m.avg_mhz() - 1200.0).abs() < 1e-6);
    }

    #[test]
    fn freq_meter_averages_dithered_pstates() {
        let mut m = FreqMeter::new();
        // Half the unhalted time at 2700, half at 1200 (time-weighted mean).
        m.record(2700.0 * 10.0, 10.0 * 1e3);
        m.record(1200.0 * 10.0, 10.0 * 1e3);
        assert!((m.avg_mhz() - (2700.0 + 1200.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn merge_combines_windows() {
        let mut a = FreqMeter::new();
        let mut b = FreqMeter::new();
        a.record(2700.0, 1e3);
        b.record(1200.0, 1e3);
        a.merge(&b);
        assert!((a.avg_mhz() - 1950.0).abs() < 1e-6);
    }
}
