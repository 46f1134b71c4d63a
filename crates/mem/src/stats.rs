//! Snapshot counters for the whole hierarchy.
//!
//! [`MemStats`] is a plain value: subtract two snapshots to get the event
//! counts in a window (`Machine::mem_stats_now` before and after a code
//! region, as the paper did with PAPI). These are the memory-side columns
//! of the paper's Table II.

use std::ops::Sub;

/// Event counts accumulated by a [`crate::hierarchy::MemoryHierarchy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand loads+stores presented to L1D.
    pub l1d_accesses: u64,
    /// L1 data-cache misses (the paper's "L1 Misses" column).
    pub l1d_misses: u64,
    /// Instruction-fetch line accesses presented to L1I.
    pub l1i_accesses: u64,
    pub l1i_misses: u64,
    /// L2 accesses (demand L1 misses + walker reads), and misses.
    pub l2_accesses: u64,
    pub l2_misses: u64,
    /// L3 accesses and misses.
    pub l3_accesses: u64,
    pub l3_misses: u64,
    /// DTLB lookups/misses (the paper's "TLB Data Misses").
    pub dtlb_lookups: u64,
    pub dtlb_misses: u64,
    /// ITLB lookups/misses (the paper's "TLB Instruction Misses").
    pub itlb_lookups: u64,
    pub itlb_misses: u64,
    /// Unified second-level TLB lookups/misses (zero when no STLB is
    /// configured).
    pub stlb_lookups: u64,
    pub stlb_misses: u64,
    /// Page-walk memory reads issued.
    pub walk_reads: u64,
    /// DRAM reads and writes (line granularity).
    pub dram_reads: u64,
    pub dram_writes: u64,
    /// Lines written back between levels.
    pub writebacks: u64,
    /// Prefetch fills issued into L2.
    pub prefetches: u64,
}

impl MemStats {
    /// Total DRAM line transfers.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }

    /// L2 miss ratio in a window; `None` if no accesses.
    pub fn l2_miss_rate(&self) -> Option<f64> {
        (self.l2_accesses > 0).then(|| self.l2_misses as f64 / self.l2_accesses as f64)
    }

    /// L3 miss ratio in a window; `None` if no accesses.
    pub fn l3_miss_rate(&self) -> Option<f64> {
        (self.l3_accesses > 0).then(|| self.l3_misses as f64 / self.l3_accesses as f64)
    }
}

impl Sub for MemStats {
    type Output = MemStats;

    fn sub(self, rhs: MemStats) -> MemStats {
        MemStats {
            l1d_accesses: self.l1d_accesses - rhs.l1d_accesses,
            l1d_misses: self.l1d_misses - rhs.l1d_misses,
            l1i_accesses: self.l1i_accesses - rhs.l1i_accesses,
            l1i_misses: self.l1i_misses - rhs.l1i_misses,
            l2_accesses: self.l2_accesses - rhs.l2_accesses,
            l2_misses: self.l2_misses - rhs.l2_misses,
            l3_accesses: self.l3_accesses - rhs.l3_accesses,
            l3_misses: self.l3_misses - rhs.l3_misses,
            dtlb_lookups: self.dtlb_lookups - rhs.dtlb_lookups,
            dtlb_misses: self.dtlb_misses - rhs.dtlb_misses,
            itlb_lookups: self.itlb_lookups - rhs.itlb_lookups,
            itlb_misses: self.itlb_misses - rhs.itlb_misses,
            stlb_lookups: self.stlb_lookups - rhs.stlb_lookups,
            stlb_misses: self.stlb_misses - rhs.stlb_misses,
            walk_reads: self.walk_reads - rhs.walk_reads,
            dram_reads: self.dram_reads - rhs.dram_reads,
            dram_writes: self.dram_writes - rhs.dram_writes,
            writebacks: self.writebacks - rhs.writebacks,
            prefetches: self.prefetches - rhs.prefetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_subtraction_yields_window_counts() {
        let a = MemStats { l1d_accesses: 100, l1d_misses: 10, ..Default::default() };
        let b = MemStats { l1d_accesses: 250, l1d_misses: 25, ..Default::default() };
        let w = b - a;
        assert_eq!(w.l1d_accesses, 150);
        assert_eq!(w.l1d_misses, 15);
    }

    #[test]
    fn miss_rates_handle_empty_windows() {
        let s = MemStats::default();
        assert_eq!(s.l2_miss_rate(), None);
        let s = MemStats { l2_accesses: 10, l2_misses: 5, ..Default::default() };
        assert_eq!(s.l2_miss_rate(), Some(0.5));
    }
}
