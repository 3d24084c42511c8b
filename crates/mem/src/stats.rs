//! Memory-system statistics.

use crate::audit::AuditStats;
use crate::chaos::ChaosStats;
use crate::noc::NocStats;
use crate::progress::ProgressStats;
use crate::{Cycle, Line};
use fa_trace::Hist;

/// Per-core memory counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreMemStats {
    /// Demand reads served by the L1D.
    pub l1_hits: u64,
    /// Demand reads served by the private L2.
    pub l2_hits: u64,
    /// Demand reads served by the LLC.
    pub llc_hits: u64,
    /// Demand reads served by main memory.
    pub mem_accesses: u64,
    /// Demand reads served by a remote private cache (dirty transfer).
    pub remote_transfers: u64,
    /// Invalidations received (external writes to cached lines).
    pub invals_received: u64,
    /// External requests parked because the target line was locked.
    pub parked_on_lock: u64,
    /// Capacity evictions from the private hierarchy.
    pub evictions: u64,
    /// Fills that had to retry because every way in the set was locked.
    pub fill_stalled_all_locked: u64,
    /// Longest cycles any single fill spent stalled on an all-ways-locked
    /// set before completing (starvation metric).
    pub max_fill_stall: Cycle,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Stores performed (backing store writes).
    pub stores_performed: u64,
    /// Σ interconnect transfer cycles of demand-read fills, per
    /// [`LatClass`](crate::msgs::LatClass) index (the memory-side view of
    /// where fill latency went; local L1 hits contribute 0).
    pub fill_cycles_by_class: [u64; 5],
    /// Distribution of cycles fills spent stalled on an all-ways-locked
    /// set (one sample per stalled fill, recorded at placement).
    pub fill_stall_hist: Hist,
    /// Distribution of cache-lock hold windows (one sample per outermost
    /// `lock → unlock` pair, recorded at release).
    pub lock_hold_hist: Hist,
}

/// Directory / shared-level counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Requests processed.
    pub requests: u64,
    /// Requests parked behind a busy line.
    pub parked_busy: u64,
    /// Invalidations sent on behalf of GetX.
    pub invals_sent: u64,
    /// Downgrades sent on behalf of GetS.
    pub downgrades_sent: u64,
    /// Directory entries evicted (inclusion back-invalidations).
    pub entry_evictions: u64,
    /// Requests that waited for a directory way to free up.
    pub alloc_waits: u64,
    /// Starved requests promoted to a rescue reservation (anti-livelock
    /// valve; nonzero only under pathological allocation thrashing).
    pub alloc_rescues: u64,
}

/// Aggregated memory-system statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Per-core counters, indexed by core id.
    pub cores: Vec<CoreMemStats>,
    /// Directory counters.
    pub dir: DirStats,
    /// Total protocol messages delivered (for the energy model). Mirrors
    /// `noc.net_messages`; kept as a flat field for the energy model and
    /// existing consumers.
    pub messages: u64,
    /// Interconnect counters: per-link utilization, queue-depth histograms
    /// and per-[`LatClass`](crate::msgs::LatClass) network latency.
    pub noc: NocStats,
    /// Fault-injection counters (all zero when chaos is off).
    pub chaos: ChaosStats,
    /// Invariant-audit counters (all zero when auditing is off).
    pub audit: AuditStats,
    /// Forward-progress counters per retry site (always collected; zero
    /// on runs that never retried anything).
    pub progress: ProgressStats,
    /// The hottest locked lines across all cores, ordered by total hold
    /// cycles (descending, line address as the deterministic tiebreak),
    /// truncated to [`MemStats::HOT_LOCKS`] entries.
    pub hot_locks: Vec<HotLock>,
}

/// Contention summary for one cache line that was lock-held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotLock {
    /// Line address.
    pub line: Line,
    /// Outermost lock acquisitions.
    pub acquisitions: u64,
    /// Total cycles held locked.
    pub hold_cycles: u64,
}

impl MemStats {
    /// Entries kept in [`MemStats::hot_locks`].
    pub const HOT_LOCKS: usize = 8;

    /// Creates zeroed statistics for `n` cores.
    pub fn new(n: usize) -> MemStats {
        MemStats { cores: vec![CoreMemStats::default(); n], ..MemStats::default() }
    }

    /// Sum of demand reads across all levels and cores.
    pub fn total_demand_reads(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.l1_hits + c.l2_hits + c.llc_hits + c.mem_accesses + c.remote_transfers)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = MemStats::new(2);
        s.cores[0].l1_hits = 5;
        s.cores[1].mem_accesses = 3;
        assert_eq!(s.total_demand_reads(), 8);
    }
}
