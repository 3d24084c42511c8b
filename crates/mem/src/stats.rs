//! Memory-system statistics.

use crate::audit::AuditStats;
use crate::chaos::ChaosStats;
use crate::noc::NocStats;
use crate::progress::ProgressStats;
use crate::Cycle;
use fa_trace::Hist;

fa_trace::counters! {
    /// Per-core memory counters.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct CoreMemStats {
        /// Demand reads served by the L1D.
        sum l1_hits: u64,
        /// Demand reads served by the private L2.
        sum l2_hits: u64,
        /// Demand reads served by the LLC.
        sum llc_hits: u64,
        /// Demand reads served by main memory.
        sum mem_accesses: u64,
        /// Demand reads served by a remote private cache (dirty transfer).
        sum remote_transfers: u64,
        /// External requests parked because the target line was locked.
        sum parked_on_lock: u64,
        /// Fills that had to retry because every way in the set was locked.
        sum fill_stalled_all_locked: u64,
        /// Longest cycles any single fill spent stalled on an all-ways-locked
        /// set before completing (starvation metric).
        max max_fill_stall: Cycle,
        /// Stores performed (backing store writes).
        sum stores_performed: u64,
        /// Σ interconnect transfer cycles of demand-read fills, per
        /// [`LatClass`](crate::msgs::LatClass) index (the memory-side view of
        /// where fill latency went; local L1 hits contribute 0).
        sum fill_cycles_by_class: [u64; 5],
        /// Distribution of cycles fills spent stalled on an all-ways-locked
        /// set (one sample per stalled fill, recorded at placement).
        sum fill_stall_hist: Hist,
        /// Distribution of cache-lock hold windows (one sample per outermost
        /// `lock → unlock` pair, recorded at release).
        sum lock_hold_hist: Hist,
    }
}

fa_trace::counters! {
    /// Directory / shared-level counters.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct DirStats {
        /// Directory entries evicted (inclusion back-invalidations).
        sum entry_evictions: u64,
        /// Starved requests promoted to a rescue reservation (anti-livelock
        /// valve; nonzero only under pathological allocation thrashing).
        sum alloc_rescues: u64,
    }
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
}

impl MemStats {
    /// Creates zeroed statistics for `n` cores.
    pub fn new(n: usize) -> MemStats {
        MemStats { cores: vec![CoreMemStats::default(); n], ..MemStats::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_trace::Counter;

    #[test]
    fn per_core_counters_sum_and_the_stall_high_water_mark_maxes() {
        let mut s = MemStats::new(2);
        s.cores[0].l1_hits = 5;
        s.cores[0].max_fill_stall = 9;
        s.cores[1].l1_hits = 3;
        s.cores[1].max_fill_stall = 4;
        let all = CoreMemStats::merged(&s.cores);
        assert_eq!((all.l1_hits, all.max_fill_stall), (8, 9));
    }
}
