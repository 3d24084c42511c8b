//! Per-core statistics feeding every figure and table of the paper.

use fa_trace::{CpiStack, Hist};

/// Number of `fa_mem::LatClass` latency classes mirrored in the
/// per-class atomic transfer counters (indexed by `LatClass::index()`
/// at the recording site).
pub const LAT_CLASSES: usize = 5;

/// Cause of a pipeline squash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SquashCause {
    /// Branch misprediction.
    Branch,
    /// Memory-dependence violation (a store resolved under a speculatively
    /// performed younger load).
    MemOrder,
    /// Invalidation (or eviction) hit a speculatively performed load —
    /// the TSO load→load repair.
    Inval,
    /// The deadlock-avoidance watchdog fired (§3.2.5).
    Watchdog,
}

fa_trace::counters! {
    /// Counters collected by one core.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct CoreStats {
        /// Cycles the core was powered (running or sleeping).
        max cycles: u64,
        /// Cycles spent asleep in MonitorWait (the light portion of Figure 14's
        /// bars).
        sum sleep_cycles: u64,
        /// Committed instructions.
        sum instructions: u64,
        /// Committed micro-ops.
        sum uops: u64,
        /// Committed atomic RMW instructions.
        sum atomics: u64,
        /// Squashed (fetched-then-discarded) micro-ops.
        sum squashed_uops: u64,
        /// Squash events by cause.
        sum squashes_branch: u64,
        /// Squashes caused by memory-dependence violations (Table 2 "MDV").
        sum squashes_memorder: u64,
        /// Squashes caused by invalidations of performed loads.
        sum squashes_inval: u64,
        /// Watchdog flushes (Table 2 "Timeouts").
        sum watchdog_fires: u64,
        /// Fence micro-ops that retired with their ordering enforced.
        sum fences_enforced: u64,
        /// Fence micro-ops retired as no-ops by a Free policy (Table 2 "Omitted
        /// Fences").
        sum fences_omitted: u64,
        /// Σ cycles load_locks waited for the SB to drain / ordering before
        /// issue (Figure 1 "Drain_SB").
        sum atomic_drain_cycles: u64,
        /// Σ cycles from load_lock issue to store_unlock perform (Figure 1
        /// "Atomic").
        sum atomic_exec_cycles: u64,
        /// load_locks whose data came via store-to-load forwarding from a
        /// store_unlock (Table 2 "FbA").
        sum atomics_fwd_from_atomic: u64,
        /// load_locks forwarded from an ordinary store (Table 2 "FbS").
        sum atomics_fwd_from_store: u64,
        /// load_locks that found their line in the private cache with write
        /// permission (Figure 13 locality, L1/L2 component).
        sum atomics_local_wp: u64,
        /// Branch lookups/mispredicts (copied from the predictor at the end).
        sum branch_lookups: u64,
        /// Mispredicted branches.
        sum branch_mispredicts: u64,
        /// MonitorWait sleeps entered.
        sum monitor_sleeps: u64,
        /// Distribution of per-atomic SB-drain waits (the population whose sum
        /// is `atomic_drain_cycles`; log₂ buckets, deterministic merge).
        sum atomic_drain_hist: Hist,
        /// Distribution of per-atomic load_lock-issue → store_unlock-perform
        /// windows (the population whose sum is `atomic_exec_cycles`).
        sum atomic_exec_hist: Hist,
        /// Top-down cycle accounting: every powered cycle attributed to
        /// exactly one taxonomy leaf. Invariant: `cpi.total() == cycles`.
        sum cpi: CpiStack,
        /// Σ cycles atomics spent acquiring the cache-line lock after the
        /// fill arrived at the directory side (exec minus transfer, park and
        /// local execute). Part of the atomic-lifetime split:
        /// `atomic_exec_cycles == acquire + Σ xfer + park + local` for
        /// cache-served atomics (forwarded atomics contribute only `local`).
        sum atomic_lock_acquire_cycles: u64,
        /// Σ remote-line transfer cycles per `LatClass` (NoC injection stamp →
        /// delivery, from the fill response), indexed by `LatClass::index()`.
        sum atomic_xfer_cycles: [u64; LAT_CLASSES],
        /// Σ cycles atomics' fill requests sat parked behind a busy directory
        /// entry before being granted.
        sum atomic_dir_park_cycles: u64,
        /// Σ cycles from lock acquisition to `store_unlock` perform (the local
        /// execute portion of the atomic window).
        sum atomic_local_cycles: u64,
    }
}

impl CoreStats {
    /// Records a squash event of `cause` covering `uops` micro-ops.
    pub fn record_squash(&mut self, cause: SquashCause, uops: u64) {
        self.squashed_uops += uops;
        match cause {
            SquashCause::Branch => self.squashes_branch += 1,
            SquashCause::MemOrder => self.squashes_memorder += 1,
            SquashCause::Inval => self.squashes_inval += 1,
            SquashCause::Watchdog => self.watchdog_fires += 1,
        }
    }

    /// Total squash events.
    pub fn total_squashes(&self) -> u64 {
        self.squashes_branch + self.squashes_memorder + self.squashes_inval + self.watchdog_fires
    }

    /// Committed atomics per kilo-instruction (Figure 12).
    pub fn apki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.atomics as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fraction of fences omitted (Table 2, col. 2).
    pub fn omitted_fence_ratio(&self) -> f64 {
        let total = self.fences_enforced + self.fences_omitted;
        if total == 0 {
            0.0
        } else {
            self.fences_omitted as f64 / total as f64
        }
    }

    /// Mean Figure-1 cost per atomic: (drain, exec).
    pub fn atomic_cost(&self) -> (f64, f64) {
        if self.atomics == 0 {
            (0.0, 0.0)
        } else {
            (
                self.atomic_drain_cycles as f64 / self.atomics as f64,
                self.atomic_exec_cycles as f64 / self.atomics as f64,
            )
        }
    }

    /// Figure-13 locality ratio and its forwarded component:
    /// `(total_ratio, forwarded_ratio)`.
    pub fn atomic_locality(&self) -> (f64, f64) {
        if self.atomics == 0 {
            return (0.0, 0.0);
        }
        let fwd = (self.atomics_fwd_from_atomic + self.atomics_fwd_from_store) as f64;
        let local = self.atomics_local_wp as f64;
        ((fwd + local) / self.atomics as f64, fwd / self.atomics as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_trace::Counter;

    #[test]
    fn apki_and_ratios() {
        let s = CoreStats {
            instructions: 2000,
            atomics: 3,
            fences_enforced: 1,
            fences_omitted: 3,
            ..CoreStats::default()
        };
        assert!((s.apki() - 1.5).abs() < 1e-9);
        assert!((s.omitted_fence_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn squash_recording() {
        let mut s = CoreStats::default();
        s.record_squash(SquashCause::Branch, 10);
        s.record_squash(SquashCause::MemOrder, 5);
        s.record_squash(SquashCause::Watchdog, 2);
        assert_eq!(s.squashed_uops, 17);
        assert_eq!(s.total_squashes(), 3);
        assert_eq!(s.watchdog_fires, 1);
    }

    #[test]
    fn locality_split() {
        let s = CoreStats {
            atomics: 10,
            atomics_local_wp: 4,
            atomics_fwd_from_atomic: 3,
            atomics_fwd_from_store: 1,
            ..CoreStats::default()
        };
        let (total, fwd) = s.atomic_locality();
        assert!((total - 0.8).abs() < 1e-9);
        assert!((fwd - 0.4).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_and_maxes_cycles() {
        let mut a = CoreStats { cycles: 10, instructions: 5, ..CoreStats::default() };
        let b = CoreStats { cycles: 20, instructions: 7, ..CoreStats::default() };
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.instructions, 12);
    }

    #[test]
    fn merge_sums_cpi_and_atomic_split_element_wise() {
        use fa_trace::CpiLeaf;
        let mut a = CoreStats {
            atomic_lock_acquire_cycles: 3,
            atomic_xfer_cycles: [1, 0, 0, 2, 0],
            atomic_dir_park_cycles: 5,
            atomic_local_cycles: 7,
            ..CoreStats::default()
        };
        a.cpi.add(CpiLeaf::Commit, 4);
        let mut b = CoreStats {
            atomic_lock_acquire_cycles: 10,
            atomic_xfer_cycles: [0, 0, 6, 0, 0],
            ..CoreStats::default()
        };
        b.cpi.add(CpiLeaf::Idle, 9);
        a.merge(&b);
        assert_eq!(a.cpi.get(CpiLeaf::Commit), 4);
        assert_eq!(a.cpi.get(CpiLeaf::Idle), 9);
        assert_eq!(a.atomic_lock_acquire_cycles, 13);
        assert_eq!(a.atomic_xfer_cycles, [1, 0, 6, 2, 0]);
        assert_eq!(a.atomic_dir_park_cycles, 5);
        assert_eq!(a.atomic_local_cycles, 7);
    }
}
