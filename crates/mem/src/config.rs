//! Memory-hierarchy configuration.

use crate::audit::AuditConfig;
use crate::chaos::ChaosConfig;
use crate::noc::NocConfig;
use crate::progress::ProgressConfig;
use fa_trace::{CheckMode, TraceConfig};

/// Prefetch degree: lines fetched ahead on a detected stride.
pub(crate) const PREFETCH_DEGREE: usize = 2;

/// Geometry and latency parameters for the memory system.
///
/// Defaults mirror the paper's Table 1 (an Icelake-like part at ~2 GHz).
/// Construct with [`MemConfig::default`] and adjust fields, e.g.:
///
/// ```
/// let cfg = fa_mem::MemConfig { l1_ways: 2, l1_sets: 4, ..Default::default() };
/// assert_eq!(cfg.l1_ways, 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// L1D sets (default 64: 48 KB / 64 B / 12 ways).
    pub l1_sets: usize,
    /// L1D associativity (default 12).
    pub l1_ways: usize,
    /// L1D hit latency in cycles (default 4, pipelined).
    pub l1_lat: u64,
    /// Private L2 sets (default 512: 256 KB / 64 B / 8 ways).
    pub l2_sets: usize,
    /// Private L2 associativity (default 8).
    pub l2_ways: usize,
    /// L2 hit latency in cycles (tags + data; default 14).
    pub l2_lat: u64,
    /// Shared LLC sets (default 16384: 16 MB / 64 B / 16 ways).
    pub llc_sets: usize,
    /// LLC associativity (default 16).
    pub llc_ways: usize,
    /// LLC data latency in cycles (default 45).
    pub llc_lat: u64,
    /// Directory sets. Default sized for 400 % coverage of one core's
    /// private lines × 32 cores (Table 1): 32768 sets × 16 ways.
    pub dir_sets: usize,
    /// Directory associativity (default 16).
    pub dir_ways: usize,
    /// Directory tag latency in cycles (default 5).
    pub dir_lat: u64,
    /// Main-memory access latency in cycles (default 160 ≈ 80 ns @ 2 GHz).
    pub mem_lat: u64,
    /// One-way network hop latency, core ↔ LLC/directory (default 8).
    pub net_lat: u64,
    /// Interconnect model (default: ideal crossbar — fixed `net_lat`,
    /// infinite bandwidth, bit-identical to the pre-NoC message path).
    pub noc: NocConfig,
    /// MSHRs per private cache (default 16).
    pub mshrs: usize,
    /// Enable the L1 stride prefetcher (Table 1; default true).
    pub stride_prefetch: bool,
    /// Deterministic fault injection (default: off).
    pub chaos: ChaosConfig,
    /// Cycle-level invariant auditing (default: off).
    pub audit: AuditConfig,
    /// Structured event tracing (default: off). Latency histograms are
    /// collected regardless of this mode; only event recording is gated.
    pub trace: TraceConfig,
    /// End-of-run axiomatic conformance checking (default: off). With
    /// `Tso`, the memory system logs the global write-serialization order
    /// and per-line directory write-epochs for the `sim::axiom` checker.
    pub check: CheckMode,
    /// Forward-progress escalation thresholds (default: wedge-sized, so
    /// no forward-progressing run reaches them). The underlying counters
    /// are collected unconditionally; the thresholds only decide when a
    /// run escalates, so they never perturb results.
    pub progress: ProgressConfig,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            l1_sets: 64,
            l1_ways: 12,
            l1_lat: 4,
            l2_sets: 512,
            l2_ways: 8,
            l2_lat: 14,
            llc_sets: 16384,
            llc_ways: 16,
            llc_lat: 45,
            dir_sets: 32768,
            dir_ways: 16,
            dir_lat: 5,
            mem_lat: 160,
            net_lat: 8,
            noc: NocConfig::default(),
            mshrs: 16,
            stride_prefetch: true,
            chaos: ChaosConfig::default(),
            audit: AuditConfig::default(),
            trace: TraceConfig::default(),
            check: CheckMode::default(),
            progress: ProgressConfig::default(),
        }
    }
}

impl MemConfig {
    /// A deliberately tiny hierarchy for stress tests: 2-way 4-set L1,
    /// 4-way 8-set L2, 4-way 8-set directory. Exposes eviction livelocks,
    /// all-ways-locked stalls and inclusion deadlocks quickly.
    pub fn tiny() -> MemConfig {
        MemConfig {
            l1_sets: 4,
            l1_ways: 2,
            l2_sets: 8,
            l2_ways: 4,
            llc_sets: 16,
            llc_ways: 4,
            dir_sets: 8,
            dir_ways: 4,
            mshrs: 4,
            stride_prefetch: false,
            ..MemConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1_geometry() {
        let c = MemConfig::default();
        // 48 KB L1: 64 sets * 12 ways * 64 B
        assert_eq!(c.l1_sets * c.l1_ways * 64, 48 * 1024);
        // 256 KB L2
        assert_eq!(c.l2_sets * c.l2_ways * 64, 256 * 1024);
        // 16 MB LLC
        assert_eq!(c.llc_sets * c.llc_ways * 64, 16 * 1024 * 1024);
    }

    #[test]
    fn tiny_is_small() {
        let c = MemConfig::tiny();
        assert!(c.l1_sets * c.l1_ways <= 8);
    }

    #[test]
    fn chaos_and_audit_default_off() {
        let c = MemConfig::default();
        assert!(!c.chaos.enabled);
        assert!(!c.audit.enabled);
    }

    #[test]
    fn progress_escalation_defaults_on_with_wedge_sized_thresholds() {
        let c = MemConfig::default();
        assert!(c.progress.stall_cycles >= 1_000_000);
        assert!(c.progress.max_attempts >= 1_000_000);
        assert!(c.progress.max_backlog >= 1_000_000);
    }

    #[test]
    fn noc_defaults_to_ideal_crossbar() {
        let c = MemConfig::default();
        assert_eq!(c.noc.policy, crate::noc::XbarPolicy::Ideal);
        let n = NocConfig::contended(0);
        assert_eq!(n.policy, crate::noc::XbarPolicy::Contended);
        assert_eq!(n.link_bw, 1, "bandwidth is clamped to at least one flit/cycle");
    }
}
