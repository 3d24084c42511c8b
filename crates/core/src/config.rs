//! Core configuration and the atomic RMW execution policies.

use fa_trace::{CheckMode, MemModel, TraceConfig};

/// How atomic RMW instructions execute — the paper's iteratively built
/// flavours (§3, evaluated in Figure 14).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AtomicPolicy {
    /// The x86-documented baseline: the store buffer drains before the
    /// `load_lock` issues, the `load_lock` issues only at the ROB head
    /// (never speculated), and younger loads stall until the RMW commits.
    FencedBaseline,
    /// "baseline+Spec" (§3.1): fences stay, but the RMW may issue from a
    /// control-speculative path, acquiring the `unlock_on_squash`
    /// responsibility.
    FencedSpec,
    /// Free atomics (§3.2): fences removed; `load_lock` issues speculatively
    /// and out of order; multiple lines may be locked concurrently; the RMW
    /// commits only once the store buffer is empty. No store-to-load
    /// forwarding to/from atomics (overlapping `load_lock`s re-schedule).
    Free,
    /// Free atomics + store-to-load forwarding (§3.3): `load_lock` may
    /// forward from a `store_unlock` (`do_not_unlock`) or an ordinary store
    /// (`lock_on_access`), with bounded forwarding chains.
    FreeFwd,
}

impl AtomicPolicy {
    /// True for the two policies that keep the surrounding fences.
    pub fn fenced(self) -> bool {
        matches!(self, AtomicPolicy::FencedBaseline | AtomicPolicy::FencedSpec)
    }

    /// True when `load_lock` may issue speculatively (not at ROB head).
    pub fn speculative_atomics(self) -> bool {
        !matches!(self, AtomicPolicy::FencedBaseline)
    }

    /// True when store-to-load forwarding to/from atomics is allowed.
    pub fn atomic_forwarding(self) -> bool {
        matches!(self, AtomicPolicy::FreeFwd)
    }

    /// All four policies in evaluation order (the Figure-14 bars).
    pub const ALL: [AtomicPolicy; 4] = [
        AtomicPolicy::FencedBaseline,
        AtomicPolicy::FencedSpec,
        AtomicPolicy::Free,
        AtomicPolicy::FreeFwd,
    ];

    /// Short label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            AtomicPolicy::FencedBaseline => "baseline",
            AtomicPolicy::FencedSpec => "baseline+Spec",
            AtomicPolicy::Free => "FreeAtomics",
            AtomicPolicy::FreeFwd => "FreeAtomics+Fwd",
        }
    }
}

/// Front-end refill penalty after a squash, in cycles.
pub(crate) const REDIRECT_PENALTY: u64 = 10;
/// Integer ALU latency.
pub(crate) const ALU_LAT: u64 = 1;
/// Multiplier latency.
pub(crate) const MUL_LAT: u64 = 3;
/// Store-to-load forwarding latency.
pub(crate) const FWD_LAT: u64 = 4;
/// `Pause` spin-hint stall, in cycles.
pub(crate) const PAUSE_LAT: u64 = 8;
/// MonitorWait periodic re-check interval (models the timer interrupt
/// that bounds MWAIT sleeps), in cycles.
pub(crate) const MONITOR_TIMEOUT: u64 = 1024;

/// Out-of-order core parameters. Defaults follow Table 1 (Icelake-like).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched/decoded per cycle (Table 1: 5).
    pub fetch_width: usize,
    /// Micro-ops issued per cycle (Table 1: 10).
    pub issue_width: usize,
    /// Micro-ops committed per cycle (Table 1: 10).
    pub commit_width: usize,
    /// Reorder-buffer capacity in micro-ops (Icelake: 352; Skylake: 224).
    pub rob_size: usize,
    /// Load-queue entries (Table 1: 128).
    pub lq_size: usize,
    /// Store-queue entries, committed store-buffer portion included
    /// (Table 1: 72).
    pub sq_size: usize,
    /// Atomic Queue entries (§4.3: 4).
    pub aq_size: usize,
    /// Atomic execution policy.
    pub policy: AtomicPolicy,
    /// Watchdog threshold in cycles (§3.2.5: 10 000).
    pub watchdog_threshold: u64,
    /// Maximum consecutive atomic forwardings (§3.3.4: 32).
    pub fwd_chain_max: u32,
    /// Branch-predictor global-history bits.
    pub bp_history_bits: u32,
    /// log2 of branch-predictor table entries.
    pub bp_table_bits: u32,
    /// Structured event tracing (default: off). Latency histograms are
    /// collected regardless of this mode; only event recording is gated.
    pub trace: TraceConfig,
    /// End-of-run axiomatic conformance checking (default: off). With
    /// `Tso`, the commit path logs per-access data events for the
    /// `sim::axiom` checker; collection is passive and never perturbs
    /// simulated state.
    pub check: CheckMode,
    /// Memory consistency model the frontend implements (default: TSO).
    /// Under [`MemModel::Weak`] the LSQ/SB rules honour the per-access
    /// [`fa_isa::MemOrder`] annotations; under TSO the annotations are
    /// inert and behaviour is bit-identical to the pre-annotation core.
    pub model: MemModel,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            fetch_width: 5,
            issue_width: 10,
            commit_width: 10,
            rob_size: 352,
            lq_size: 128,
            sq_size: 72,
            aq_size: 4,
            policy: AtomicPolicy::FencedBaseline,
            watchdog_threshold: 10_000,
            fwd_chain_max: 32,
            bp_history_bits: 12,
            bp_table_bits: 12,
            trace: TraceConfig::default(),
            check: CheckMode::default(),
            model: MemModel::default(),
        }
    }
}

impl CoreConfig {
    /// Returns a copy with the given policy.
    pub fn with_policy(mut self, policy: AtomicPolicy) -> CoreConfig {
        self.policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_predicates() {
        use AtomicPolicy::*;
        assert!(FencedBaseline.fenced() && FencedSpec.fenced());
        assert!(!Free.fenced() && !FreeFwd.fenced());
        assert!(!FencedBaseline.speculative_atomics());
        assert!(FencedSpec.speculative_atomics());
        assert!(FreeFwd.atomic_forwarding());
        assert!(!Free.atomic_forwarding());
        assert_eq!(AtomicPolicy::ALL.len(), 4);
    }

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        assert_eq!(c.rob_size, 352);
        assert_eq!(c.sq_size, 72);
        assert_eq!(c.lq_size, 128);
        assert_eq!(c.aq_size, 4);
        assert_eq!(c.watchdog_threshold, 10_000);
        assert_eq!(c.fwd_chain_max, 32);
    }
}
