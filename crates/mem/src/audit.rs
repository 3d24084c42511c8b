//! Cycle-level invariant auditor for the coherence/locking substrate.
//!
//! Opt-in (zero cost when [`AuditConfig::enabled`] is false): the machine
//! driver calls [`MemorySystem::audit`](crate::MemorySystem::audit) once per
//! cycle and turns any [`AuditViolation`] into a structured error instead of
//! a silent wrong result or an unexplained timeout.
//!
//! Audited invariants:
//!
//! - **SWMR** (single-writer / multiple-reader): at most one private cache
//!   holds a line in a writable MESI state, and while a writer exists no
//!   other cache holds any copy.
//! - **Directory–L1 inclusion**: every line cached privately is covered by
//!   a directory entry naming that core as a (possibly stale superset)
//!   sharer. Silent evictions make the directory a *superset*, never a
//!   subset — a missing sharer bit means invalidations cannot reach the
//!   copy.
//! - **Lock-pairing bound**: every `load_lock`-acquired line lock is
//!   eventually released by a `store_unlock` or a squash. An unpaired lock
//!   cannot be observed structurally (the controller cannot know the
//!   future), so it is audited as a *bound*: no line may stay continuously
//!   locked longer than [`AuditConfig::max_lock_hold`] cycles. The core
//!   watchdog breaks genuine deadlocks orders of magnitude sooner, so a
//!   trip here means a lock leak (an AQ/controller desync).
//! - **Forward progress** (machine level, checked by the `sim` crate): no
//!   core may go [`AuditConfig::max_core_stall`] cycles without committing
//!   an instruction while unhalted — converting silent livelock into a
//!   report naming the stuck core.

use crate::{CoreId, Cycle, Line};

/// Auditor configuration. Default: disabled, with bounds sized for the
/// stress configurations used in tests (generous enough that legal
/// contention never trips them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditConfig {
    /// Master switch. When false auditing costs nothing per cycle.
    pub enabled: bool,
    /// Maximum cycles a line may stay continuously locked by one core.
    pub max_lock_hold: Cycle,
    /// Maximum cycles an unhalted core may go without committing an
    /// instruction (enforced by the machine driver, which sees commits).
    pub max_core_stall: Cycle,
    /// Run the full state sweep only every `sweep_every` cycles (0 is
    /// treated as 1). The per-core forward-progress bound is still enforced
    /// every cycle; only the O(resident lines) coherence/lock sweep is
    /// amortized. Detection latency for a violation grows by at most
    /// `sweep_every - 1` cycles; whether a violation is caught does not
    /// change, because sweeps inspect accumulated state, not per-cycle
    /// deltas.
    pub sweep_every: Cycle,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            enabled: false,
            max_lock_hold: 100_000,
            max_core_stall: 1_000_000,
            sweep_every: 1,
        }
    }
}

impl AuditConfig {
    /// Enabled with default bounds.
    pub fn on() -> AuditConfig {
        AuditConfig { enabled: true, ..AuditConfig::default() }
    }
}

/// A violated invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// Two caches hold write permission, or a writer coexists with readers.
    MultipleWriters {
        /// The offending line.
        line: Line,
        /// Cores holding the line writable.
        writers: Vec<CoreId>,
        /// Cores holding any copy.
        holders: Vec<CoreId>,
    },
    /// A privately cached line has no covering directory sharer bit.
    InclusionHole {
        /// The offending line.
        line: Line,
        /// The core whose copy the directory does not know about.
        core: CoreId,
        /// True if the directory has no entry for the line at all.
        entry_missing: bool,
    },
    /// A line stayed locked past the configured bound — a lock leak.
    LockLeak {
        /// The locked line.
        line: Line,
        /// The core holding it.
        core: CoreId,
        /// Cycles held so far.
        held_for: Cycle,
        /// Current lock count.
        count: u32,
    },
    /// An unhalted core went too long without committing an instruction.
    NoProgress {
        /// The stuck core.
        core: CoreId,
        /// Cycles since its last commit.
        stalled_for: Cycle,
        /// Instructions it had committed by then.
        committed: u64,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::MultipleWriters { line, writers, holders } => write!(
                f,
                "SWMR violated on line {line:#x}: writers {writers:?}, holders {holders:?}"
            ),
            AuditViolation::InclusionHole { line, core, entry_missing } => write!(
                f,
                "inclusion violated on line {line:#x}: {core} holds a copy but the directory {}",
                if *entry_missing { "has no entry" } else { "does not list it as a sharer" }
            ),
            AuditViolation::LockLeak { line, core, held_for, count } => write!(
                f,
                "lock leak on line {line:#x}: {core} has held it for {held_for} cycles \
                 (count {count}) without store_unlock or squash-release"
            ),
            AuditViolation::NoProgress { core, stalled_for, committed } => write!(
                f,
                "no forward progress on {core}: {stalled_for} cycles without a commit \
                 ({committed} instructions committed so far)"
            ),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Auditor counters surfaced through [`MemStats`](crate::stats::MemStats).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Audit sweeps performed.
    pub sweeps: u64,
    /// Longest continuous lock hold observed (cycles).
    pub max_lock_hold_seen: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_on_is_on() {
        assert!(!AuditConfig::default().enabled);
        let on = AuditConfig::on();
        assert!(on.enabled);
        assert_eq!(on.max_lock_hold, AuditConfig::default().max_lock_hold);
    }

    #[test]
    fn violations_render_their_context() {
        let v = AuditViolation::MultipleWriters {
            line: 0x1c0,
            writers: vec![CoreId(0), CoreId(2)],
            holders: vec![CoreId(0), CoreId(1), CoreId(2)],
        };
        let s = v.to_string();
        assert!(s.contains("0x1c0") && s.contains("SWMR"));
        let v = AuditViolation::LockLeak { line: 0x40, core: CoreId(1), held_for: 9, count: 2 };
        assert!(v.to_string().contains("lock leak"));
        let v = AuditViolation::NoProgress { core: CoreId(3), stalled_for: 7, committed: 55 };
        assert!(v.to_string().contains("c3"));
        let v = AuditViolation::InclusionHole { line: 0x80, core: CoreId(0), entry_missing: true };
        assert!(v.to_string().contains("no entry"));
    }
}
