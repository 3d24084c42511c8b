//! Cycle-level invariant auditor for the coherence/locking substrate.
//!
//! Opt-in (zero cost when [`AuditConfig::enabled`] is false): the machine
//! driver calls [`MemorySystem::audit`](crate::MemorySystem::audit) after
//! every tick and every jump and turns any [`AuditViolation`] into a
//! structured error instead of a silent wrong result or an unexplained
//! timeout. Every cycle is audited: across a jumped span no event is
//! delivered and no core steps, so only lock ages move, and
//! [`MemorySystem::next_event_at`](crate::MemorySystem::next_event_at)
//! ends the span before the cycle the oldest lock would trip its bound.
//! The audit at the landing cycle is the verdict of the whole span. The
//! SWMR and inclusion sweep likewise runs only after a cycle that changed
//! cache or directory state; a clean cycle's audit only ages the locks.
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
//!   locked longer than [`AuditConfig::max_lock_hold`] cycles. A hold is
//!   measured from the cache's own record of the cycle it opened (its
//!   outermost acquisition), so a line released and re-taken within one
//!   cycle starts a new hold. The core watchdog breaks genuine deadlocks
//!   orders of magnitude sooner, so a trip here means a lock leak (an
//!   AQ/controller desync).
//!
//! A core that stops committing is not the auditor's to catch: the progress
//! layer's `core-commit` site does that for audited and unaudited runs
//! alike ([`ProgressConfig::stall_cycles`](crate::ProgressConfig)).

use crate::{CoreId, Cycle, Line};

/// Auditor configuration. Default: disabled, with a bound sized for the
/// stress configurations used in tests (generous enough that legal
/// contention never trips it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditConfig {
    /// Master switch. When false auditing costs nothing per cycle; when
    /// true every cycle is audited.
    pub enabled: bool,
    /// Maximum cycles a line may stay continuously locked by one core.
    pub max_lock_hold: Cycle,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig { enabled: false, max_lock_hold: 100_000 }
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
        }
    }
}

impl std::error::Error for AuditViolation {}

fa_trace::counters! {
    /// Auditor counters surfaced through [`MemStats`](crate::stats::MemStats).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct AuditStats {
        /// Longest continuous lock hold observed (cycles).
        max max_lock_hold_seen: Cycle,
    }
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
        let v = AuditViolation::InclusionHole { line: 0x80, core: CoreId(0), entry_missing: true };
        assert!(v.to_string().contains("no entry"));
    }
}
