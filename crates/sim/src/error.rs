//! Structured simulation errors.
//!
//! A run that goes wrong produces a [`SimError`] carrying a full
//! [`MachineSnapshot`](crate::machine::MachineSnapshot) — per-core ROB-head
//! micro-ops, locked lines, in-flight directory transactions — instead of a
//! bare "did not quiesce" string or a panic deep inside the hierarchy.

use crate::machine::{MachineSnapshot, RunTimeout};
use fa_mem::AuditViolation;
use std::fmt;

/// Why a simulation run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The machine did not quiesce within its cycle budget.
    Timeout(RunTimeout),
    /// The invariant auditor caught a violated coherence/locking/progress
    /// invariant (only possible when `MemConfig::audit` is enabled).
    Audit {
        /// Cycle at which the violation was detected.
        cycle: u64,
        /// The violated invariant.
        violation: AuditViolation,
        /// Machine state at detection time.
        snapshot: MachineSnapshot,
    },
    /// The axiomatic conformance checker refuted a TSO/RMW-atomicity
    /// axiom on the completed execution (only possible when
    /// `FA_CHECK=tso` / `CheckMode::Tso` is enabled).
    Tso {
        /// Name of the violated axiom (`rf-wf`, `co-wf`,
        /// `sc-per-location`, `rmw-atomicity`, or `tso-ghb`).
        axiom: &'static str,
        /// Offending events, or the shortest violating cycle.
        detail: String,
        /// Machine state at quiescence, with the flight-recorder tail.
        snapshot: MachineSnapshot,
    },
    /// A measurement methodology that cannot produce a mean: zero runs, or
    /// `drop_slowest` discarding every run. Returned by
    /// [`Methodology::validate`](crate::methodology::Methodology::validate)
    /// before any simulation starts, so misconfigured sweeps fail loudly
    /// instead of averaging a surprising subset.
    InvalidMethodology {
        /// Configured total runs.
        runs: usize,
        /// Configured number of slowest runs to discard.
        drop_slowest: usize,
    },
    /// The forward-progress framework detected a wedged resource: some
    /// retry site's stall counter crossed its
    /// [`ProgressConfig`](fa_mem::ProgressConfig) threshold. Raised instead
    /// of burning the rest of the cycle budget on a hang.
    NoProgress {
        /// The tripped site (`core-commit`, `dir-alloc`, `cache-fill`,
        /// `lsq-retry` or `noc-backlog`).
        site: &'static str,
        /// The counter value that tripped.
        observed: u64,
        /// The configured threshold it crossed.
        threshold: u64,
        /// Machine state at detection time — the minimal stuck-resource
        /// report (locked lines, busy directory entries, stalled fills,
        /// flight-recorder tail).
        snapshot: MachineSnapshot,
    },
    /// The per-cell wall-clock watchdog expired
    /// (armed by [`set_wall_deadline`](crate::machine::set_wall_deadline);
    /// the supervised sweep runner sets it from `FA_CELL_BUDGET`).
    WallTimeout {
        /// The wall-clock budget that expired, in milliseconds.
        budget_ms: u64,
        /// Machine state when the deadline was observed.
        snapshot: MachineSnapshot,
    },
    /// A sweep cell has no measured result: it failed every attempt and
    /// was quarantined (the cause is the last attempt's failure, including
    /// the flight-recorder snapshot for simulation errors), or it was
    /// replayed from a checkpoint journal. Raised by
    /// `fa_bench::sweep::SweepOutcome::take_results`, so a driver that needs
    /// every cell's statistics never renders a partial table.
    CellFailed {
        /// Identity of the cell, `kernel/policy/preset`.
        cell: String,
        /// Attempts made (1 + retries; 0 for a journal-resumed cell).
        attempts: u32,
        /// Why the cell has no result.
        cause: Box<CellFailure>,
    },
}

/// Why one supervised cell attempt failed: a structured simulation error,
/// or a panic caught at the cell isolation boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellFailure {
    /// The cell returned a structured [`SimError`].
    Sim(SimError),
    /// The cell panicked; the payload is the panic message.
    Panic(String),
    /// The cell never ran in this process: its row was replayed from the
    /// checkpoint journal, which stores emitted rows, not run statistics.
    Resumed,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Sim(e) => e.fmt(f),
            CellFailure::Panic(msg) => write!(f, "panic: {msg}"),
            CellFailure::Resumed => {
                f.write_str("row replayed from the checkpoint journal; no measured result")
            }
        }
    }
}

impl CellFailure {
    /// The machine snapshot attached to the underlying failure, if any
    /// (panics unwound past the machine, so they carry none).
    pub fn snapshot(&self) -> Option<&MachineSnapshot> {
        match self {
            CellFailure::Sim(e) => e.snapshot(),
            CellFailure::Panic(_) | CellFailure::Resumed => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout(t) => t.fmt(f),
            SimError::Audit { cycle, violation, snapshot } => {
                write!(f, "invariant audit failed at cycle {cycle}: {violation}\n{snapshot}")
            }
            SimError::Tso { axiom, detail, snapshot } => {
                write!(f, "TSO conformance violation (axiom {axiom}): {detail}\n{snapshot}")
            }
            SimError::InvalidMethodology { runs, drop_slowest } => write!(
                f,
                "invalid methodology: {runs} runs with {drop_slowest} dropped leaves no \
                 retained run to average"
            ),
            SimError::NoProgress { site, observed, threshold, snapshot } => write!(
                f,
                "no forward progress at site {site}: observed {observed} \
                 (threshold {threshold})\n{snapshot}"
            ),
            SimError::WallTimeout { budget_ms, snapshot } => {
                write!(f, "wall-clock watchdog expired after {budget_ms} ms\n{snapshot}")
            }
            SimError::CellFailed { cell, attempts, cause } => {
                write!(f, "cell {cell} failed after {attempts} attempt(s): {cause}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<RunTimeout> for SimError {
    fn from(t: RunTimeout) -> SimError {
        SimError::Timeout(t)
    }
}

impl SimError {
    /// The machine snapshot attached to this error, when one exists
    /// (configuration errors are raised before any machine is built).
    pub fn snapshot(&self) -> Option<&MachineSnapshot> {
        match self {
            SimError::Timeout(t) => Some(&t.snapshot),
            SimError::Audit { snapshot, .. } => Some(snapshot),
            SimError::Tso { snapshot, .. } => Some(snapshot),
            SimError::InvalidMethodology { .. } => None,
            SimError::NoProgress { snapshot, .. } => Some(snapshot),
            SimError::WallTimeout { snapshot, .. } => Some(snapshot),
            SimError::CellFailed { cause, .. } => cause.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_mem::CoreId;

    #[test]
    fn display_includes_violation_and_snapshot() {
        let e = SimError::Audit {
            cycle: 42,
            violation: AuditViolation::LockLeak {
                line: 0x100,
                core: CoreId(1),
                held_for: 99,
                count: 1,
            },
            snapshot: MachineSnapshot::default(),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 42") && s.contains("lock leak"));
        assert!(e.snapshot().expect("audit errors carry a snapshot").cores.is_empty());
    }

    #[test]
    fn tso_display_names_axiom_and_carries_snapshot() {
        let e = SimError::Tso {
            axiom: "rmw-atomicity",
            detail: "intervening write c1/seq 4".into(),
            snapshot: MachineSnapshot::default(),
        };
        let s = e.to_string();
        assert!(s.contains("TSO conformance violation"), "got: {s}");
        assert!(s.contains("axiom rmw-atomicity"), "got: {s}");
        assert!(s.contains("intervening write"), "got: {s}");
        assert!(e.snapshot().is_some());
    }

    #[test]
    fn invalid_methodology_is_structured_and_snapshotless() {
        let e = SimError::InvalidMethodology { runs: 2, drop_slowest: 2 };
        assert!(e.snapshot().is_none());
        let s = e.to_string();
        assert!(s.contains("2 runs") && s.contains("2 dropped"), "got: {s}");
    }

    #[test]
    fn no_progress_display_names_site_and_thresholds() {
        let e = SimError::NoProgress {
            site: "dir-alloc",
            observed: 5_000_123,
            threshold: 5_000_000,
            snapshot: MachineSnapshot::default(),
        };
        let s = e.to_string();
        assert!(s.contains("no forward progress"), "got: {s}");
        assert!(s.contains("site dir-alloc"), "got: {s}");
        assert!(s.contains("5000123") && s.contains("5000000"), "got: {s}");
        assert!(e.snapshot().is_some());
    }

    #[test]
    fn wall_timeout_display_carries_budget_and_snapshot() {
        let e = SimError::WallTimeout { budget_ms: 1500, snapshot: MachineSnapshot::default() };
        let s = e.to_string();
        assert!(s.contains("wall-clock watchdog") && s.contains("1500 ms"), "got: {s}");
        assert!(e.snapshot().is_some());
    }

    #[test]
    fn cell_failed_delegates_snapshot_through_cause() {
        let sim = SimError::CellFailed {
            cell: "TATP/FreeFwd/Tiny".into(),
            attempts: 3,
            cause: Box::new(CellFailure::Sim(SimError::NoProgress {
                site: "lsq-retry",
                observed: 9,
                threshold: 8,
                snapshot: MachineSnapshot::default(),
            })),
        };
        let s = sim.to_string();
        assert!(s.contains("cell TATP/FreeFwd/Tiny"), "got: {s}");
        assert!(s.contains("3 attempt(s)") && s.contains("lsq-retry"), "got: {s}");
        assert!(sim.snapshot().is_some(), "sim causes surface their snapshot");

        let panicked = SimError::CellFailed {
            cell: "PC/Free/Icelake".into(),
            attempts: 1,
            cause: Box::new(CellFailure::Panic("index out of bounds".into())),
        };
        assert!(panicked.to_string().contains("panic: index out of bounds"));
        assert!(panicked.snapshot().is_none(), "panics carry no snapshot");
    }
}
