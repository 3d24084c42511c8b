//! Structured simulation errors.
//!
//! A run that goes wrong produces a [`SimError`] carrying a full
//! [`MachineSnapshot`](crate::machine::MachineSnapshot) — per-core ROB-head
//! micro-ops, locked lines, in-flight directory transactions — instead of a
//! bare "did not quiesce" string or a panic deep inside the hierarchy.

use crate::axiom::Violation;
use crate::machine::MachineSnapshot;
use fa_mem::{AuditViolation, ProgressReport};
use std::fmt;

/// Why a simulation run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A run stopped before it quiesced cleanly: what stopped it, and the
    /// machine as it stood then (boxed once here, so the error stays small
    /// on every healthy path that returns a `Result`).
    Run {
        /// What stopped the run.
        cause: RunFailure,
        /// Machine state when the run stopped, with the flight-recorder
        /// tail when tracing is on.
        snapshot: Box<MachineSnapshot>,
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
    /// A sweep cell has no measured result: it failed and was quarantined
    /// (the cause carries the flight-recorder snapshot for simulation
    /// errors), or it was replayed from a checkpoint journal. Raised by
    /// `fa_bench::sweep::SweepOutcome::take_results`, so a driver that needs
    /// every cell's statistics never renders a partial table.
    CellFailed {
        /// Identity of the cell, `kernel/policy/preset`.
        cell: String,
        /// Why the cell has no result.
        cause: Box<CellFailure>,
    },
}

/// What stopped a run; the [`SimError::Run`] that carries it holds the
/// machine snapshot, so no cause repeats what the snapshot says.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunFailure {
    /// The machine did not quiesce within its cycle budget.
    Timeout {
        /// Budget that was exhausted.
        max_cycles: u64,
    },
    /// The invariant auditor caught a violated coherence/locking/progress
    /// invariant (only possible when `MemConfig::audit` is enabled), at
    /// the snapshot's cycle.
    Audit(AuditViolation),
    /// The axiomatic conformance checker refuted a TSO/RMW-atomicity
    /// axiom on the completed execution (only possible when
    /// `FA_CHECK=tso` / `CheckMode::Tso` is enabled).
    Tso(Violation),
    /// The forward-progress framework detected a wedged resource: some
    /// retry site's stall counter crossed its
    /// [`ProgressConfig`](fa_mem::ProgressConfig) threshold. Raised instead
    /// of burning the rest of the cycle budget on a hang; the snapshot is
    /// the minimal stuck-resource report (locked lines, busy directory
    /// entries, stalled fills, flight-recorder tail).
    NoProgress(ProgressReport),
}

/// Why one supervised cell failed: a structured simulation error,
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
            SimError::Run { cause, snapshot } => {
                match cause {
                    RunFailure::Timeout { max_cycles } => {
                        let halted = snapshot.cores.iter().filter(|c| c.halted).count();
                        let cores = snapshot.cores.len();
                        write!(
                            f,
                            "machine did not quiesce within {max_cycles} cycles \
                             ({halted}/{cores} cores halted)"
                        )?;
                    }
                    RunFailure::Audit(v) => {
                        write!(f, "invariant audit failed at cycle {}: {v}", snapshot.cycle)?;
                    }
                    RunFailure::Tso(v) => {
                        write!(f, "TSO conformance violation (axiom {}): {}", v.axiom, v.detail)?;
                    }
                    RunFailure::NoProgress(r) => write!(f, "no forward progress at {r}")?,
                }
                write!(f, "\n{snapshot}")
            }
            SimError::InvalidMethodology { runs, drop_slowest } => write!(
                f,
                "invalid methodology: {runs} runs with {drop_slowest} dropped leaves no \
                 retained run to average"
            ),
            SimError::CellFailed { cell, cause } => write!(f, "cell {cell} failed: {cause}"),
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// The machine snapshot attached to this error, when one exists
    /// (configuration errors are raised before any machine is built).
    pub fn snapshot(&self) -> Option<&MachineSnapshot> {
        match self {
            SimError::Run { snapshot, .. } => Some(snapshot),
            SimError::InvalidMethodology { .. } => None,
            SimError::CellFailed { cause, .. } => cause.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_mem::CoreId;

    fn run(cause: RunFailure) -> SimError {
        SimError::Run { cause, snapshot: Box::default() }
    }

    #[test]
    fn a_failed_run_boxes_its_snapshot_below_the_large_error_bound() {
        // clippy's large-error threshold: the snapshot is boxed once so no
        // `Result<_, SimError>` needs another box or a size allow.
        assert!(std::mem::size_of::<SimError>() <= 128, "{}", std::mem::size_of::<SimError>());
    }

    #[test]
    fn display_includes_violation_and_snapshot() {
        let e = SimError::Run {
            cause: RunFailure::Audit(AuditViolation::LockLeak {
                line: 0x100,
                core: CoreId(1),
                held_for: 99,
                count: 1,
            }),
            snapshot: Box::new(MachineSnapshot { cycle: 42, ..MachineSnapshot::default() }),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 42") && s.contains("lock leak"));
        assert!(e.snapshot().expect("audit errors carry a snapshot").cores.is_empty());
    }

    #[test]
    fn tso_display_names_axiom_and_carries_snapshot() {
        let e = run(RunFailure::Tso(Violation {
            axiom: "rmw-atomicity",
            detail: "intervening write c1/seq 4".into(),
        }));
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
        let e = run(RunFailure::NoProgress(ProgressReport {
            site: "dir-alloc",
            observed: 5_000_123,
            threshold: 5_000_000,
        }));
        let s = e.to_string();
        assert!(s.contains("no forward progress"), "got: {s}");
        assert!(s.contains("site dir-alloc"), "got: {s}");
        assert!(s.contains("5000123") && s.contains("5000000"), "got: {s}");
        assert!(e.snapshot().is_some());
    }

    #[test]
    fn cell_failed_delegates_snapshot_through_cause() {
        let sim = SimError::CellFailed {
            cell: "TATP/FreeFwd/Tiny".into(),
            cause: Box::new(CellFailure::Sim(run(RunFailure::NoProgress(ProgressReport {
                site: "lsq-retry",
                observed: 9,
                threshold: 8,
            })))),
        };
        let s = sim.to_string();
        assert!(s.starts_with("cell TATP/FreeFwd/Tiny failed: no forward progress"), "got: {s}");
        assert!(s.contains("lsq-retry"), "got: {s}");
        assert!(sim.snapshot().is_some(), "sim causes surface their snapshot");

        let panicked = SimError::CellFailed {
            cell: "PC/Free/Icelake".into(),
            cause: Box::new(CellFailure::Panic("index out of bounds".into())),
        };
        assert!(panicked.to_string().contains("panic: index out of bounds"));
        assert!(panicked.snapshot().is_none(), "panics carry no snapshot");
    }
}
