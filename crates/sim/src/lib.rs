//! Multicore machine driver and analysis substrate for the Free Atomics
//! simulator.
//!
//! Ties [`fa_core::Core`]s to one [`fa_mem::MemorySystem`] under a
//! deterministic cycle loop ([`Machine`]), provides the paper's Table-1
//! configuration presets ([`presets`]), a McPAT-flavoured event-count energy
//! model ([`energy`]), the multi-run measurement methodology of §5.1
//! ([`methodology`]), a parallel sweep engine fanning independent
//! deterministic cells across worker threads ([`sweep`]), and a
//! verification substrate: an operational x86-TSO
//! reference enumerator ([`tsoref`]), a litmus-test harness ([`litmus`])
//! that checks the detailed simulator's outcomes against the reference,
//! under every atomic policy, and an axiomatic x86-TSO + RMW-atomicity
//! conformance checker ([`axiom`]) that validates *full* executions of
//! arbitrary workloads from their data-event streams (`FA_CHECK=tso`).

// Non-test code must justify every panic site; see the `expect` messages
// documenting each invariant. Tests keep plain unwrap for brevity.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod axiom;
pub mod energy;
pub mod env;
pub mod error;
pub mod fuzz;
pub mod litmus;
pub mod machine;
pub mod methodology;
pub mod presets;
pub mod sweep;
pub mod tsoref;

pub use axiom::{CheckReport, Execution, Violation};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::{CellFailure, RunFailure, SimError};
pub use fuzz::{fuzz_litmus, FuzzConfig, FuzzReport};
pub use litmus::{LOp, LitmusTest};
pub use machine::{Machine, MachineConfig, MachineSnapshot, RunResult};
pub use methodology::{Methodology, MultiRun};
pub use presets::{icelake_like, skylake_like, tiny_machine};
pub use sweep::{run_cells_timed, supervise, SweepTiming};

// The trace layer's user-facing types, re-exported so binaries configure
// tracing without a direct fa-trace dependency.
pub use fa_trace::{
    flight_json, validate_chrome_trace, write_id, write_id_parts, CheckMode, Counter, CpiLeaf,
    CpiStack, DataEvent, FlightEntry, Hist, Json, MemModel, SerEvent, TraceConfig, TraceMode,
    CPI_LEAVES, WRITE_ID_INIT,
};
