//! Synthetic workload suite for the Free Atomics simulator.
//!
//! Twenty-six kernels named after the paper's evaluated applications
//! (SPLASH-3, PARSEC-3 and the write-intensive suite of Gogte et al. /
//! Kolli et al.), written in the guest ISA through the [`Kasm`] assembler.
//! The kernels are *synthetic proxies*: they reproduce each application's
//! synchronization idiom (locks, barriers, pure atomics), its
//! atomics-per-kilo-instruction rate (Figure 12), its lock locality, and its
//! store-buffer pressure — the properties Free Atomics' gains depend on —
//! not its numerical output.
//!
//! [`Kasm`]: fa_isa::Kasm
//!
//! # Example
//!
//! ```
//! use fa_workloads::{suite, WorkloadParams};
//!
//! let spec = suite::by_name("canneal").unwrap();
//! let w = spec.build(&WorkloadParams { cores: 4, scale: 0.1, seed: 42 });
//! assert_eq!(w.programs.len(), 4);
//! ```

pub mod kernels;
pub mod runtime;
pub mod suite;

use fa_isa::interp::GuestMem;
use fa_isa::Program;

/// Parameters every workload builder receives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Number of hardware threads (= cores); the paper evaluates 32.
    pub cores: usize,
    /// Work multiplier: 1.0 ≈ a few hundred thousand instructions per
    /// core. Benchmarks shrink it to fit wall-clock budgets.
    pub scale: f64,
    /// Seed for data and access-pattern randomization.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> WorkloadParams {
        WorkloadParams { cores: 32, scale: 1.0, seed: 0xF00D }
    }
}

/// A built workload: one program per core plus initialized guest memory.
#[derive(Clone, Debug)]
pub struct Workload {
    /// One program per core.
    pub programs: Vec<Program>,
    /// Initialized guest memory.
    pub mem: GuestMem,
}

/// A workload of the suite: a reference to its row of [`suite::SUITE`],
/// which carries the public `name` and `atomic_intensive` and builds it.
pub type WorkloadSpec = &'static suite::Entry;

/// Guest memory size every workload uses (4 MiB).
pub const WORKLOAD_MEM_BYTES: u64 = 4 << 20;
