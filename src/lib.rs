//! # Free Atomics — a cycle-level reproduction
//!
//! This crate reproduces **"Free Atomics: Hardware Atomic Operations
//! without Fences"** (Asgharzadeh, Cebrian, Perais, Kaxiras, Ros —
//! ISCA 2022): a deterministic cycle-level multicore out-of-order simulator
//! with directory-based MESI coherence and cache locking, four atomic-RMW
//! execution policies (from the fenced x86 baseline to Free Atomics with
//! store-to-load forwarding to/from atomics), a 26-application synthetic
//! workload suite, and a benchmark harness regenerating every table and
//! figure of the paper's evaluation.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`isa`] — guest ISA, micro-ops, assembler, golden-model interpreter
//! * [`mem`] — caches, coherence, cache locking, interconnect
//! * [`core`] — the out-of-order core, Atomic Queue and policies
//! * [`sim`] — machine driver, presets, energy model, litmus + TSO oracle
//! * [`workloads`] — the 26-kernel suite
//!
//! # Quickstart
//!
//! Run a contended fetch-add counter on four cores under two policies:
//!
//! ```
//! use free_atomics::prelude::*;
//!
//! // Guest kernel: 100 atomic increments of a shared counter.
//! let mut k = Kasm::new();
//! k.li(Reg::R1, 0x100);
//! k.li(Reg::R2, 1);
//! k.li(Reg::R3, 0);
//! let top = k.here_label();
//! k.fetch_add(Reg::R4, Reg::R1, 0, Reg::R2);
//! k.addi(Reg::R3, Reg::R3, 1);
//! k.blt_imm(Reg::R3, 100, top);
//! k.halt();
//! let prog = k.finish()?;
//!
//! let mut cycles = Vec::new();
//! for policy in [AtomicPolicy::FencedBaseline, AtomicPolicy::FreeFwd] {
//!     let mut cfg = icelake_like();
//!     cfg.core.policy = policy;
//!     let mut m = Machine::new(cfg, vec![prog.clone(); 4], GuestMem::new(1 << 16));
//!     let result = m.run(10_000_000).expect("quiesces");
//!     assert_eq!(m.guest_mem().load(0x100), 400); // atomicity holds
//!     cycles.push(result.cycles);
//! }
//! assert!(cycles[1] < cycles[0], "Free atomics must beat the fenced baseline");
//! # Ok::<(), free_atomics::isa::AsmError>(())
//! ```

pub use fa_core as core;
pub use fa_isa as isa;
pub use fa_mem as mem;
pub use fa_sim as sim;
pub use fa_workloads as workloads;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use fa_core::{AtomicPolicy, Core, CoreConfig, CoreStats, SquashCause};
    pub use fa_isa::interp::{GuestMem, Interp, McInterp};
    pub use fa_isa::{AluOp, Cond, Instr, Kasm, Operand, Program, Reg, RmwOp};
    pub use fa_mem::{CoreId, MemConfig, MemorySystem};
    pub use fa_sim::axiom::{CheckReport, Execution, Violation};
    pub use fa_sim::energy::{EnergyBreakdown, EnergyModel};
    pub use fa_isa::MemOrder;
    pub use fa_sim::litmus::{LOp, LitmusTest};
    pub use fa_sim::{CheckMode, MemModel};
    pub use fa_sim::machine::{Machine, MachineConfig, RunResult};
    pub use fa_sim::methodology::Methodology;
    pub use fa_sim::presets::{icelake_like, skylake_like, tiny_machine};
    pub use fa_workloads::{suite, Workload, WorkloadParams, WorkloadSpec};
}
