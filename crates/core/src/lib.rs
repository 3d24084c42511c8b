//! Out-of-order core model for the Free Atomics simulator.
//!
//! Implements the processor of the paper's Table 1: a wide out-of-order
//! pipeline with a unified ROB; a load/store queue (the private `lsq` module)
//! owning the load and store queues, the store buffer draining under TSO,
//! the fence list and every memory-ordering rule, StoreSet prediction and
//! forwarding included; a tournament branch predictor — and, on top, the
//! paper's contribution: the **Atomic Queue** and the four atomic-RMW
//! execution policies ([`AtomicPolicy`]), from the fully fenced x86 baseline
//! to Free Atomics with store-to-load forwarding to/from atomics.
//!
//! The core is driven one cycle at a time against a shared
//! [`fa_mem::MemorySystem`]:
//!
//! ```
//! use fa_core::{Core, CoreConfig, AtomicPolicy};
//! use fa_isa::{Kasm, Reg};
//! use fa_isa::interp::GuestMem;
//! use fa_mem::{CoreId, MemConfig, MemorySystem};
//!
//! let mut k = Kasm::new();
//! k.li(Reg::R1, 0x100);
//! k.li(Reg::R2, 1);
//! k.fetch_add(Reg::R3, Reg::R1, 0, Reg::R2);
//! k.halt();
//! let prog = k.finish().unwrap();
//!
//! let mut mem = MemorySystem::new(MemConfig::default(), 1, GuestMem::new(0x1000));
//! let cfg = CoreConfig::default().with_policy(AtomicPolicy::FreeFwd);
//! let mut core = Core::new(CoreId(0), cfg, prog, 0x1000);
//! for now in 1..10_000 {
//!     mem.tick();
//!     core.tick(now, &mut mem);
//!     if core.halted() && core.sb_len() == 0 {
//!         break;
//!     }
//! }
//! assert_eq!(mem.backing().load(0x100), 1);
//! ```

pub mod aq;
pub mod config;
#[allow(clippy::module_inception)]
pub mod core;
mod lsq;
pub mod predictor;
pub mod rob;
mod sched;
pub mod stats;

pub use crate::core::{Core, CoreDiag};
pub use aq::{aq_storage, AqEntry, AqState, AqStorage, AtomicQueue};
pub use config::{AtomicPolicy, CoreConfig};
pub use stats::{CoreStats, SquashCause};
