//! Memory hierarchy for the Free Atomics simulator.
//!
//! Models the paper's Table-1 memory system: per-core private caches (L1D
//! backed by a private L2), a shared LLC, an **inclusive directory** with
//! finite capacity, and one crossbar interconnect ([`noc`]: fixed-latency,
//! or bandwidth-contended when its links are configured) — all driven by a
//! deterministic event wheel the interconnect owns.
//!
//! # Modeling approach: dataless coherence
//!
//! Data values live in a single [`fa_isa::interp::GuestMem`] backing store;
//! caches and the directory carry *tags, permissions and locks only*. A load
//! reads the backing store at the cycle its response is delivered (its
//! *perform* time); a store writes the backing store the cycle it drains from
//! the store buffer with write permission. Memory-order visibility therefore
//! equals perform order, which is exactly the operational definition of TSO
//! the paper reasons with. This keeps the protocol honest (permissions,
//! invalidations, serialization, deadlocks are all real) without shipping
//! data bytes through messages.
//!
//! # Cache locking
//!
//! The controller keeps a per-line lock count mirroring the core's Atomic
//! Queue (Implication 2 of the paper, §3.2.2). External requests that hit a
//! locked line are **parked at the owner** and replayed on unlock — the
//! paper's progress invariant: only the core executing a Free atomic can lift
//! its own lock (§3.2.5). Locked lines are never chosen as replacement
//! victims (§3.2.4); if a fill finds every way locked, it waits, which can
//! deadlock — by design, since breaking that deadlock is the job of the
//! *core's* watchdog.

// Non-test code must justify every panic site; see the `expect` messages
// documenting each invariant. Tests keep plain unwrap for brevity.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod chaos;
pub mod config;
pub mod dir;
pub mod fxhash;
pub mod msgs;
pub mod noc;
pub mod prefetch;
pub mod privcache;
pub mod progress;
pub mod stats;
pub mod system;
pub mod tagarray;
pub mod wheel;

pub use audit::{AuditConfig, AuditViolation};
pub use chaos::{ChaosConfig, SplitMix64};
pub use config::MemConfig;
pub use fxhash::{FxHashMap, FxHashSet};
pub use msgs::{CoreNotice, CoreResp, LatClass};
pub use noc::{LinkStats, NocConfig, NocStats, XbarPolicy};
pub use progress::{ProgressConfig, ProgressGuard, ProgressReport, ProgressStats};
pub use stats::{CoreMemStats, MemStats};
pub use system::{MemDiag, MemorySystem};

use std::fmt;

/// A core (hardware thread) identifier.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Resizes `live` to `n` elements, moving the surplus to `spare` and
/// taking from it before building new ones: a run on fewer cores, then one
/// on more, finds the per-core storage of the first still there. The caller
/// resets every live element.
pub fn fit<T: Default>(live: &mut Vec<T>, spare: &mut Vec<T>, n: usize) {
    spare.extend(live.drain(n.min(live.len())..));
    let reused = spare.len().saturating_sub(n - live.len());
    live.extend(spare.drain(reused..));
    live.resize_with(n, T::default);
}

/// A line-aligned physical address.
pub type Line = u64;

/// Simulation time in core cycles.
pub type Cycle = u64;
