//! Memory-ordering annotations.
//!
//! Loads, stores, fences and RMWs carry a [`MemOrder`] drawn from the
//! C++11/LLVM lattice. Under the TSO memory model the annotations are
//! semantically inert (every access already has TSO strength); under the
//! weak model (`FA_MODEL=weak`) they select how much reordering the frontend
//! may perform. See `DESIGN.md` § "Weak-memory frontend" for the exact
//! mapping from each ordering to the LSQ/SB rules.

use std::fmt;

/// A memory-ordering annotation (C++11 lattice, minus `Consume`).
///
/// Defaults: plain loads and stores are [`MemOrder::Relaxed`] (matching an
/// ARM-like ISA where unadorned accesses are unordered), standalone fences
/// and RMWs are [`MemOrder::SeqCst`] (matching the pre-existing `MFENCE` /
/// `LOCK`-prefix semantics, which keeps the TSO model's behaviour unchanged).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MemOrder {
    /// No ordering beyond per-location coherence.
    #[default]
    Relaxed,
    /// Loads: no younger access may appear to perform before this load.
    Acquire,
    /// Stores: no older access may appear to perform after this store.
    /// (Free on this pipeline: the FIFO store buffer already preserves it.)
    Release,
    /// Both acquire and release.
    AcqRel,
    /// Sequentially consistent: acquire + release + global total order.
    /// SC stores additionally forbid younger loads from passing them
    /// (the store buffer is drained first); SC fences order everything.
    SeqCst,
}

impl MemOrder {
    /// True for orderings with acquire strength (`Acquire`/`AcqRel`/`SeqCst`).
    pub fn is_acquire(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst)
    }

    /// True for `SeqCst`.
    pub fn is_sc(self) -> bool {
        matches!(self, MemOrder::SeqCst)
    }

    /// Short lower-case name (`rlx`/`acq`/`rel`/`acq_rel`/`sc`).
    pub fn name(self) -> &'static str {
        match self {
            MemOrder::Relaxed => "rlx",
            MemOrder::Acquire => "acq",
            MemOrder::Release => "rel",
            MemOrder::AcqRel => "acq_rel",
            MemOrder::SeqCst => "sc",
        }
    }

    /// All five orderings, for coverage sweeps.
    pub const ALL: [MemOrder; 5] = [
        MemOrder::Relaxed,
        MemOrder::Acquire,
        MemOrder::Release,
        MemOrder::AcqRel,
        MemOrder::SeqCst,
    ];
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_classes() {
        assert!(!MemOrder::Relaxed.is_acquire() && MemOrder::Acquire.is_acquire());
        assert!(!MemOrder::Release.is_acquire() && MemOrder::AcqRel.is_acquire());
        assert!(MemOrder::SeqCst.is_acquire());
        assert!(MemOrder::SeqCst.is_sc() && !MemOrder::AcqRel.is_sc());
    }

    #[test]
    fn default_is_relaxed() {
        assert_eq!(MemOrder::default(), MemOrder::Relaxed);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            MemOrder::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
