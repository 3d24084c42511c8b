//! Architectural registers.

use std::fmt;

/// Number of general-purpose architectural registers.
pub const NUM_ARCH_REGS: usize = 32;

/// Number of hidden micro-architectural temporaries used by the micro-op
/// decoder (e.g. the value produced by the `op` micro-op of an atomic RMW
/// travels to the `store_unlock` through a temporary).
pub const NUM_TEMP_REGS: usize = 4;

/// Total register-file size seen by the rename stage.
pub const NUM_REGS: usize = NUM_ARCH_REGS + NUM_TEMP_REGS;

/// An architectural register.
///
/// `R0` is hard-wired to zero: reads return 0, writes are discarded — the
/// RISC convention, which keeps the assembler DSL compact. `T0..T3` are
/// decoder-internal temporaries and never appear in guest programs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

macro_rules! named_regs {
    ($($name:ident = $idx:expr),* $(,)?) => {
        impl Reg {
            $(pub const $name: Reg = Reg($idx);)*
        }
    };
}

named_regs! {
    R0 = 0, R1 = 1, R2 = 2, R3 = 3, R4 = 4, R5 = 5, R6 = 6, R7 = 7,
    R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
    R16 = 16, R17 = 17, R18 = 18, R19 = 19, R20 = 20, R21 = 21, R22 = 22, R23 = 23,
    R24 = 24, R25 = 25, R26 = 26, R27 = 27, R28 = 28, R29 = 29, R30 = 30, R31 = 31,
    T0 = 32, T1 = 33, T2 = 34, T3 = 35,
}

impl Reg {
    /// Creates a general-purpose register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`; the temporaries `T0..T3` cannot be created this
    /// way on purpose, as they are reserved for the decoder.
    pub fn new(idx: u8) -> Reg {
        assert!((idx as usize) < NUM_ARCH_REGS, "register index {idx} out of range");
        Reg(idx)
    }

    /// Index into a combined (architectural + temporary) register file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the hard-wired zero register.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True for decoder-internal temporaries.
    #[inline]
    pub fn is_temp(self) -> bool {
        (self.0 as usize) >= NUM_ARCH_REGS
    }
}

impl Default for Reg {
    /// The zero register.
    fn default() -> Reg {
        Reg::R0
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_temp() {
            write!(f, "t{}", self.0 as usize - NUM_ARCH_REGS)
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for i in 0..32u8 {
            assert_eq!(Reg::new(i).index(), i as usize);
        }
    }

    #[test]
    fn zero_and_temp_classification() {
        assert!(Reg::R0.is_zero());
        assert!(!Reg::R1.is_zero());
        assert!(Reg::T0.is_temp());
        assert!(!Reg::R31.is_temp());
    }

    #[test]
    #[should_panic]
    fn new_rejects_temp_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::R7.to_string(), "r7");
        assert_eq!(Reg::T1.to_string(), "t1");
    }
}
