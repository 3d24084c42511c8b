//! Guest instructions.

use crate::order::MemOrder;
use crate::reg::Reg;
use crate::Word;
use std::fmt;

/// Second ALU operand: a register or a sign-extended immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the operand from a register.
    Reg(Reg),
    /// Use the immediate value directly.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Integer ALU operations. All operate on 64-bit words; wrapping semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `a ^ b`
    Xor,
    /// `a << (b & 63)`
    Shl,
    /// logical `a >> (b & 63)`
    Shr,
    /// arithmetic `a >> (b & 63)`
    Sra,
    /// `a * b` (low 64 bits)
    Mul,
    /// unsigned `a < b ? 1 : 0`
    SltU,
    /// signed `a < b ? 1 : 0`
    Slt,
}

impl AluOp {
    /// Evaluates the operation on two words.
    pub fn eval(self, a: Word, b: Word) -> Word {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::SltU => u64::from(a < b),
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
        }
    }
}

/// Branch conditions comparing two operands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// signed `a < b`
    Lt,
    /// signed `a >= b`
    Ge,
    /// unsigned `a < b`
    LtU,
    /// unsigned `a >= b`
    GeU,
}

impl Cond {
    /// Evaluates the condition on two words.
    pub fn eval(self, a: Word, b: Word) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::LtU => a < b,
            Cond::GeU => a >= b,
        }
    }
}

/// Atomic read-modify-write flavours (the x86 `LOCK`-prefixed family).
///
/// All read the old 8-byte value at the target address into the destination
/// register, compute a new value, and write it back atomically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmwOp {
    /// `new = old + src` (x86 `lock xadd`)
    FetchAdd,
    /// `new = old & src`
    FetchAnd,
    /// `new = old | src`
    FetchOr,
    /// `new = old ^ src`
    FetchXor,
    /// `new = src` (x86 `xchg`)
    Swap,
    /// `new = 1` regardless of `src` (test-and-set)
    TestSet,
    /// `new = (old == cmp) ? src : old` (x86 `lock cmpxchg`)
    CompareSwap,
}

impl RmwOp {
    /// Computes the value to be stored back by the RMW's `op` micro-op.
    ///
    /// `old` is the value read by `load_lock`; `src` is the instruction's
    /// source operand; `cmp` is the comparison value (only meaningful for
    /// [`RmwOp::CompareSwap`]).
    pub fn store_value(self, old: Word, src: Word, cmp: Word) -> Word {
        match self {
            RmwOp::FetchAdd => old.wrapping_add(src),
            RmwOp::FetchAnd => old & src,
            RmwOp::FetchOr => old | src,
            RmwOp::FetchXor => old ^ src,
            RmwOp::Swap => src,
            RmwOp::TestSet => 1,
            RmwOp::CompareSwap => {
                if old == cmp {
                    src
                } else {
                    old
                }
            }
        }
    }
}

/// A guest instruction. Program counters are indices into the instruction
/// vector; there is no encoding layer (the simulator is trace-driven by
/// construction, like gem5's `AtomicSimpleCPU`-generated micro-op streams).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `dst = op(a, b)`
    Alu { op: AluOp, dst: Reg, a: Reg, b: Operand },
    /// `dst = mem[ base + offset ]` (8 bytes, must be 8-byte aligned).
    ///
    /// `ord` defaults to [`MemOrder::Relaxed`]; only acquire-class values
    /// are meaningful on loads.
    Load { dst: Reg, base: Reg, offset: i64, ord: MemOrder },
    /// `mem[ base + offset ] = src`.
    ///
    /// `ord` defaults to [`MemOrder::Relaxed`]; release is architecturally
    /// free (FIFO store buffer), `SeqCst` additionally blocks younger loads
    /// under the weak model.
    Store { src: Reg, base: Reg, offset: i64, ord: MemOrder },
    /// Atomic RMW on `mem[ base + offset ]`: `dst = old`, store per [`RmwOp`].
    ///
    /// `cmp` is only read by [`RmwOp::CompareSwap`]. `dst` must differ from
    /// `base` (enforced by the assembler) so the `store_unlock` micro-op can
    /// recompute the address. `ord` is accepted and recorded but RMW
    /// execution is pinned to `SeqCst` strength in both memory models (the
    /// line-lock protocol is inherently SC); it defaults to
    /// [`MemOrder::SeqCst`].
    Rmw { op: RmwOp, dst: Reg, base: Reg, offset: i64, src: Reg, cmp: Reg, ord: MemOrder },
    /// Conditional branch to `target` (an instruction index).
    Branch { cond: Cond, a: Reg, b: Operand, target: u32 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Standalone memory fence. With `ord == SeqCst` this is the x86
    /// `MFENCE` analogue (orders everything, drains the store buffer);
    /// weaker orderings act as pipeline reorder barriers that do not drain
    /// the store buffer under the weak model. Never removed by any policy.
    Fence { ord: MemOrder },
    /// Spin-loop hint (x86 `PAUSE`): de-pipelines briefly, saving energy.
    Pause,
    /// Sleep until the watched line `mem[ base + offset ]` is written by
    /// another core, or a periodic timer expires (x86 `MONITOR`/`MWAIT`).
    MonitorWait { base: Reg, offset: i64 },
    /// Terminate this hardware thread.
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// True for instructions that access memory (loads, stores, RMWs).
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Rmw { .. }
        )
    }

    /// True for atomic read-modify-write instructions.
    pub fn is_rmw(&self) -> bool {
        matches!(self, Instr::Rmw { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_semantics() {
        assert_eq!(AluOp::Add.eval(3, u64::MAX), 2); // wrapping
        assert_eq!(AluOp::Sub.eval(3, 5), (-2i64) as u64);
        assert_eq!(AluOp::Shl.eval(1, 65), 2); // shift masked to 6 bits
        assert_eq!(AluOp::Sra.eval((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(AluOp::Shr.eval((-8i64) as u64, 1), ((-8i64) as u64) >> 1);
        assert_eq!(AluOp::Slt.eval((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::SltU.eval((-1i64) as u64, 0), 0);
    }

    #[test]
    fn cond_eval_semantics() {
        assert!(Cond::Eq.eval(4, 4));
        assert!(Cond::Ne.eval(4, 5));
        assert!(Cond::Lt.eval((-1i64) as u64, 0));
        assert!(!Cond::LtU.eval((-1i64) as u64, 0));
        assert!(Cond::Ge.eval(0, (-1i64) as u64));
        assert!(Cond::GeU.eval((-1i64) as u64, 0));
    }

    #[test]
    fn rmw_store_values() {
        assert_eq!(RmwOp::FetchAdd.store_value(10, 5, 0), 15);
        assert_eq!(RmwOp::Swap.store_value(10, 5, 0), 5);
        assert_eq!(RmwOp::TestSet.store_value(0, 99, 0), 1);
        assert_eq!(RmwOp::CompareSwap.store_value(10, 5, 10), 5); // success
        assert_eq!(RmwOp::CompareSwap.store_value(10, 5, 11), 10); // failure
        assert_eq!(RmwOp::FetchXor.store_value(0b1100, 0b1010, 0), 0b0110);
    }

    #[test]
    fn instr_classification() {
        let rmw = Instr::Rmw {
            op: RmwOp::FetchAdd,
            dst: Reg::R1,
            base: Reg::R2,
            offset: 0,
            src: Reg::R3,
            cmp: Reg::R0,
            ord: MemOrder::SeqCst,
        };
        assert!(rmw.is_mem());
        assert!(rmw.is_rmw());
        assert!(!Instr::Fence { ord: MemOrder::SeqCst }.is_mem());
    }
}
