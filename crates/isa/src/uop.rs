//! Micro-op decomposition.
//!
//! Atomic RMW instructions decode into the five micro-op sequence of the
//! paper's Figure 2 — `mem_fence / load_lock / op / store_unlock / mem_fence`
//! — using gem5-20 naming. The fence micro-ops are *always emitted*; whether
//! they actually constrain scheduling is decided by the core's atomic policy
//! (under the Free policies they retire as no-ops and are counted as
//! "omitted fences", the first column of Table 2).

use crate::instr::{AluOp, Cond, Instr, Operand, RmwOp};
use crate::order::MemOrder;
use crate::reg::Reg;

/// Which role a fence micro-op plays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FenceKind {
    /// `Mem_Fence1` of an atomic RMW: drains the store buffer and blocks the
    /// `load_lock` until it is the oldest memory operation.
    AtomicPre,
    /// `Mem_Fence2` of an atomic RMW: blocks younger loads until the RMW
    /// commits.
    AtomicPost,
    /// A programmer-inserted `MFENCE`; never removed by any policy.
    Standalone,
}

impl FenceKind {
    /// True for the two fences that surround an atomic RMW — the ones Free
    /// Atomics removes.
    pub fn is_atomic_fence(self) -> bool {
        matches!(self, FenceKind::AtomicPre | FenceKind::AtomicPost)
    }
}

/// The operation a micro-op performs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UopKind {
    /// Integer ALU operation.
    Alu { op: AluOp, dst: Reg, a: Reg, b: Operand },
    /// Ordinary load.
    Load { dst: Reg, base: Reg, offset: i64 },
    /// Ordinary store.
    Store { src: Reg, base: Reg, offset: i64 },
    /// The load half of an atomic RMW: reads with *write* permission and
    /// locks the target cache line when it performs.
    LoadLock { dst: Reg, base: Reg, offset: i64 },
    /// The arithmetic micro-op of an atomic RMW: consumes the `load_lock`
    /// result (`old`), produces the value to store into `dst` (a decoder
    /// temporary).
    RmwAlu { op: RmwOp, dst: Reg, old: Reg, src: Reg, cmp: Reg },
    /// The store half of an atomic RMW: writes and unlocks the line when it
    /// performs (drains from the store buffer).
    StoreUnlock { src: Reg, base: Reg, offset: i64 },
    /// Conditional branch.
    Branch { cond: Cond, a: Reg, b: Operand, target: u32 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Memory fence.
    Fence(FenceKind),
    /// MWAIT-style sleep on a watched line.
    MonitorWait { base: Reg, offset: i64 },
    /// Spin hint.
    Pause,
    /// Thread termination.
    Halt,
    /// No operation.
    Nop,
}

/// A decoded micro-op, tagged with its provenance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Uop {
    /// Operation.
    pub kind: UopKind,
    /// Index of the parent instruction in the program.
    pub pc: u32,
    /// Position of this micro-op within the parent instruction (0-based).
    pub slot: u8,
    /// True for the final micro-op of the instruction; committing it retires
    /// the instruction.
    pub last: bool,
    /// Memory-ordering annotation inherited from the parent instruction.
    ///
    /// Meaningful on `Load`, `Store` and `Fence(Standalone)` micro-ops;
    /// atomic micro-ops (and their surrounding fences) carry the parent
    /// RMW's annotation for the record, but execute at `SeqCst` strength in
    /// both memory models. Non-memory micro-ops carry `Relaxed`.
    pub ord: MemOrder,
}

/// Fixed-capacity list of source registers (at most 3 for any micro-op).
#[derive(Clone, Copy, Debug, Default)]
pub struct SrcRegs {
    regs: [Reg; 3],
    len: u8,
}

impl SrcRegs {
    fn push(&mut self, r: Reg) {
        // The zero register is constant: not a real dependency.
        if !r.is_zero() {
            self.regs[self.len as usize] = r;
            self.len += 1;
        }
    }

    /// Iterates over the source registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs[..self.len as usize].iter().copied()
    }

    /// Number of source registers.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if there are no source registers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Uop {
    /// The destination register written by this micro-op, if any.
    ///
    /// Writes to the zero register are architecturally discarded but still
    /// reported here; the rename stage handles the discard.
    pub fn dst(&self) -> Option<Reg> {
        match self.kind {
            UopKind::Alu { dst, .. }
            | UopKind::Load { dst, .. }
            | UopKind::LoadLock { dst, .. }
            | UopKind::RmwAlu { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Source registers read by this micro-op (excluding the zero register).
    pub fn srcs(&self) -> SrcRegs {
        let mut s = SrcRegs::default();
        match self.kind {
            UopKind::Alu { a, b, .. } => {
                s.push(a);
                if let Operand::Reg(r) = b {
                    s.push(r);
                }
            }
            UopKind::Load { base, .. }
            | UopKind::LoadLock { base, .. }
            | UopKind::MonitorWait { base, .. } => s.push(base),
            UopKind::Store { src, base, .. } | UopKind::StoreUnlock { src, base, .. } => {
                s.push(base);
                s.push(src);
            }
            UopKind::RmwAlu { old, src, cmp, op, .. } => {
                s.push(old);
                s.push(src);
                if matches!(op, RmwOp::CompareSwap) {
                    s.push(cmp);
                }
            }
            UopKind::Branch { a, b, .. } => {
                s.push(a);
                if let Operand::Reg(r) = b {
                    s.push(r);
                }
            }
            _ => {}
        }
        s
    }

    /// Base register and offset of the micro-ops that generate an effective
    /// address (the memory micro-ops and `MonitorWait`).
    pub fn address_operands(&self) -> Option<(Reg, i64)> {
        match self.kind {
            UopKind::Load { base, offset, .. }
            | UopKind::LoadLock { base, offset, .. }
            | UopKind::Store { base, offset, .. }
            | UopKind::StoreUnlock { base, offset, .. }
            | UopKind::MonitorWait { base, offset } => Some((base, offset)),
            _ => None,
        }
    }

    /// True for micro-ops that access the data cache.
    pub fn is_mem(&self) -> bool {
        matches!(
            self.kind,
            UopKind::Load { .. }
                | UopKind::Store { .. }
                | UopKind::LoadLock { .. }
                | UopKind::StoreUnlock { .. }
        )
    }

    /// True for the load-class micro-ops (occupy a load-queue entry).
    pub fn is_load_class(&self) -> bool {
        matches!(self.kind, UopKind::Load { .. } | UopKind::LoadLock { .. })
    }

    /// True for the store-class micro-ops (occupy a store-queue entry).
    pub fn is_store_class(&self) -> bool {
        matches!(self.kind, UopKind::Store { .. } | UopKind::StoreUnlock { .. })
    }

    /// True if this micro-op belongs to an atomic RMW instruction.
    pub fn is_atomic_part(&self) -> bool {
        matches!(
            self.kind,
            UopKind::LoadLock { .. }
                | UopKind::RmwAlu { .. }
                | UopKind::StoreUnlock { .. }
                | UopKind::Fence(FenceKind::AtomicPre)
                | UopKind::Fence(FenceKind::AtomicPost)
        )
    }
}

/// Decodes one instruction into its micro-op sequence.
///
/// Ordinary instructions decode 1:1. Atomic RMWs decode into the Figure-2
/// five-micro-op sequence; the `op` micro-op writes decoder temporary
/// [`Reg::T0`], which the `store_unlock` reads.
pub fn decode(instr: Instr, pc: u32) -> Vec<Uop> {
    let mut uops = Vec::new();
    decode_into(instr, pc, &mut uops);
    uops
}

/// [`decode`], appending to `out` (a whole program decodes into one table
/// without an allocation per instruction).
pub fn decode_into(instr: Instr, pc: u32, out: &mut Vec<Uop>) {
    let ord = match instr {
        Instr::Load { ord, .. }
        | Instr::Store { ord, .. }
        | Instr::Rmw { ord, .. }
        | Instr::Fence { ord } => ord,
        _ => MemOrder::Relaxed,
    };
    let mk = |kind, slot, last| Uop { kind, pc, slot, last, ord };
    let one = match instr {
        Instr::Rmw { op, dst, base, offset, src, cmp, .. } => {
            out.extend([
                mk(UopKind::Fence(FenceKind::AtomicPre), 0, false),
                mk(UopKind::LoadLock { dst, base, offset }, 1, false),
                mk(UopKind::RmwAlu { op, dst: Reg::T0, old: dst, src, cmp }, 2, false),
                mk(UopKind::StoreUnlock { src: Reg::T0, base, offset }, 3, false),
                mk(UopKind::Fence(FenceKind::AtomicPost), 4, true),
            ]);
            return;
        }
        Instr::Alu { op, dst, a, b } => UopKind::Alu { op, dst, a, b },
        Instr::Load { dst, base, offset, .. } => UopKind::Load { dst, base, offset },
        Instr::Store { src, base, offset, .. } => UopKind::Store { src, base, offset },
        Instr::Branch { cond, a, b, target } => UopKind::Branch { cond, a, b, target },
        Instr::Jump { target } => UopKind::Jump { target },
        Instr::Fence { .. } => UopKind::Fence(FenceKind::Standalone),
        Instr::Pause => UopKind::Pause,
        Instr::MonitorWait { base, offset } => UopKind::MonitorWait { base, offset },
        Instr::Halt => UopKind::Halt,
        Instr::Nop => UopKind::Nop,
    };
    out.push(mk(one, 0, true));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmw() -> Instr {
        Instr::Rmw {
            op: RmwOp::FetchAdd,
            dst: Reg::R1,
            base: Reg::R2,
            offset: 8,
            src: Reg::R3,
            cmp: Reg::R0,
            ord: MemOrder::SeqCst,
        }
    }

    #[test]
    fn rmw_decodes_to_five_uops() {
        let uops = decode(rmw(), 42);
        assert_eq!(uops.len(), 5);
        assert!(matches!(uops[0].kind, UopKind::Fence(FenceKind::AtomicPre)));
        assert!(matches!(uops[1].kind, UopKind::LoadLock { dst: Reg::R1, .. }));
        assert!(matches!(uops[2].kind, UopKind::RmwAlu { dst: Reg::T0, .. }));
        assert!(matches!(
            uops[3].kind,
            UopKind::StoreUnlock { src: Reg::T0, .. }
        ));
        assert!(matches!(uops[4].kind, UopKind::Fence(FenceKind::AtomicPost)));
        assert!(uops[4].last);
        assert!(uops[..4].iter().all(|u| !u.last));
        assert!(uops.iter().all(|u| u.pc == 42));
        assert_eq!(
            uops.iter().map(|u| u.slot).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn rmw_dataflow_links_through_temp() {
        let uops = decode(rmw(), 0);
        // op µop reads the load_lock result (r1) and writes t0.
        let srcs: Vec<_> = uops[2].srcs().iter().collect();
        assert!(srcs.contains(&Reg::R1));
        assert_eq!(uops[2].dst(), Some(Reg::T0));
        // store_unlock reads t0.
        let srcs: Vec<_> = uops[3].srcs().iter().collect();
        assert!(srcs.contains(&Reg::T0));
    }

    #[test]
    fn cas_reads_cmp_register() {
        let uops = decode(
            Instr::Rmw {
                op: RmwOp::CompareSwap,
                dst: Reg::R1,
                base: Reg::R2,
                offset: 0,
                src: Reg::R3,
                cmp: Reg::R4,
                ord: MemOrder::SeqCst,
            },
            0,
        );
        let srcs: Vec<_> = uops[2].srcs().iter().collect();
        assert!(srcs.contains(&Reg::R4));
    }

    #[test]
    fn zero_register_is_not_a_dependency() {
        let u = decode(
            Instr::Alu { op: AluOp::Add, dst: Reg::R1, a: Reg::R0, b: Operand::Reg(Reg::R0) },
            0,
        );
        assert!(u[0].srcs().is_empty());
    }

    #[test]
    fn classification_helpers() {
        let uops = decode(rmw(), 0);
        assert!(uops[1].is_mem() && uops[1].is_load_class());
        assert!(uops[3].is_mem() && uops[3].is_store_class());
        assert!(uops.iter().all(|u| u.is_atomic_part()));
        let ld = decode(
            Instr::Load { dst: Reg::R1, base: Reg::R2, offset: 0, ord: MemOrder::Relaxed },
            0,
        );
        assert!(ld[0].is_load_class() && !ld[0].is_atomic_part());
    }

    #[test]
    fn simple_instrs_decode_to_one_uop() {
        for i in [
            Instr::Nop,
            Instr::Halt,
            Instr::Pause,
            Instr::Fence { ord: MemOrder::SeqCst },
            Instr::Jump { target: 3 },
        ] {
            assert_eq!(decode(i, 0).len(), 1);
            assert!(decode(i, 0)[0].last);
        }
    }

    #[test]
    fn ordering_annotations_thread_through_decode() {
        let ld = decode(
            Instr::Load { dst: Reg::R1, base: Reg::R2, offset: 0, ord: MemOrder::Acquire },
            0,
        );
        assert_eq!(ld[0].ord, MemOrder::Acquire);
        let st = decode(
            Instr::Store { src: Reg::R1, base: Reg::R2, offset: 0, ord: MemOrder::Release },
            0,
        );
        assert_eq!(st[0].ord, MemOrder::Release);
        let f = decode(Instr::Fence { ord: MemOrder::Acquire }, 0);
        assert_eq!(f[0].ord, MemOrder::Acquire);
        // Every micro-op of an RMW carries the parent annotation.
        assert!(decode(rmw(), 0).iter().all(|u| u.ord == MemOrder::SeqCst));
        // Non-memory instructions carry Relaxed.
        assert_eq!(decode(Instr::Nop, 0)[0].ord, MemOrder::Relaxed);
    }
}
