//! Validated guest programs.

use crate::instr::Instr;
use std::fmt;

/// Error found while validating a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateProgramError {
    /// A branch or jump targets an instruction index outside the program.
    TargetOutOfRange { pc: usize, target: u32 },
    /// An atomic RMW names the same register as destination and address
    /// base, which would corrupt the `store_unlock` address computation.
    RmwDstAliasesBase { pc: usize },
    /// An atomic RMW names the same register as destination and source (or
    /// comparison) operand. The `load_lock` micro-op writes the destination
    /// before the `op` micro-op reads its operands, so aliasing them would
    /// feed the loaded value back into the operation (x86's `xadd` fuses
    /// this aliasing into one definition; this ISA keeps the roles
    /// separate).
    RmwDstAliasesOperand { pc: usize },
    /// The program does not end every path with `Halt` — specifically, the
    /// final instruction can fall through past the end of the program.
    FallsOffEnd,
    /// The program is empty.
    Empty,
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateProgramError::TargetOutOfRange { pc, target } => {
                write!(f, "instruction {pc} targets out-of-range index {target}")
            }
            ValidateProgramError::RmwDstAliasesBase { pc } => {
                write!(f, "atomic RMW at {pc} uses the same register for dst and base")
            }
            ValidateProgramError::RmwDstAliasesOperand { pc } => {
                write!(f, "atomic RMW at {pc} uses the same register for dst and src/cmp")
            }
            ValidateProgramError::FallsOffEnd => {
                write!(f, "control can fall through past the final instruction")
            }
            ValidateProgramError::Empty => write!(f, "program is empty"),
        }
    }
}

impl std::error::Error for ValidateProgramError {}

/// A validated sequence of guest instructions for one hardware thread.
///
/// Construct through [`Program::new`] (which validates) or the [`crate::Kasm`]
/// assembler (which validates on `finish`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateProgramError`] if any branch target is out of
    /// range, an RMW aliases `dst` and `base`, the program is empty, or the
    /// last instruction can fall through past the end.
    pub fn new(instrs: Vec<Instr>) -> Result<Program, ValidateProgramError> {
        if instrs.is_empty() {
            return Err(ValidateProgramError::Empty);
        }
        for (pc, i) in instrs.iter().enumerate() {
            match *i {
                Instr::Branch { target, .. } | Instr::Jump { target, .. }
                    if target as usize >= instrs.len() => {
                        return Err(ValidateProgramError::TargetOutOfRange { pc, target });
                    }
                Instr::Rmw { op, dst, base, src, cmp, .. } => {
                    if dst == base {
                        return Err(ValidateProgramError::RmwDstAliasesBase { pc });
                    }
                    let cmp_used = matches!(op, crate::instr::RmwOp::CompareSwap);
                    if !dst.is_zero() && (dst == src || (cmp_used && dst == cmp)) {
                        return Err(ValidateProgramError::RmwDstAliasesOperand { pc });
                    }
                }
                _ => {}
            }
        }
        match instrs[instrs.len() - 1] {
            Instr::Halt | Instr::Jump { .. } => {}
            _ => return Err(ValidateProgramError::FallsOffEnd),
        }
        Ok(Program { instrs })
    }

    /// The instruction at `pc`, or `None` past the end.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions (never — validation rejects
    /// empty programs — but provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }
}

impl AsRef<[Instr]> for Program {
    fn as_ref(&self) -> &[Instr] {
        &self.instrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Operand, RmwOp};
    use crate::reg::Reg;

    #[test]
    fn rejects_empty() {
        assert_eq!(Program::new(vec![]), Err(ValidateProgramError::Empty));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let p = Program::new(vec![Instr::Jump { target: 5 }, Instr::Halt]);
        assert!(matches!(p, Err(ValidateProgramError::TargetOutOfRange { pc: 0, target: 5 })));
    }

    #[test]
    fn rejects_rmw_alias() {
        let p = Program::new(vec![
            Instr::Rmw {
                op: RmwOp::Swap,
                dst: Reg::R1,
                base: Reg::R1,
                offset: 0,
                src: Reg::R2,
                cmp: Reg::R0,
                ord: crate::MemOrder::SeqCst,
            },
            Instr::Halt,
        ]);
        assert!(matches!(p, Err(ValidateProgramError::RmwDstAliasesBase { pc: 0 })));
    }

    #[test]
    fn rejects_fallthrough_end() {
        let p = Program::new(vec![Instr::Nop]);
        assert_eq!(p, Err(ValidateProgramError::FallsOffEnd));
    }

    #[test]
    fn accepts_valid_program() {
        let p = Program::new(vec![
            Instr::Alu { op: AluOp::Add, dst: Reg::R1, a: Reg::R0, b: Operand::Imm(1) },
            Instr::Store { src: Reg::R1, base: Reg::R0, offset: 0, ord: crate::MemOrder::Relaxed },
            Instr::Halt,
        ])
        .unwrap();
        assert_eq!(p.len(), 3);
    }
}
