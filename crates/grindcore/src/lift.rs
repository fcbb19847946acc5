//! The TGA → IR lifter: grindcore's "disassemble and resynthesize" front
//! end (paper §II-B: Valgrind performs just-in-time recompilation of code
//! blocks from binary programs to the VEX intermediate representation).
//!
//! [`lift_superblock`] decodes machine words starting at a guest address
//! and emits one [`IrBlock`] per superblock: a straight-line run of
//! instructions ending at the first control transfer (or a length cap).
//! Conditional branches become guarded side exits. The lifted block is
//! what tools instrument.

use tga::{reg, Inst, Op, INST_SIZE};
use vex_ir::{Atom, BinOp, DirtyCall, IrBlock, JumpKind, Rhs, Stmt, Temp, Ty, UnOp};

/// Maximum guest instructions per superblock.
pub const MAX_BLOCK_INSTS: usize = 64;

/// Lifting failure: the address does not decode to valid code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftError {
    pub addr: u64,
    pub msg: String,
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot lift code at {:#x}: {}", self.addr, self.msg)
    }
}

impl std::error::Error for LiftError {}

struct Lifter<'m> {
    module: &'m tga::module::Module,
    block: IrBlock,
}

impl<'m> Lifter<'m> {
    fn tmp(&mut self) -> Temp {
        self.block.new_temp()
    }

    fn push(&mut self, s: Stmt) {
        self.block.stmts.push(s);
    }

    /// Read a guest register into a temp (register 0 reads as constant 0).
    fn get(&mut self, r: u8) -> Atom {
        if r == reg::ZERO {
            return Atom::imm(0);
        }
        let t = self.tmp();
        self.push(Stmt::WrTmp { dst: t, rhs: Rhs::Get { reg: r } });
        t.into()
    }

    /// Write a guest register (writes to the zero register are dropped).
    fn put(&mut self, r: u8, v: Atom) {
        if r != reg::ZERO {
            self.push(Stmt::Put { reg: r, src: v });
        }
    }

    fn binop(&mut self, op: BinOp, lhs: Atom, rhs: Atom) -> Atom {
        let t = self.tmp();
        self.push(Stmt::WrTmp { dst: t, rhs: Rhs::Binop { op, lhs, rhs } });
        t.into()
    }

    fn unop(&mut self, op: UnOp, x: Atom) -> Atom {
        let t = self.tmp();
        self.push(Stmt::WrTmp { dst: t, rhs: Rhs::Unop { op, x } });
        t.into()
    }

    /// Effective address `rs1 + imm`.
    fn ea(&mut self, rs1: u8, imm: i64) -> Atom {
        let base = self.get(rs1);
        if imm == 0 {
            base
        } else {
            self.binop(BinOp::Add, base, Atom::imm(imm as u64))
        }
    }

    /// Lift one instruction at `pc`. Returns `true` if it ended the block.
    fn lift_inst(&mut self, inst: &Inst, pc: u64) -> bool {
        self.push(Stmt::IMark { addr: pc, len: INST_SIZE as u32 });
        let next_pc = pc + INST_SIZE;
        use Op::*;
        let reg_binop = |op: BinOp| op;
        match inst.op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Seq
            | Sne | Sle | Fadd | Fsub | Fmul | Fdiv | Feq | Flt | Fle => {
                let op = reg_binop(match inst.op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => BinOp::DivS,
                    Rem => BinOp::RemS,
                    And => BinOp::And,
                    Or => BinOp::Or,
                    Xor => BinOp::Xor,
                    Sll => BinOp::Shl,
                    Srl => BinOp::ShrU,
                    Sra => BinOp::ShrS,
                    Slt => BinOp::CmpLtS,
                    Sltu => BinOp::CmpLtU,
                    Seq => BinOp::CmpEq,
                    Sne => BinOp::CmpNe,
                    Sle => BinOp::CmpLeS,
                    Fadd => BinOp::FAdd,
                    Fsub => BinOp::FSub,
                    Fmul => BinOp::FMul,
                    Fdiv => BinOp::FDiv,
                    Feq => BinOp::FCmpEq,
                    Flt => BinOp::FCmpLt,
                    Fle => BinOp::FCmpLe,
                    _ => unreachable!(),
                });
                let a = self.get(inst.rs1);
                let b = self.get(inst.rs2);
                let r = self.binop(op, a, b);
                self.put(inst.rd, r);
                false
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
                let op = match inst.op {
                    Addi => BinOp::Add,
                    Andi => BinOp::And,
                    Ori => BinOp::Or,
                    Xori => BinOp::Xor,
                    Slli => BinOp::Shl,
                    Srli => BinOp::ShrU,
                    Srai => BinOp::ShrS,
                    Slti => BinOp::CmpLtS,
                    _ => unreachable!(),
                };
                let a = self.get(inst.rs1);
                let r = self.binop(op, a, Atom::imm(inst.imm as u64));
                self.put(inst.rd, r);
                false
            }
            Li => {
                self.put(inst.rd, Atom::imm(inst.imm as u64));
                false
            }
            Fsqrt | Fneg | Fabs | Fcvtif | Fcvtfi => {
                let op = match inst.op {
                    Fsqrt => UnOp::FSqrt,
                    Fneg => UnOp::FNeg,
                    Fabs => UnOp::FAbs,
                    Fcvtif => UnOp::I2F,
                    Fcvtfi => UnOp::F2I,
                    _ => unreachable!(),
                };
                let a = self.get(inst.rs1);
                let r = self.unop(op, a);
                self.put(inst.rd, r);
                false
            }
            Ld | Lb => {
                let ty = if inst.op == Ld { Ty::I64 } else { Ty::I8 };
                let addr = self.ea(inst.rs1, inst.imm);
                let t = self.tmp();
                self.push(Stmt::WrTmp { dst: t, rhs: Rhs::Load { ty, addr } });
                self.put(inst.rd, t.into());
                false
            }
            St | Sb => {
                let ty = if inst.op == St { Ty::I64 } else { Ty::I8 };
                let addr = self.ea(inst.rs1, inst.imm);
                let val = self.get(inst.rs2);
                self.push(Stmt::Store { ty, addr, val });
                false
            }
            Jal => {
                self.put(inst.rd, Atom::imm(next_pc));
                self.block.next = Atom::imm(inst.imm as u64);
                self.block.jumpkind = if inst.rd == reg::RA {
                    JumpKind::Call { return_addr: next_pc }
                } else {
                    JumpKind::Boring
                };
                true
            }
            Jalr => {
                let target = self.ea(inst.rs1, inst.imm);
                self.put(inst.rd, Atom::imm(next_pc));
                self.block.next = target;
                self.block.jumpkind = if inst.rd == reg::RA {
                    JumpKind::Call { return_addr: next_pc }
                } else if inst.rs1 == reg::RA && inst.rd == reg::ZERO {
                    JumpKind::Ret
                } else {
                    JumpKind::Boring
                };
                true
            }
            Beq | Bne | Blt | Bge | Bltu => {
                let a = self.get(inst.rs1);
                let b = self.get(inst.rs2);
                let cond = match inst.op {
                    Beq => self.binop(BinOp::CmpEq, a, b),
                    Bne => self.binop(BinOp::CmpNe, a, b),
                    Blt => self.binop(BinOp::CmpLtS, a, b),
                    // rs1 >= rs2  ⇔  rs2 <= rs1
                    Bge => self.binop(BinOp::CmpLeS, b, a),
                    Bltu => self.binop(BinOp::CmpLtU, a, b),
                    _ => unreachable!(),
                };
                self.push(Stmt::Exit {
                    guard: cond,
                    target: inst.imm as u64,
                    kind: JumpKind::Boring,
                });
                self.block.next = Atom::imm(next_pc);
                self.block.jumpkind = JumpKind::Boring;
                true
            }
            Cas => {
                let addr = self.get(inst.rs1);
                let expected = self.get(inst.rd);
                let new = self.get(inst.rs2);
                let t = self.tmp();
                self.push(Stmt::Cas { dst: t, addr, expected, new });
                self.put(inst.rd, t.into());
                false
            }
            Amoadd => {
                let addr = self.get(inst.rs1);
                let val = self.get(inst.rs2);
                let t = self.tmp();
                self.push(Stmt::AtomicAdd { dst: t, addr, val });
                self.put(inst.rd, t.into());
                false
            }
            Sys => {
                let mut args = vec![Atom::imm(inst.imm as u64)];
                for r in [reg::A0, reg::A1, reg::A2, reg::A3, reg::A4, reg::A5] {
                    args.push(self.get(r));
                }
                let t = self.tmp();
                self.push(Stmt::Dirty { call: DirtyCall::Syscall, args, dst: Some(t) });
                self.put(inst.rd, t.into());
                self.block.next = Atom::imm(next_pc);
                self.block.jumpkind = JumpKind::Boring;
                true
            }
            Clreq => {
                let mut args = Vec::with_capacity(6);
                for r in [reg::A0, reg::A1, reg::A2, reg::A3, reg::A4, reg::A5] {
                    args.push(self.get(r));
                }
                let t = self.tmp();
                self.push(Stmt::Dirty { call: DirtyCall::ClientRequest, args, dst: Some(t) });
                self.put(inst.rd, t.into());
                self.block.next = Atom::imm(next_pc);
                self.block.jumpkind = JumpKind::Boring;
                true
            }
            Halt => {
                self.block.next = Atom::imm(0);
                self.block.jumpkind = JumpKind::Halt;
                true
            }
            Nop => false,
        }
    }
}

/// Most statements [`Lifter::lift_inst`] emits for one `op`: a `sys` or
/// `clreq` emits its `IMark`, six argument `Get`s, the call and a `Put`;
/// any other instruction at most six (a `cas`: `IMark`, three `Get`s,
/// the `Cas` and a `Put`).
fn max_stmts(op: Op) -> usize {
    if matches!(op, Op::Sys | Op::Clreq) {
        9
    } else {
        6
    }
}

/// Does every instruction of the superblock at `base` decode?
/// [`lift_superblock`] fails exactly when it does not, so the cold tier
/// runs only blocks that would translate.
pub fn decodes(module: &tga::module::Module, base: u64) -> bool {
    let mut pc = base;
    for _ in 0..MAX_BLOCK_INSTS {
        let Some(inst) = module.fetch(pc) else { return false };
        if inst.op.ends_block() {
            break;
        }
        pc += INST_SIZE;
    }
    true
}

/// Lift the superblock starting at `base`. A first scan over its
/// instructions sizes the statement vector, so lifting never regrows it.
pub fn lift_superblock(module: &tga::module::Module, base: u64) -> Result<IrBlock, LiftError> {
    let mut max = 0;
    let mut pc = base;
    for _ in 0..MAX_BLOCK_INSTS {
        let Some(inst) = module.fetch(pc) else { break };
        max += max_stmts(inst.op);
        pc += INST_SIZE;
        if inst.op.ends_block() {
            break;
        }
    }
    let block = IrBlock { stmts: Vec::with_capacity(max), ..IrBlock::new(base) };
    let mut l = Lifter { module, block };
    let mut pc = base;
    for i in 0..MAX_BLOCK_INSTS {
        let inst = l.module.fetch(pc).ok_or_else(|| LiftError {
            addr: pc,
            msg: if i == 0 {
                "not a code address".into()
            } else {
                "fell off the end of the text section".into()
            },
        })?;
        let ended = l.lift_inst(&inst, pc);
        pc += INST_SIZE;
        if ended {
            debug_assert!(l.block.stmts.len() <= max, "max_stmts undercounts");
            return Ok(l.block);
        }
    }
    // Length cap: fall through to the next instruction.
    debug_assert!(l.block.stmts.len() <= max, "max_stmts undercounts");
    l.block.next = Atom::imm(pc);
    l.block.jumpkind = JumpKind::Boring;
    Ok(l.block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tga::asm::assemble;
    use tga::module::{Module, CODE_BASE};
    use vex_ir::sanity;

    fn module_from(src: &str) -> Module {
        let (code, _) = assemble(src, CODE_BASE).unwrap();
        let mut m = Module::new();
        m.code = code;
        m.entry = CODE_BASE;
        m
    }

    #[test]
    fn lifts_straightline_block_until_branch() {
        let m = module_from(
            "li t0, 5\n addi t1, t0, 2\n st t1, 8(sp)\n ld t2, 8(sp)\n beq t1, t2, 0x0\n nop",
        );
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        sanity::assert_sane(&b, "lifted");
        assert_eq!(b.guest_instrs(), 5, "block stops at the branch");
        assert!(matches!(b.jumpkind, JumpKind::Boring));
        assert_eq!(b.next, Atom::imm(CODE_BASE + 5 * INST_SIZE));
        assert!(b.stmts.iter().any(|s| matches!(s, Stmt::Exit { .. })));
    }

    #[test]
    fn call_and_ret_jumpkinds() {
        let m = module_from("jal ra, 0x10000\n");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        assert!(
            matches!(b.jumpkind, JumpKind::Call { return_addr } if return_addr == CODE_BASE + 16)
        );

        let m = module_from("jalr zero, ra, 0\n");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        assert!(matches!(b.jumpkind, JumpKind::Ret));

        let m = module_from("jalr ra, t0, 0\n");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        assert!(matches!(b.jumpkind, JumpKind::Call { .. }), "indirect call via jalr ra");
    }

    #[test]
    fn zero_register_semantics() {
        let m = module_from("add zero, t0, t1\n li zero, 7\n halt");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        sanity::assert_sane(&b, "lifted");
        // No Put to register 0 is ever emitted.
        assert!(!b.stmts.iter().any(|s| matches!(s, Stmt::Put { reg: 0, .. })));
        assert!(matches!(b.jumpkind, JumpKind::Halt));
    }

    #[test]
    fn syscall_and_clreq_end_blocks_and_pass_args() {
        let m = module_from("sys a0, 2\n nop");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        assert_eq!(b.guest_instrs(), 1);
        let dirty = b
            .stmts
            .iter()
            .find(|s| matches!(s, Stmt::Dirty { call: DirtyCall::Syscall, .. }))
            .unwrap();
        if let Stmt::Dirty { args, dst, .. } = dirty {
            assert_eq!(args.len(), 7, "syscall number + a0..a5");
            assert_eq!(args[0], Atom::imm(2));
            assert!(dst.is_some());
        }

        let m = module_from("clreq a0\n nop");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        assert!(b
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::Dirty { call: DirtyCall::ClientRequest, .. })));
    }

    #[test]
    fn cap_splits_long_blocks() {
        let src = "nop\n".repeat(MAX_BLOCK_INSTS + 10) + "halt";
        let m = module_from(&src);
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        assert_eq!(b.guest_instrs(), MAX_BLOCK_INSTS);
        assert_eq!(b.next, Atom::imm(CODE_BASE + (MAX_BLOCK_INSTS as u64) * INST_SIZE));
    }

    #[test]
    fn lift_errors_on_bad_address() {
        let m = module_from("nop");
        let e = lift_superblock(&m, 0x3).unwrap_err();
        assert!(e.msg.contains("not a code address"));
        // Running off the end without a terminator is an error too.
        let e = lift_superblock(&m, CODE_BASE).unwrap_err();
        assert!(e.msg.contains("fell off"));
        assert!(!decodes(&m, 0x3) && !decodes(&m, CODE_BASE));
        let m = module_from(&("nop\n".repeat(MAX_BLOCK_INSTS) + "halt"));
        assert!(decodes(&m, CODE_BASE), "the length cap ends the block before the end");
        assert!(decodes(&m, CODE_BASE + MAX_BLOCK_INSTS as u64 * INST_SIZE));
    }

    #[test]
    fn atomics_lift_with_expected_from_rd() {
        let m = module_from("cas t0, (a0), t1\n amoadd t2, (a0), t1\n halt");
        let b = lift_superblock(&m, CODE_BASE).unwrap();
        sanity::assert_sane(&b, "lifted atomics");
        assert!(b.stmts.iter().any(|s| matches!(s, Stmt::Cas { .. })));
        assert!(b.stmts.iter().any(|s| matches!(s, Stmt::AtomicAdd { .. })));
    }
}
