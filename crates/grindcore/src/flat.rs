//! Pre-flattened superblock form for the chained dispatcher.
//!
//! The reference engine (`VmConfig::chaining = false`) walks the
//! instrumented [`IrBlock`] statement list directly: every guest
//! instruction pays an `IMark` dispatch and every operand pays a nested
//! `Rhs` match. Since a chained block is by definition steady-state
//! hot, the chaining engine compiles it once — at translation time —
//! into this flat form:
//!
//! * `IMark`s disappear: the instruction counts a block contributes at
//!   every observable point (each dirty call, each exit) are computed
//!   statically and applied as a single add, and the faulting pc of
//!   every trap site is baked in as a constant;
//! * operands are one `u32` each — a tag bit selects the temp file or
//!   the block's constant pool — so ops pack ~3x denser than `Stmt`s
//!   and evaluate without matching an `Atom` enum;
//! * cold payloads (dirty-call argument lists, exit descriptors, trap
//!   pcs) live in side tables so the hot op array stays small.
//!
//! Semantics are bit-identical to the reference walk — same memory and
//! register effects, same tool-callback order and arguments, same
//! `instrs` at every dirty call and exit, same error pcs. The
//! differential test layer (`tests/chaining_differential.rs`) holds the
//! two engines to that.

use crate::mem::PageIc;
use vex_ir::{Atom, BinOp, DirtyCall, IrBlock, JumpKind, Rhs, Stmt, Ty, UnOp};

/// Operand tag bit: set → temp index, clear → constant-pool index.
pub const TMP_BIT: u32 = 0x8000_0000;

/// One flat op. Operands (`u32`) index the temp file or constant pool
/// (see [`TMP_BIT`]); `idx`/`trap` fields index the side tables.
#[derive(Clone, Debug)]
pub enum FOp {
    /// `tmps[dst] = regs[reg]`
    Get {
        dst: u32,
        reg: u8,
    },
    /// `tmps[dst] = src`
    Mov {
        dst: u32,
        src: u32,
    },
    /// 8-byte load; `ic` indexes [`FlatBlock::ics`].
    Ld8 {
        dst: u32,
        addr: u32,
        ic: u32,
    },
    /// 1-byte load (zero-extended).
    Ld1 {
        dst: u32,
        addr: u32,
        ic: u32,
    },
    /// Non-trapping binary op.
    Bin {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
    },
    /// Binary op that can fault (`DivS`/`RemS`); `trap` indexes
    /// [`FlatBlock::traps`] for the faulting pc.
    BinTrap {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
        trap: u32,
    },
    Un {
        dst: u32,
        op: UnOp,
        x: u32,
    },
    /// Branchless select.
    Ite {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    /// `regs[reg] = src`
    Put {
        reg: u8,
        src: u32,
    },
    /// 8-byte store; `ic` indexes [`FlatBlock::ics`].
    St8 {
        addr: u32,
        val: u32,
        ic: u32,
    },
    /// 1-byte store.
    St1 {
        addr: u32,
        val: u32,
        ic: u32,
    },
    /// Atomic compare-and-swap.
    Cas {
        dst: u32,
        addr: u32,
        expected: u32,
        new: u32,
    },
    /// Atomic fetch-and-add.
    Amo {
        dst: u32,
        addr: u32,
        val: u32,
    },
    /// Dirty helper call; `idx` indexes [`FlatBlock::dirties`].
    Dirty {
        idx: u32,
    },
    /// Tool memory-access callback; `idx` indexes [`FlatBlock::memcbs`].
    /// The hottest dirty call gets a dedicated op so the interpreter
    /// reads two operands straight from the side table instead of
    /// collecting an argument `Vec` per call.
    MemCb {
        idx: u32,
    },
    /// Guarded side exit; `idx` indexes [`FlatBlock::exits`].
    Exit {
        guard: u32,
        idx: u32,
    },

    // --- Fused ops, produced only by the peephole pass below. The
    // guest ISA's load/store/ALU instructions each lift to a 3-4 stmt
    // Get/Bin/Ld/Put chain whose intermediates are read exactly once;
    // fusing adjacent single-use pairs collapses each chain back to one
    // op, roughly halving dispatches per block. Every rule merges two
    // ADJACENT ops where the first writes only a temp read solely by
    // the second, so effects stay in program order.
    /// `regs[rd] = regs[rs]` (Get+Put).
    MovRR {
        rd: u8,
        rs: u8,
    },
    /// `tmps[dst] = op(regs[rs], consts[c])` (Get+Bin).
    BinRI {
        dst: u32,
        op: BinOp,
        rs: u8,
        c: u32,
    },
    /// `regs[rd] = op(regs[rs], consts[c])` (BinRI+Put) — e.g. `addi`.
    BinRIP {
        rd: u8,
        op: BinOp,
        rs: u8,
        c: u32,
    },
    /// `tmps[dst] = op(a, regs[rb])` (Get+Bin, register on the rhs).
    BinTR {
        dst: u32,
        op: BinOp,
        a: u32,
        rb: u8,
    },
    /// `tmps[dst] = op(regs[ra], regs[rb])` (Get+BinTR).
    BinRR {
        dst: u32,
        op: BinOp,
        ra: u8,
        rb: u8,
    },
    /// `regs[rd] = op(regs[ra], regs[rb])` (BinRR+Put) — reg-reg ALU.
    BinRRP {
        rd: u8,
        op: BinOp,
        ra: u8,
        rb: u8,
    },
    /// 8-byte load at `regs[rs] + consts[c]` into a temp.
    LdRO {
        dst: u32,
        rs: u8,
        c: u32,
        ic: u32,
    },
    /// `regs[rd] = load(regs[rs] + consts[c])` — a whole guest `ld`.
    LdRP {
        rd: u8,
        rs: u8,
        c: u32,
        ic: u32,
    },
    /// 8-byte store of `regs[vr]` at an operand address (Get+St8).
    StV {
        addr: u32,
        vr: u8,
        ic: u32,
    },
    /// 8-byte store of an operand at `regs[rs] + consts[c]`.
    StRV {
        rs: u8,
        c: u32,
        val: u32,
        ic: u32,
    },
    /// 8-byte store of `regs[vr]` at `regs[rs] + consts[c]` — a whole
    /// guest `st`.
    StRR {
        rs: u8,
        c: u32,
        vr: u8,
        ic: u32,
    },
    /// `regs[rd] = load(addr)` (Ld8+Put); a `Get` or `BinRI` address
    /// then folds in to make an `LdRP`.
    LdP {
        rd: u8,
        addr: u32,
        ic: u32,
    },
}

/// Cold payload of a dirty call.
#[derive(Clone, Debug)]
pub struct FDirty {
    pub call: DirtyCall,
    pub args: Box<[u32]>,
    pub dst: Option<u32>,
    /// Guest pc of the instruction containing the call (the last
    /// `IMark` before it).
    pub pc: u64,
    /// Guest instructions retired when control reaches the call.
    pub instrs: u32,
}

/// Cold payload of a tool memory-access callback ([`FOp::MemCb`]).
/// Same accounting contract as [`FDirty`]: `pc` is the guest pc of the
/// access and `instrs` the retired count when the callback fires.
#[derive(Clone, Copy, Debug)]
pub struct FMemCb {
    pub addr: u32,
    pub size: u32,
    pub write: bool,
    pub pc: u64,
    pub instrs: u32,
}

/// Descriptor of a guarded side exit.
#[derive(Clone, Copy, Debug)]
pub struct FExit {
    pub target: u64,
    pub kind: JumpKind,
    /// Chain-link ordinal (side exits in statement order).
    pub ord: u32,
    /// Guest instructions retired when this exit is taken.
    pub instrs: u32,
}

/// Faulting-site payload of a [`FOp::BinTrap`].
#[derive(Clone, Copy, Debug)]
pub struct FTrap {
    pub pc: u64,
    pub instrs: u32,
}

/// A superblock compiled for the chained engine. Produced from the
/// *instrumented* IR, so tool callbacks are ordinary [`FOp::Dirty`] ops.
#[derive(Clone, Debug)]
pub struct FlatBlock {
    pub base: u64,
    pub n_temps: u32,
    pub ops: Box<[FOp]>,
    pub consts: Box<[u64]>,
    pub dirties: Box<[FDirty]>,
    pub memcbs: Box<[FMemCb]>,
    pub exits: Box<[FExit]>,
    pub traps: Box<[FTrap]>,
    /// Per-site inline caches of the block's load/store ops: each site
    /// remembers the page it touched last, so steady-state guest memory
    /// access skips the page-table probe entirely.
    pub ics: Box<[PageIc]>,
    /// Fallthrough target operand (constant or temp).
    pub next: u32,
    pub jumpkind: JumpKind,
    /// Guest instructions retired on the fallthrough path.
    pub instrs_total: u32,
    /// Chain-link ordinal of the fallthrough exit (== side-exit count).
    pub fall_ord: u32,
    /// True when some temp may be read before it is written (a defect
    /// [`vex_ir::sanity`] flags, but tolerated here): the executor must
    /// zero the temp file so such reads see 0, exactly as the reference
    /// walker's freshly zeroed buffer does. Sane blocks skip the memset.
    pub zero_temps: bool,
}

impl FlatBlock {
    /// True when the fallthrough target is known at translation time
    /// (chains through a link slot rather than the IBTC).
    pub fn next_is_const(&self) -> bool {
        self.next & TMP_BIT == 0
    }

    /// Host bytes the block owns on the heap: its op array and side
    /// tables (every one an exact-length boxed slice).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.ops)
            + size_of_val(&*self.consts)
            + size_of_val(&*self.dirties)
            + self.dirties.iter().map(|d| size_of_val(&*d.args)).sum::<usize>()
            + size_of_val(&*self.memcbs)
            + size_of_val(&*self.exits)
            + size_of_val(&*self.traps)
            + size_of_val(&*self.ics)
    }
}

fn operand(consts: &mut Vec<u64>, a: &Atom) -> u32 {
    match a {
        Atom::Const(c) => {
            consts.push(*c);
            (consts.len() - 1) as u32
        }
        Atom::Tmp(t) => t.0 | TMP_BIT,
    }
}

/// Compile an instrumented superblock into its flat form.
pub fn compile(ir: &IrBlock) -> FlatBlock {
    let mut ops = Vec::with_capacity(ir.stmts.len());
    let mut consts = Vec::new();
    let mut dirties = Vec::new();
    let mut memcbs = Vec::new();
    let mut exits = Vec::new();
    let mut traps = Vec::new();
    let mut ics: Vec<PageIc> = Vec::new();
    // Statically tracked interpreter state: the pc of the current guest
    // instruction and how many instructions have retired so far.
    let mut pc = ir.base;
    let mut instrs: u32 = 0;
    let mut ord: u32 = 0;

    for stmt in &ir.stmts {
        match stmt {
            Stmt::IMark { addr, .. } => {
                pc = *addr;
                instrs += 1;
            }
            Stmt::WrTmp { dst, rhs } => {
                let dst = dst.0;
                ops.push(match rhs {
                    Rhs::Atom(a) => FOp::Mov { dst, src: operand(&mut consts, a) },
                    Rhs::Get { reg } => FOp::Get { dst, reg: *reg },
                    Rhs::Load { ty, addr } => {
                        let addr = operand(&mut consts, addr);
                        ics.push(PageIc::new());
                        let ic = (ics.len() - 1) as u32;
                        match ty {
                            Ty::I8 => FOp::Ld1 { dst, addr, ic },
                            _ => FOp::Ld8 { dst, addr, ic },
                        }
                    }
                    Rhs::Binop { op, lhs, rhs } => {
                        let a = operand(&mut consts, lhs);
                        let b = operand(&mut consts, rhs);
                        if matches!(op, BinOp::DivS | BinOp::RemS) {
                            traps.push(FTrap { pc, instrs });
                            FOp::BinTrap { dst, op: *op, a, b, trap: (traps.len() - 1) as u32 }
                        } else {
                            FOp::Bin { dst, op: *op, a, b }
                        }
                    }
                    Rhs::Unop { op, x } => FOp::Un { dst, op: *op, x: operand(&mut consts, x) },
                    Rhs::Ite { cond, then, els } => FOp::Ite {
                        dst,
                        c: operand(&mut consts, cond),
                        t: operand(&mut consts, then),
                        e: operand(&mut consts, els),
                    },
                });
            }
            Stmt::Put { reg, src } => {
                ops.push(FOp::Put { reg: *reg, src: operand(&mut consts, src) });
            }
            Stmt::Store { ty, addr, val } => {
                let addr = operand(&mut consts, addr);
                let val = operand(&mut consts, val);
                ics.push(PageIc::new());
                let ic = (ics.len() - 1) as u32;
                ops.push(match ty {
                    Ty::I8 => FOp::St1 { addr, val, ic },
                    _ => FOp::St8 { addr, val, ic },
                });
            }
            Stmt::Cas { dst, addr, expected, new } => {
                ops.push(FOp::Cas {
                    dst: dst.0,
                    addr: operand(&mut consts, addr),
                    expected: operand(&mut consts, expected),
                    new: operand(&mut consts, new),
                });
            }
            Stmt::AtomicAdd { dst, addr, val } => {
                ops.push(FOp::Amo {
                    dst: dst.0,
                    addr: operand(&mut consts, addr),
                    val: operand(&mut consts, val),
                });
            }
            Stmt::Dirty { call, args, dst } => {
                if let (DirtyCall::ToolMem { write }, None, 2) = (call, dst, args.len()) {
                    memcbs.push(FMemCb {
                        addr: operand(&mut consts, &args[0]),
                        size: operand(&mut consts, &args[1]),
                        write: *write,
                        pc,
                        instrs,
                    });
                    ops.push(FOp::MemCb { idx: (memcbs.len() - 1) as u32 });
                } else {
                    dirties.push(FDirty {
                        call: *call,
                        args: args.iter().map(|a| operand(&mut consts, a)).collect(),
                        dst: dst.map(|d| d.0),
                        pc,
                        instrs,
                    });
                    ops.push(FOp::Dirty { idx: (dirties.len() - 1) as u32 });
                }
            }
            Stmt::Exit { guard, target, kind } => {
                exits.push(FExit { target: *target, kind: *kind, ord, instrs });
                ops.push(FOp::Exit {
                    guard: operand(&mut consts, guard),
                    idx: (exits.len() - 1) as u32,
                });
                ord += 1;
            }
        }
    }

    let next = operand(&mut consts, &ir.next);
    let ops = {
        let _s = tg_obs::trace::host_span("fuse");
        fuse(ops, &mut consts, &dirties, &memcbs, next, ir.n_temps)
    };
    let zero_temps = reads_undefined_temp(&ops, &dirties, &memcbs, next, ir.n_temps);
    FlatBlock {
        base: ir.base,
        n_temps: ir.n_temps,
        ops: ops.into_boxed_slice(),
        consts: consts.into_boxed_slice(),
        dirties: dirties.into_boxed_slice(),
        memcbs: memcbs.into_boxed_slice(),
        exits: exits.into_boxed_slice(),
        traps: traps.into_boxed_slice(),
        ics: ics.into_boxed_slice(),
        next,
        jumpkind: ir.jumpkind,
        instrs_total: instrs,
        fall_ord: ord,
        zero_temps,
    }
}

/// Temp-read counts over the whole block: ops' read operands, dirty
/// argument lists, mem-callback operands, and the fallthrough target. A
/// temp with exactly one read may have its defining op fused into the
/// reader — so a [`FOp::MemCb`]'s operands MUST be counted here, or a
/// temp read by both the callback and the actual load/store would look
/// single-use and fusion would destroy it before the callback ran.
fn use_counts(
    ops: &[FOp],
    dirties: &[FDirty],
    memcbs: &[FMemCb],
    next: u32,
    n_temps: u32,
) -> Vec<u32> {
    let mut uses = vec![0u32; n_temps as usize];
    let mut read = |o: u32| {
        if o & TMP_BIT != 0 {
            if let Some(n) = uses.get_mut((o & !TMP_BIT) as usize) {
                *n += 1;
            }
        }
    };
    for op in ops {
        match *op {
            FOp::Get { .. }
            | FOp::Dirty { .. }
            | FOp::MemCb { .. }
            | FOp::MovRR { .. }
            | FOp::BinRI { .. }
            | FOp::BinRIP { .. }
            | FOp::BinRR { .. }
            | FOp::BinRRP { .. }
            | FOp::LdRO { .. }
            | FOp::LdRP { .. }
            | FOp::StRR { .. } => {}
            FOp::Mov { src, .. } | FOp::Put { src, .. } => read(src),
            FOp::Ld8 { addr, .. } | FOp::Ld1 { addr, .. } => read(addr),
            FOp::Bin { a, b, .. } | FOp::BinTrap { a, b, .. } => {
                read(a);
                read(b);
            }
            FOp::Un { x, .. } => read(x),
            FOp::Ite { c, t, e, .. } => {
                read(c);
                read(t);
                read(e);
            }
            FOp::St8 { addr, val, .. } | FOp::St1 { addr, val, .. } => {
                read(addr);
                read(val);
            }
            FOp::Cas { addr, expected, new, .. } => {
                read(addr);
                read(expected);
                read(new);
            }
            FOp::Amo { addr, val, .. } => {
                read(addr);
                read(val);
            }
            FOp::Exit { guard, .. } => read(guard),
            FOp::BinTR { a, .. } => read(a),
            FOp::StV { addr, .. } => read(addr),
            FOp::StRV { val, .. } => read(val),
            FOp::LdP { addr, .. } => read(addr),
        }
    }
    for d in dirties {
        for &a in d.args.iter() {
            read(a);
        }
    }
    for m in memcbs {
        read(m.addr);
        read(m.size);
    }
    read(next);
    uses
}

/// Peephole fusion over adjacent op pairs, to fixpoint. A pair fuses
/// when the first op writes only a temp whose sole reader (block-wide)
/// is the second op; the merged op performs both effects at the second
/// op's position, which is sound because nothing sits between them and
/// the absorbed op had no effect beyond the dropped temp. Dirty calls,
/// exits, traps and atomics are never absorbed, so every observable
/// point keeps its exact pc/instruction accounting.
fn fuse(
    mut ops: Vec<FOp>,
    consts: &mut Vec<u64>,
    dirties: &[FDirty],
    memcbs: &[FMemCb],
    next: u32,
    n_temps: u32,
) -> Vec<FOp> {
    // Index of constant 0, for folding `Get` (an addressing mode with
    // zero displacement) into the reg+offset load/store forms.
    let mut c0 = None;
    let mut zero = |consts: &mut Vec<u64>| {
        *c0.get_or_insert_with(|| {
            consts.push(0);
            (consts.len() - 1) as u32
        })
    };
    loop {
        let uses = use_counts(&ops, dirties, memcbs, next, n_temps);
        // `dst` is only fusable if the next op is its one reader.
        let once = |t: u32| uses[t as usize] == 1;
        let tm = |t: u32| t | TMP_BIT;
        let mut out: Vec<FOp> = Vec::with_capacity(ops.len());
        let mut changed = false;
        let mut i = 0;
        while i < ops.len() {
            let fused = if i + 1 < ops.len() {
                match (&ops[i], &ops[i + 1]) {
                    (&FOp::Get { dst, reg }, b) if once(dst) => match *b {
                        FOp::Mov { dst: d2, src } if src == tm(dst) => {
                            Some(FOp::Get { dst: d2, reg })
                        }
                        FOp::Put { reg: rd, src } if src == tm(dst) => {
                            Some(FOp::MovRR { rd, rs: reg })
                        }
                        FOp::Bin { dst: d2, op, a, b } if a == tm(dst) && b & TMP_BIT == 0 => {
                            Some(FOp::BinRI { dst: d2, op, rs: reg, c: b })
                        }
                        FOp::Bin { dst: d2, op, a, b } if b == tm(dst) && a != tm(dst) => {
                            Some(FOp::BinTR { dst: d2, op, a, rb: reg })
                        }
                        FOp::BinTR { dst: d2, op, a, rb } if a == tm(dst) => {
                            Some(FOp::BinRR { dst: d2, op, ra: reg, rb })
                        }
                        FOp::Ld8 { dst: d2, addr, ic } if addr == tm(dst) => {
                            Some(FOp::LdRO { dst: d2, rs: reg, c: zero(consts), ic })
                        }
                        FOp::LdP { rd, addr, ic } if addr == tm(dst) => {
                            Some(FOp::LdRP { rd, rs: reg, c: zero(consts), ic })
                        }
                        FOp::St8 { addr, val, ic } if val == tm(dst) && addr != tm(dst) => {
                            Some(FOp::StV { addr, vr: reg, ic })
                        }
                        FOp::St8 { addr, val, ic } if addr == tm(dst) && val != tm(dst) => {
                            Some(FOp::StRV { rs: reg, c: zero(consts), val, ic })
                        }
                        FOp::StV { addr, vr, ic } if addr == tm(dst) => {
                            Some(FOp::StRR { rs: reg, c: zero(consts), vr, ic })
                        }
                        _ => None,
                    },
                    (&FOp::Mov { dst, src }, &FOp::Put { reg: rd, src: s2 })
                        if once(dst) && s2 == tm(dst) =>
                    {
                        Some(FOp::Put { reg: rd, src })
                    }
                    (&FOp::BinRI { dst, op, rs, c }, b) if once(dst) => match *b {
                        FOp::Put { reg: rd, src } if src == tm(dst) => {
                            Some(FOp::BinRIP { rd, op, rs, c })
                        }
                        FOp::Ld8 { dst: d2, addr, ic }
                            if addr == tm(dst) && matches!(op, BinOp::Add) =>
                        {
                            Some(FOp::LdRO { dst: d2, rs, c, ic })
                        }
                        FOp::LdP { rd, addr, ic }
                            if addr == tm(dst) && matches!(op, BinOp::Add) =>
                        {
                            Some(FOp::LdRP { rd, rs, c, ic })
                        }
                        FOp::St8 { addr, val, ic }
                            if addr == tm(dst) && val != tm(dst) && matches!(op, BinOp::Add) =>
                        {
                            Some(FOp::StRV { rs, c, val, ic })
                        }
                        FOp::StV { addr, vr, ic }
                            if addr == tm(dst) && matches!(op, BinOp::Add) =>
                        {
                            Some(FOp::StRR { rs, c, vr, ic })
                        }
                        _ => None,
                    },
                    (&FOp::BinRR { dst, op, ra, rb }, &FOp::Put { reg: rd, src })
                        if once(dst) && src == tm(dst) =>
                    {
                        Some(FOp::BinRRP { rd, op, ra, rb })
                    }
                    (&FOp::LdRO { dst, rs, c, ic }, &FOp::Put { reg: rd, src })
                        if once(dst) && src == tm(dst) =>
                    {
                        Some(FOp::LdRP { rd, rs, c, ic })
                    }
                    (&FOp::Ld8 { dst, addr, ic }, &FOp::Put { reg: rd, src })
                        if once(dst) && src == tm(dst) =>
                    {
                        Some(FOp::LdP { rd, addr, ic })
                    }
                    _ => None,
                }
            } else {
                None
            };
            match fused {
                Some(f) => {
                    out.push(f);
                    i += 2;
                    changed = true;
                }
                None => {
                    out.push(ops[i].clone());
                    i += 1;
                }
            }
        }
        ops = out;
        if !changed {
            return ops;
        }
    }
}

/// Def-before-use scan over the compiled ops (the sanity checker's
/// `UseBeforeDef` rule): returns true if any operand can read a temp no
/// earlier op defined, in which case the executor must zero the temp
/// file to match the reference walker's zeroed buffer.
fn reads_undefined_temp(
    ops: &[FOp],
    dirties: &[FDirty],
    memcbs: &[FMemCb],
    next: u32,
    n_temps: u32,
) -> bool {
    let mut defined = vec![false; n_temps as usize];
    let undef = |o: u32, d: &[bool]| {
        o & TMP_BIT != 0 && !d.get((o & !TMP_BIT) as usize).copied().unwrap_or(false)
    };
    let def = |t: u32, d: &mut [bool]| {
        if let Some(slot) = d.get_mut(t as usize) {
            *slot = true;
        }
    };
    for op in ops {
        match *op {
            FOp::Get { dst, .. } => def(dst, &mut defined),
            FOp::Mov { dst, src } => {
                if undef(src, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Ld8 { dst, addr, .. } | FOp::Ld1 { dst, addr, .. } => {
                if undef(addr, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Bin { dst, a, b, .. } | FOp::BinTrap { dst, a, b, .. } => {
                if undef(a, &defined) || undef(b, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Un { dst, x, .. } => {
                if undef(x, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Ite { dst, c, t, e } => {
                if undef(c, &defined) || undef(t, &defined) || undef(e, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Put { src, .. } => {
                if undef(src, &defined) {
                    return true;
                }
            }
            FOp::St8 { addr, val, .. } | FOp::St1 { addr, val, .. } => {
                if undef(addr, &defined) || undef(val, &defined) {
                    return true;
                }
            }
            FOp::Cas { dst, addr, expected, new } => {
                if undef(addr, &defined) || undef(expected, &defined) || undef(new, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Amo { dst, addr, val } => {
                if undef(addr, &defined) || undef(val, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::Dirty { idx } => {
                let d = &dirties[idx as usize];
                if d.args.iter().any(|&a| undef(a, &defined)) {
                    return true;
                }
                if let Some(t) = d.dst {
                    def(t, &mut defined);
                }
            }
            FOp::MemCb { idx } => {
                let m = &memcbs[idx as usize];
                if undef(m.addr, &defined) || undef(m.size, &defined) {
                    return true;
                }
            }
            FOp::Exit { guard, .. } => {
                if undef(guard, &defined) {
                    return true;
                }
            }
            FOp::MovRR { .. }
            | FOp::BinRIP { .. }
            | FOp::BinRRP { .. }
            | FOp::LdRP { .. }
            | FOp::StRR { .. } => {}
            FOp::BinRI { dst, .. } | FOp::BinRR { dst, .. } | FOp::LdRO { dst, .. } => {
                def(dst, &mut defined)
            }
            FOp::BinTR { dst, a, .. } => {
                if undef(a, &defined) {
                    return true;
                }
                def(dst, &mut defined);
            }
            FOp::StV { addr, .. } => {
                if undef(addr, &defined) {
                    return true;
                }
            }
            FOp::StRV { val, .. } => {
                if undef(val, &defined) {
                    return true;
                }
            }
            FOp::LdP { addr, .. } => {
                if undef(addr, &defined) {
                    return true;
                }
            }
        }
    }
    undef(next, &defined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_ir::Temp;

    #[test]
    fn compile_folds_imarks_and_numbers_exits() {
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 2;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 3 } });
        b.stmts.push(Stmt::Exit {
            guard: Atom::Tmp(Temp(0)),
            target: 0x2000,
            kind: JumpKind::Boring,
        });
        b.stmts.push(Stmt::IMark { addr: 0x1010, len: 16 });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Binop { op: BinOp::DivS, lhs: Atom::Tmp(Temp(0)), rhs: Atom::Const(2) },
        });
        b.next = Atom::imm(0x1020);
        let f = compile(&b);
        assert_eq!(f.ops.len(), 3, "IMarks are folded away");
        assert_eq!(f.instrs_total, 2);
        assert_eq!(f.fall_ord, 1);
        assert!(f.next_is_const());
        assert_eq!(f.exits.len(), 1);
        assert_eq!(f.exits[0].ord, 0);
        assert_eq!(f.exits[0].instrs, 1, "exit taken after one instruction");
        assert_eq!(f.traps.len(), 1);
        assert_eq!(f.traps[0].pc, 0x1010, "trap pc is the second IMark");
        assert_eq!(f.traps[0].instrs, 2);
        // The DivS became a BinTrap, the Get a plain op with a temp dst.
        assert!(matches!(f.ops[2], FOp::BinTrap { .. }));
        assert!(matches!(f.ops[0], FOp::Get { dst: 0, reg: 3 }));
    }

    #[test]
    fn operand_encoding_separates_temps_and_consts() {
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 1;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::Put { reg: 1, src: Atom::Const(0xdead) });
        b.stmts.push(Stmt::Put { reg: 2, src: Atom::Tmp(Temp(0)) });
        b.next = Atom::Tmp(Temp(0));
        let f = compile(&b);
        assert!(!f.next_is_const(), "computed next chains through the IBTC");
        let FOp::Put { src: c, .. } = f.ops[0] else { panic!() };
        let FOp::Put { src: t, .. } = f.ops[1] else { panic!() };
        assert_eq!(c & TMP_BIT, 0);
        assert_eq!(f.consts[c as usize], 0xdead);
        assert_eq!(t, TMP_BIT, "temp 0 is the tag bit alone");
    }

    #[test]
    fn fusion_collapses_lifted_load_to_one_op() {
        // The lifter's `ld rd, off(fp)` shape: Get/Add/Load/Put with
        // every intermediate read exactly once. Fixpoint fusion must
        // collapse the whole chain to a single `LdRP`.
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 3;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp { dst: Temp(0), rhs: Rhs::Get { reg: 3 } });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Binop {
                op: BinOp::Add,
                lhs: Atom::Tmp(Temp(0)),
                rhs: Atom::Const(-16i64 as u64),
            },
        });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(2),
            rhs: Rhs::Load { ty: Ty::I64, addr: Atom::Tmp(Temp(1)) },
        });
        b.stmts.push(Stmt::Put { reg: 13, src: Atom::Tmp(Temp(2)) });
        b.next = Atom::imm(0x1010);
        let f = compile(&b);
        assert_eq!(f.ops.len(), 1, "Get/Add/Load/Put fuse to one op: {:?}", f.ops);
        let FOp::LdRP { rd: 13, rs: 3, c, .. } = f.ops[0] else {
            panic!("expected LdRP, got {:?}", f.ops[0]);
        };
        assert_eq!(f.consts[c as usize], -16i64 as u64);
    }

    #[test]
    fn tool_mem_callbacks_compile_to_memcb_ops() {
        // An instrumented load: the address temp is read by BOTH the
        // callback and the load itself. The callback must become a
        // MemCb (no argument Vec at run time) and its operand reads
        // must keep the temp's use count at 2 so fusion cannot absorb
        // the defining op into the load and skip the callback.
        let mut b = IrBlock::new(0x1000);
        b.n_temps = 2;
        b.stmts.push(Stmt::IMark { addr: 0x1000, len: 16 });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(0),
            rhs: Rhs::Binop { op: BinOp::Add, lhs: Atom::Const(0x5000), rhs: Atom::Const(8) },
        });
        b.stmts.push(Stmt::Dirty {
            call: DirtyCall::ToolMem { write: false },
            args: vec![Atom::Tmp(Temp(0)), Atom::imm(8)],
            dst: None,
        });
        b.stmts.push(Stmt::WrTmp {
            dst: Temp(1),
            rhs: Rhs::Load { ty: Ty::I64, addr: Atom::Tmp(Temp(0)) },
        });
        b.next = Atom::imm(0x1010);
        let f = compile(&b);
        assert!(f.dirties.is_empty(), "ToolMem goes to the memcb table: {:?}", f.dirties);
        assert_eq!(f.memcbs.len(), 1);
        assert_eq!(f.memcbs[0].pc, 0x1000);
        assert_eq!(f.memcbs[0].instrs, 1);
        assert!(!f.memcbs[0].write);
        assert!(
            f.ops.iter().any(|o| matches!(o, FOp::MemCb { .. })),
            "callback survives fusion: {:?}",
            f.ops
        );
        assert!(
            f.ops.iter().any(|o| matches!(o, FOp::Bin { .. })),
            "the address def must NOT fuse past the callback: {:?}",
            f.ops
        );
    }
}
