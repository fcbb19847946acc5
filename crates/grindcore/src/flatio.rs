//! Hand-rolled binary (de)serialization for compiled flat superblocks.
//!
//! The encoding is positional little-endian over [`crate::wire`]: every
//! [`FOp`] is a one-byte tag (numbered in declaration order; renumbering
//! bumps the disk cache's format version) followed by its fields, the
//! side tables are length-prefixed, and the per-site inline caches are
//! stored as a bare count — [`PageIc`] state is purely dynamic, so
//! decoding recreates fresh (empty) caches. `zero_temps` is not stored
//! either: decoding derives it from the ops, as compiling does.
//!
//! Decoding is total and checked: any byte sequence either yields a
//! [`FlatBlock`] that passes [`FlatBlock::check`] — so every index the
//! executor follows is in range — or a [`WireError`]. Callers (the disk
//! cache) additionally checksum each record, so a block that differs
//! from what was stored runs only if someone forged its checksum, and
//! even then it cannot panic the dispatch loop.

use crate::flat::{FDirty, FExit, FOp, FSide, FlatBlock};
use crate::mem::PageIc;
use crate::wire::{Dec, Enc, WireError, WireResult};
use vex_ir::{BinOp, DirtyCall, JumpKind, UnOp};

fn enc_jumpkind(e: &mut Enc, k: JumpKind) {
    match k {
        JumpKind::Boring => e.u8(0),
        JumpKind::Call { return_addr } => {
            e.u8(1);
            e.u64(return_addr);
        }
        JumpKind::Ret => e.u8(2),
        JumpKind::Halt => e.u8(3),
    }
}

fn dec_jumpkind(d: &mut Dec) -> WireResult<JumpKind> {
    Ok(match d.u8("jumpkind tag")? {
        0 => JumpKind::Boring,
        1 => JumpKind::Call { return_addr: d.u64("call return_addr")? },
        2 => JumpKind::Ret,
        3 => JumpKind::Halt,
        _ => return Err(WireError { what: "jumpkind tag" }),
    })
}

fn enc_dirtycall(e: &mut Enc, c: DirtyCall) {
    match c {
        DirtyCall::Syscall => e.u8(0),
        DirtyCall::ClientRequest => e.u8(1),
        DirtyCall::ToolMem { write } => {
            e.u8(2);
            e.bool(write);
        }
        DirtyCall::ToolHelper { id } => {
            e.u8(3);
            e.u32(id);
        }
    }
}

fn dec_dirtycall(d: &mut Dec) -> WireResult<DirtyCall> {
    Ok(match d.u8("dirtycall tag")? {
        0 => DirtyCall::Syscall,
        1 => DirtyCall::ClientRequest,
        2 => DirtyCall::ToolMem { write: d.bool("toolmem write")? },
        3 => DirtyCall::ToolHelper { id: d.u32("toolhelper id")? },
        _ => return Err(WireError { what: "dirtycall tag" }),
    })
}

fn dec_binop(d: &mut Dec) -> WireResult<BinOp> {
    BinOp::from_wire_tag(d.u8("binop tag")?).ok_or(WireError { what: "binop tag" })
}

fn dec_unop(d: &mut Dec) -> WireResult<UnOp> {
    UnOp::from_wire_tag(d.u8("unop tag")?).ok_or(WireError { what: "unop tag" })
}

fn enc_op(e: &mut Enc, op: &FOp) {
    match *op {
        FOp::Get { dst, reg } => {
            e.u8(0);
            e.u16(dst);
            e.u8(reg);
        }
        FOp::Mov { dst, src } => {
            e.u8(1);
            e.u16(dst);
            e.u16(src);
        }
        FOp::Ld8 { dst, addr, ic } => {
            e.u8(2);
            e.u16(dst);
            e.u16(addr);
            e.u16(ic);
        }
        FOp::Ld1 { dst, addr, ic } => {
            e.u8(3);
            e.u16(dst);
            e.u16(addr);
            e.u16(ic);
        }
        FOp::Bin { dst, op, a, b } => {
            e.u8(4);
            e.u16(dst);
            e.u8(op.wire_tag());
            e.u16(a);
            e.u16(b);
        }
        FOp::BinTrap { dst, op, side } => {
            e.u8(5);
            e.u16(dst);
            e.u8(op.wire_tag());
            e.u16(side);
        }
        FOp::Un { dst, op, x } => {
            e.u8(6);
            e.u16(dst);
            e.u8(op.wire_tag());
            e.u16(x);
        }
        FOp::Ite { dst, side } => {
            e.u8(7);
            e.u16(dst);
            e.u16(side);
        }
        FOp::Put { reg, src } => {
            e.u8(8);
            e.u8(reg);
            e.u16(src);
        }
        FOp::St8 { addr, val, ic } => {
            e.u8(9);
            e.u16(addr);
            e.u16(val);
            e.u16(ic);
        }
        FOp::St1 { addr, val, ic } => {
            e.u8(10);
            e.u16(addr);
            e.u16(val);
            e.u16(ic);
        }
        FOp::Cas { dst, addr, side } => {
            e.u8(11);
            e.u16(dst);
            e.u16(addr);
            e.u16(side);
        }
        FOp::Amo { dst, addr, val } => {
            e.u8(12);
            e.u16(dst);
            e.u16(addr);
            e.u16(val);
        }
        FOp::Dirty { side } => {
            e.u8(13);
            e.u16(side);
        }
        FOp::MemCb { side } => {
            e.u8(14);
            e.u16(side);
        }
        FOp::Exit { guard, idx } => {
            e.u8(15);
            e.u16(guard);
            e.u16(idx);
        }
        FOp::MovRR { rd, rs } => {
            e.u8(16);
            e.u8(rd);
            e.u8(rs);
        }
        FOp::BinRI { dst, op, rs, c } => {
            e.u8(17);
            e.u16(dst);
            e.u8(op.wire_tag());
            e.u8(rs);
            e.u16(c);
        }
        FOp::BinRIP { rd, op, rs, c } => {
            e.u8(18);
            e.u8(rd);
            e.u8(op.wire_tag());
            e.u8(rs);
            e.u16(c);
        }
        FOp::BinTR { dst, op, a, rb } => {
            e.u8(19);
            e.u16(dst);
            e.u8(op.wire_tag());
            e.u16(a);
            e.u8(rb);
        }
        FOp::BinRR { dst, op, ra, rb } => {
            e.u8(20);
            e.u16(dst);
            e.u8(op.wire_tag());
            e.u8(ra);
            e.u8(rb);
        }
        FOp::BinRRP { rd, op, ra, rb } => {
            e.u8(21);
            e.u8(rd);
            e.u8(op.wire_tag());
            e.u8(ra);
            e.u8(rb);
        }
        FOp::LdRO { dst, rs, c, ic } => {
            e.u8(22);
            e.u16(dst);
            e.u8(rs);
            e.u16(c);
            e.u16(ic);
        }
        FOp::LdRP { rd, rs, c, ic } => {
            e.u8(23);
            e.u8(rd);
            e.u8(rs);
            e.u16(c);
            e.u16(ic);
        }
        FOp::StV { addr, vr, ic } => {
            e.u8(24);
            e.u16(addr);
            e.u8(vr);
            e.u16(ic);
        }
        FOp::StRV { rs, c, val, ic } => {
            e.u8(25);
            e.u8(rs);
            e.u16(c);
            e.u16(val);
            e.u16(ic);
        }
        FOp::StRR { rs, c, vr, ic } => {
            e.u8(26);
            e.u8(rs);
            e.u16(c);
            e.u8(vr);
            e.u16(ic);
        }
        FOp::LdP { rd, addr, ic } => {
            e.u8(27);
            e.u8(rd);
            e.u16(addr);
            e.u16(ic);
        }
    }
}

fn dec_op(d: &mut Dec) -> WireResult<FOp> {
    Ok(match d.u8("fop tag")? {
        0 => FOp::Get { dst: d.u16("get dst")?, reg: d.u8("get reg")? },
        1 => FOp::Mov { dst: d.u16("mov dst")?, src: d.u16("mov src")? },
        2 => FOp::Ld8 { dst: d.u16("ld8 dst")?, addr: d.u16("ld8 addr")?, ic: d.u16("ld8 ic")? },
        3 => FOp::Ld1 { dst: d.u16("ld1 dst")?, addr: d.u16("ld1 addr")?, ic: d.u16("ld1 ic")? },
        4 => FOp::Bin {
            dst: d.u16("bin dst")?,
            op: dec_binop(d)?,
            a: d.u16("bin a")?,
            b: d.u16("bin b")?,
        },
        5 => FOp::BinTrap {
            dst: d.u16("bintrap dst")?,
            op: dec_binop(d)?,
            side: d.u16("bintrap side")?,
        },
        6 => FOp::Un { dst: d.u16("un dst")?, op: dec_unop(d)?, x: d.u16("un x")? },
        7 => FOp::Ite { dst: d.u16("ite dst")?, side: d.u16("ite side")? },
        8 => FOp::Put { reg: d.u8("put reg")?, src: d.u16("put src")? },
        9 => FOp::St8 { addr: d.u16("st8 addr")?, val: d.u16("st8 val")?, ic: d.u16("st8 ic")? },
        10 => FOp::St1 { addr: d.u16("st1 addr")?, val: d.u16("st1 val")?, ic: d.u16("st1 ic")? },
        11 => {
            FOp::Cas { dst: d.u16("cas dst")?, addr: d.u16("cas addr")?, side: d.u16("cas side")? }
        }
        12 => FOp::Amo { dst: d.u16("amo dst")?, addr: d.u16("amo addr")?, val: d.u16("amo val")? },
        13 => FOp::Dirty { side: d.u16("dirty side")? },
        14 => FOp::MemCb { side: d.u16("memcb side")? },
        15 => FOp::Exit { guard: d.u16("exit guard")?, idx: d.u16("exit idx")? },
        16 => FOp::MovRR { rd: d.u8("movrr rd")?, rs: d.u8("movrr rs")? },
        17 => FOp::BinRI {
            dst: d.u16("binri dst")?,
            op: dec_binop(d)?,
            rs: d.u8("binri rs")?,
            c: d.u16("binri c")?,
        },
        18 => FOp::BinRIP {
            rd: d.u8("binrip rd")?,
            op: dec_binop(d)?,
            rs: d.u8("binrip rs")?,
            c: d.u16("binrip c")?,
        },
        19 => FOp::BinTR {
            dst: d.u16("bintr dst")?,
            op: dec_binop(d)?,
            a: d.u16("bintr a")?,
            rb: d.u8("bintr rb")?,
        },
        20 => FOp::BinRR {
            dst: d.u16("binrr dst")?,
            op: dec_binop(d)?,
            ra: d.u8("binrr ra")?,
            rb: d.u8("binrr rb")?,
        },
        21 => FOp::BinRRP {
            rd: d.u8("binrrp rd")?,
            op: dec_binop(d)?,
            ra: d.u8("binrrp ra")?,
            rb: d.u8("binrrp rb")?,
        },
        22 => FOp::LdRO {
            dst: d.u16("ldro dst")?,
            rs: d.u8("ldro rs")?,
            c: d.u16("ldro c")?,
            ic: d.u16("ldro ic")?,
        },
        23 => FOp::LdRP {
            rd: d.u8("ldrp rd")?,
            rs: d.u8("ldrp rs")?,
            c: d.u16("ldrp c")?,
            ic: d.u16("ldrp ic")?,
        },
        24 => FOp::StV { addr: d.u16("stv addr")?, vr: d.u8("stv vr")?, ic: d.u16("stv ic")? },
        25 => FOp::StRV {
            rs: d.u8("strv rs")?,
            c: d.u16("strv c")?,
            val: d.u16("strv val")?,
            ic: d.u16("strv ic")?,
        },
        26 => FOp::StRR {
            rs: d.u8("strr rs")?,
            c: d.u16("strr c")?,
            vr: d.u8("strr vr")?,
            ic: d.u16("strr ic")?,
        },
        27 => FOp::LdP { rd: d.u8("ldp rd")?, addr: d.u16("ldp addr")?, ic: d.u16("ldp ic")? },
        _ => return Err(WireError { what: "fop tag" }),
    })
}

fn enc_side(e: &mut Enc, s: &FSide) {
    match s {
        FSide::MemCb { addr, size, write, pc, instrs } => {
            e.u8(0);
            e.u16(*addr);
            e.u16(*size);
            e.bool(*write);
            e.u64(*pc);
            e.u16(*instrs);
        }
        FSide::Dirty(dcall) => {
            e.u8(1);
            enc_dirtycall(e, dcall.call);
            e.seq(dcall.args.len());
            for &a in dcall.args.iter() {
                e.u16(a);
            }
            match dcall.dst {
                Some(dst) => {
                    e.bool(true);
                    e.u16(dst);
                }
                None => e.bool(false),
            }
            e.u64(dcall.pc);
            e.u16(dcall.instrs);
        }
        FSide::Trap { a, b, pc, instrs } => {
            e.u8(2);
            e.u16(*a);
            e.u16(*b);
            e.u64(*pc);
            e.u16(*instrs);
        }
        FSide::Ite { c, t, e: els } => {
            e.u8(3);
            e.u16(*c);
            e.u16(*t);
            e.u16(*els);
        }
        FSide::Cas { expected, new } => {
            e.u8(4);
            e.u16(*expected);
            e.u16(*new);
        }
    }
}

fn dec_side(d: &mut Dec) -> WireResult<FSide> {
    Ok(match d.u8("side tag")? {
        0 => FSide::MemCb {
            addr: d.u16("memcb addr")?,
            size: d.u16("memcb size")?,
            write: d.bool("memcb write")?,
            pc: d.u64("memcb pc")?,
            instrs: d.u16("memcb instrs")?,
        },
        1 => {
            let call = dec_dirtycall(d)?;
            let n_args = d.seq(2, "dirty args len")?;
            let mut args = Vec::with_capacity(n_args);
            for _ in 0..n_args {
                args.push(d.u16("dirty arg")?);
            }
            let dst = if d.bool("dirty dst flag")? { Some(d.u16("dirty dst")?) } else { None };
            FSide::Dirty(Box::new(FDirty {
                call,
                args: args.into_boxed_slice(),
                dst,
                pc: d.u64("dirty pc")?,
                instrs: d.u16("dirty instrs")?,
            }))
        }
        2 => FSide::Trap {
            a: d.u16("trap a")?,
            b: d.u16("trap b")?,
            pc: d.u64("trap pc")?,
            instrs: d.u16("trap instrs")?,
        },
        3 => FSide::Ite { c: d.u16("ite c")?, t: d.u16("ite t")?, e: d.u16("ite e")? },
        4 => FSide::Cas { expected: d.u16("cas expected")?, new: d.u16("cas new")? },
        _ => return Err(WireError { what: "side tag" }),
    })
}

/// Serialize a compiled flat superblock into `e`.
pub fn encode_flat(f: &FlatBlock, e: &mut Enc) {
    e.u64(f.base);
    e.u16(f.n_temps);
    e.seq(f.ops.len());
    for op in f.ops.iter() {
        enc_op(e, op);
    }
    e.seq(f.consts.len());
    for &c in f.consts.iter() {
        e.u64(c);
    }
    // Inline caches carry no persistent state: only the site count is
    // stored, and decode rebuilds fresh (cold) caches.
    e.seq(f.ics.len());
    e.seq(f.exits.len());
    for x in f.exits.iter() {
        e.u64(x.target);
        enc_jumpkind(e, x.kind);
        e.u16(x.instrs);
    }
    e.seq(f.side.len());
    for s in f.side.iter() {
        enc_side(e, s);
    }
    e.u16(f.next);
    enc_jumpkind(e, f.jumpkind);
    e.u16(f.instrs_total);
}

/// Deserialize a flat superblock encoded by [`encode_flat`], rejecting
/// any block that fails [`FlatBlock::check`].
pub fn decode_flat(d: &mut Dec) -> WireResult<FlatBlock> {
    let base = d.u64("flat base")?;
    let n_temps = d.u16("flat n_temps")?;
    let n_ops = d.seq(3, "flat ops len")?;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(dec_op(d)?);
    }
    let n_consts = d.seq(8, "flat consts len")?;
    let mut consts = Vec::with_capacity(n_consts);
    for _ in 0..n_consts {
        consts.push(d.u64("flat const")?);
    }
    // IC sites are a bare count (no payload bytes), so the generic
    // sequence guard cannot apply; every IC belongs to at most one op,
    // which bounds the count and keeps a corrupt value from allocating.
    let n_ics = d.u32("flat ics len")? as usize;
    if n_ics > n_ops {
        return Err(WireError { what: "flat ics len" });
    }
    let n_exits = d.seq(11, "flat exits len")?;
    let mut exits = Vec::with_capacity(n_exits);
    for _ in 0..n_exits {
        exits.push(FExit {
            target: d.u64("exit target")?,
            kind: dec_jumpkind(d)?,
            instrs: d.u16("exit instrs")?,
        });
    }
    let n_side = d.seq(5, "flat side len")?;
    let mut side = Vec::with_capacity(n_side);
    for _ in 0..n_side {
        side.push(dec_side(d)?);
    }
    let mut f = FlatBlock {
        base,
        ops: ops.into_boxed_slice(),
        consts: consts.into_boxed_slice(),
        ics: (0..n_ics).map(|_| PageIc::new()).collect(),
        exits: exits.into_boxed_slice(),
        side: side.into_boxed_slice(),
        next: d.u16("flat next")?,
        jumpkind: dec_jumpkind(d)?,
        instrs_total: d.u16("flat instrs_total")?,
        n_temps,
        zero_temps: false,
    };
    f.check().map_err(|what| WireError { what })?;
    f.zero_temps = f.reads_undefined_temp();
    Ok(f)
}

/// Convenience: encode a block into a fresh byte vector.
pub fn flat_to_bytes(f: &FlatBlock) -> Vec<u8> {
    let mut e = Enc::new();
    encode_flat(f, &mut e);
    e.into_inner()
}

/// Convenience: decode a block from a byte slice, requiring that every
/// byte is consumed (trailing garbage is an error).
pub fn flat_from_bytes(bytes: &[u8]) -> WireResult<FlatBlock> {
    let mut d = Dec::new(bytes);
    let f = decode_flat(&mut d)?;
    if !d.is_empty() {
        return Err(WireError { what: "trailing bytes after flat block" });
    }
    Ok(f)
}
