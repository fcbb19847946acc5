//! Hand-rolled binary (de)serialization for compiled flat superblocks.
//!
//! The encoding is positional little-endian over [`crate::wire`]: every
//! [`FOp`] is a one-byte tag (numbered in declaration order; renumbering
//! bumps the disk cache's format version) followed by its fields, the
//! side tables are length-prefixed, and the per-site inline caches are
//! stored as a bare count — [`PageIc`] state is purely dynamic, so
//! decoding recreates fresh (empty) caches.
//!
//! Decoding is total: any byte sequence either yields a structurally
//! valid [`FlatBlock`] or a [`WireError`]. Callers (the disk cache)
//! additionally checksum each record, so a decoded block is only ever
//! executed when the payload round-tripped bit-exactly.

use crate::flat::{FDirty, FExit, FMemCb, FOp, FTrap, FlatBlock};
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
            e.u32(dst);
            e.u8(reg);
        }
        FOp::Mov { dst, src } => {
            e.u8(1);
            e.u32(dst);
            e.u32(src);
        }
        FOp::Ld8 { dst, addr, ic } => {
            e.u8(2);
            e.u32(dst);
            e.u32(addr);
            e.u32(ic);
        }
        FOp::Ld1 { dst, addr, ic } => {
            e.u8(3);
            e.u32(dst);
            e.u32(addr);
            e.u32(ic);
        }
        FOp::Bin { dst, op, a, b } => {
            e.u8(4);
            e.u32(dst);
            e.u8(op.wire_tag());
            e.u32(a);
            e.u32(b);
        }
        FOp::BinTrap { dst, op, a, b, trap } => {
            e.u8(5);
            e.u32(dst);
            e.u8(op.wire_tag());
            e.u32(a);
            e.u32(b);
            e.u32(trap);
        }
        FOp::Un { dst, op, x } => {
            e.u8(6);
            e.u32(dst);
            e.u8(op.wire_tag());
            e.u32(x);
        }
        FOp::Ite { dst, c, t, e: els } => {
            e.u8(7);
            e.u32(dst);
            e.u32(c);
            e.u32(t);
            e.u32(els);
        }
        FOp::Put { reg, src } => {
            e.u8(8);
            e.u8(reg);
            e.u32(src);
        }
        FOp::St8 { addr, val, ic } => {
            e.u8(9);
            e.u32(addr);
            e.u32(val);
            e.u32(ic);
        }
        FOp::St1 { addr, val, ic } => {
            e.u8(10);
            e.u32(addr);
            e.u32(val);
            e.u32(ic);
        }
        FOp::Cas { dst, addr, expected, new } => {
            e.u8(11);
            e.u32(dst);
            e.u32(addr);
            e.u32(expected);
            e.u32(new);
        }
        FOp::Amo { dst, addr, val } => {
            e.u8(12);
            e.u32(dst);
            e.u32(addr);
            e.u32(val);
        }
        FOp::Dirty { idx } => {
            e.u8(13);
            e.u32(idx);
        }
        FOp::MemCb { idx } => {
            e.u8(14);
            e.u32(idx);
        }
        FOp::Exit { guard, idx } => {
            e.u8(15);
            e.u32(guard);
            e.u32(idx);
        }
        FOp::MovRR { rd, rs } => {
            e.u8(16);
            e.u8(rd);
            e.u8(rs);
        }
        FOp::BinRI { dst, op, rs, c } => {
            e.u8(17);
            e.u32(dst);
            e.u8(op.wire_tag());
            e.u8(rs);
            e.u32(c);
        }
        FOp::BinRIP { rd, op, rs, c } => {
            e.u8(18);
            e.u8(rd);
            e.u8(op.wire_tag());
            e.u8(rs);
            e.u32(c);
        }
        FOp::BinTR { dst, op, a, rb } => {
            e.u8(19);
            e.u32(dst);
            e.u8(op.wire_tag());
            e.u32(a);
            e.u8(rb);
        }
        FOp::BinRR { dst, op, ra, rb } => {
            e.u8(20);
            e.u32(dst);
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
            e.u32(dst);
            e.u8(rs);
            e.u32(c);
            e.u32(ic);
        }
        FOp::LdRP { rd, rs, c, ic } => {
            e.u8(23);
            e.u8(rd);
            e.u8(rs);
            e.u32(c);
            e.u32(ic);
        }
        FOp::StV { addr, vr, ic } => {
            e.u8(24);
            e.u32(addr);
            e.u8(vr);
            e.u32(ic);
        }
        FOp::StRV { rs, c, val, ic } => {
            e.u8(25);
            e.u8(rs);
            e.u32(c);
            e.u32(val);
            e.u32(ic);
        }
        FOp::StRR { rs, c, vr, ic } => {
            e.u8(26);
            e.u8(rs);
            e.u32(c);
            e.u8(vr);
            e.u32(ic);
        }
        FOp::LdP { rd, addr, ic } => {
            e.u8(27);
            e.u8(rd);
            e.u32(addr);
            e.u32(ic);
        }
    }
}

fn dec_op(d: &mut Dec) -> WireResult<FOp> {
    Ok(match d.u8("fop tag")? {
        0 => FOp::Get { dst: d.u32("get dst")?, reg: d.u8("get reg")? },
        1 => FOp::Mov { dst: d.u32("mov dst")?, src: d.u32("mov src")? },
        2 => FOp::Ld8 { dst: d.u32("ld8 dst")?, addr: d.u32("ld8 addr")?, ic: d.u32("ld8 ic")? },
        3 => FOp::Ld1 { dst: d.u32("ld1 dst")?, addr: d.u32("ld1 addr")?, ic: d.u32("ld1 ic")? },
        4 => FOp::Bin {
            dst: d.u32("bin dst")?,
            op: dec_binop(d)?,
            a: d.u32("bin a")?,
            b: d.u32("bin b")?,
        },
        5 => FOp::BinTrap {
            dst: d.u32("bintrap dst")?,
            op: dec_binop(d)?,
            a: d.u32("bintrap a")?,
            b: d.u32("bintrap b")?,
            trap: d.u32("bintrap trap")?,
        },
        6 => FOp::Un { dst: d.u32("un dst")?, op: dec_unop(d)?, x: d.u32("un x")? },
        7 => FOp::Ite {
            dst: d.u32("ite dst")?,
            c: d.u32("ite c")?,
            t: d.u32("ite t")?,
            e: d.u32("ite e")?,
        },
        8 => FOp::Put { reg: d.u8("put reg")?, src: d.u32("put src")? },
        9 => FOp::St8 { addr: d.u32("st8 addr")?, val: d.u32("st8 val")?, ic: d.u32("st8 ic")? },
        10 => FOp::St1 { addr: d.u32("st1 addr")?, val: d.u32("st1 val")?, ic: d.u32("st1 ic")? },
        11 => FOp::Cas {
            dst: d.u32("cas dst")?,
            addr: d.u32("cas addr")?,
            expected: d.u32("cas expected")?,
            new: d.u32("cas new")?,
        },
        12 => FOp::Amo { dst: d.u32("amo dst")?, addr: d.u32("amo addr")?, val: d.u32("amo val")? },
        13 => FOp::Dirty { idx: d.u32("dirty idx")? },
        14 => FOp::MemCb { idx: d.u32("memcb idx")? },
        15 => FOp::Exit { guard: d.u32("exit guard")?, idx: d.u32("exit idx")? },
        16 => FOp::MovRR { rd: d.u8("movrr rd")?, rs: d.u8("movrr rs")? },
        17 => FOp::BinRI {
            dst: d.u32("binri dst")?,
            op: dec_binop(d)?,
            rs: d.u8("binri rs")?,
            c: d.u32("binri c")?,
        },
        18 => FOp::BinRIP {
            rd: d.u8("binrip rd")?,
            op: dec_binop(d)?,
            rs: d.u8("binrip rs")?,
            c: d.u32("binrip c")?,
        },
        19 => FOp::BinTR {
            dst: d.u32("bintr dst")?,
            op: dec_binop(d)?,
            a: d.u32("bintr a")?,
            rb: d.u8("bintr rb")?,
        },
        20 => FOp::BinRR {
            dst: d.u32("binrr dst")?,
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
            dst: d.u32("ldro dst")?,
            rs: d.u8("ldro rs")?,
            c: d.u32("ldro c")?,
            ic: d.u32("ldro ic")?,
        },
        23 => FOp::LdRP {
            rd: d.u8("ldrp rd")?,
            rs: d.u8("ldrp rs")?,
            c: d.u32("ldrp c")?,
            ic: d.u32("ldrp ic")?,
        },
        24 => FOp::StV { addr: d.u32("stv addr")?, vr: d.u8("stv vr")?, ic: d.u32("stv ic")? },
        25 => FOp::StRV {
            rs: d.u8("strv rs")?,
            c: d.u32("strv c")?,
            val: d.u32("strv val")?,
            ic: d.u32("strv ic")?,
        },
        26 => FOp::StRR {
            rs: d.u8("strr rs")?,
            c: d.u32("strr c")?,
            vr: d.u8("strr vr")?,
            ic: d.u32("strr ic")?,
        },
        27 => FOp::LdP { rd: d.u8("ldp rd")?, addr: d.u32("ldp addr")?, ic: d.u32("ldp ic")? },
        _ => return Err(WireError { what: "fop tag" }),
    })
}

/// Serialize a compiled flat superblock into `e`.
pub fn encode_flat(f: &FlatBlock, e: &mut Enc) {
    e.u64(f.base);
    e.u32(f.n_temps);
    e.seq(f.ops.len());
    for op in f.ops.iter() {
        enc_op(e, op);
    }
    e.seq(f.consts.len());
    for &c in f.consts.iter() {
        e.u64(c);
    }
    e.seq(f.dirties.len());
    for dcall in f.dirties.iter() {
        enc_dirtycall(e, dcall.call);
        e.seq(dcall.args.len());
        for &a in dcall.args.iter() {
            e.u32(a);
        }
        match dcall.dst {
            Some(dst) => {
                e.bool(true);
                e.u32(dst);
            }
            None => e.bool(false),
        }
        e.u64(dcall.pc);
        e.u32(dcall.instrs);
    }
    e.seq(f.memcbs.len());
    for m in f.memcbs.iter() {
        e.u32(m.addr);
        e.u32(m.size);
        e.bool(m.write);
        e.u64(m.pc);
        e.u32(m.instrs);
    }
    e.seq(f.exits.len());
    for x in f.exits.iter() {
        e.u64(x.target);
        enc_jumpkind(e, x.kind);
        e.u32(x.ord);
        e.u32(x.instrs);
    }
    e.seq(f.traps.len());
    for t in f.traps.iter() {
        e.u64(t.pc);
        e.u32(t.instrs);
    }
    // Inline caches carry no persistent state: only the site count is
    // stored, and decode rebuilds fresh (cold) caches.
    e.seq(f.ics.len());
    e.u32(f.next);
    enc_jumpkind(e, f.jumpkind);
    e.u32(f.instrs_total);
    e.u32(f.fall_ord);
    e.bool(f.zero_temps);
}

/// Deserialize a flat superblock encoded by [`encode_flat`].
pub fn decode_flat(d: &mut Dec) -> WireResult<FlatBlock> {
    let base = d.u64("flat base")?;
    let n_temps = d.u32("flat n_temps")?;
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
    let n_dirties = d.seq(18, "flat dirties len")?;
    let mut dirties = Vec::with_capacity(n_dirties);
    for _ in 0..n_dirties {
        let call = dec_dirtycall(d)?;
        let n_args = d.seq(4, "dirty args len")?;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            args.push(d.u32("dirty arg")?);
        }
        let dst = if d.bool("dirty dst flag")? { Some(d.u32("dirty dst")?) } else { None };
        dirties.push(FDirty {
            call,
            args: args.into_boxed_slice(),
            dst,
            pc: d.u64("dirty pc")?,
            instrs: d.u32("dirty instrs")?,
        });
    }
    let n_memcbs = d.seq(21, "flat memcbs len")?;
    let mut memcbs = Vec::with_capacity(n_memcbs);
    for _ in 0..n_memcbs {
        memcbs.push(FMemCb {
            addr: d.u32("memcb addr")?,
            size: d.u32("memcb size")?,
            write: d.bool("memcb write")?,
            pc: d.u64("memcb pc")?,
            instrs: d.u32("memcb instrs")?,
        });
    }
    let n_exits = d.seq(17, "flat exits len")?;
    let mut exits = Vec::with_capacity(n_exits);
    for _ in 0..n_exits {
        exits.push(FExit {
            target: d.u64("exit target")?,
            kind: dec_jumpkind(d)?,
            ord: d.u32("exit ord")?,
            instrs: d.u32("exit instrs")?,
        });
    }
    let n_traps = d.seq(12, "flat traps len")?;
    let mut traps = Vec::with_capacity(n_traps);
    for _ in 0..n_traps {
        traps.push(FTrap { pc: d.u64("trap pc")?, instrs: d.u32("trap instrs")? });
    }
    // IC sites are a bare count (no payload bytes), so the generic
    // sequence guard cannot apply; every IC belongs to at most one op,
    // which bounds the count and keeps a corrupt value from allocating.
    let n_ics = d.u32("flat ics len")? as usize;
    if n_ics > n_ops {
        return Err(WireError { what: "flat ics len" });
    }
    let ics: Vec<PageIc> = (0..n_ics).map(|_| PageIc::new()).collect();
    Ok(FlatBlock {
        base,
        n_temps,
        ops: ops.into_boxed_slice(),
        consts: consts.into_boxed_slice(),
        dirties: dirties.into_boxed_slice(),
        memcbs: memcbs.into_boxed_slice(),
        exits: exits.into_boxed_slice(),
        traps: traps.into_boxed_slice(),
        ics: ics.into_boxed_slice(),
        next: d.u32("flat next")?,
        jumpkind: dec_jumpkind(d)?,
        instrs_total: d.u32("flat instrs_total")?,
        fall_ord: d.u32("flat fall_ord")?,
        zero_temps: d.bool("flat zero_temps")?,
    })
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
