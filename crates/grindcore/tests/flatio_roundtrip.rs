//! Property tests for the flat-superblock wire codec
//! (`grindcore::flatio`): encode→decode is the identity on random valid
//! blocks exercising every `FOp` variant and every side table, decoding
//! is total (arbitrary bytes and truncations error cleanly, never
//! panic), and the decoder accepts exactly the blocks that pass
//! `FlatBlock::check`, so no decoded block can index out of range. The
//! persistent code cache trusts this codec to reproduce a compiled block
//! bit-for-bit; the differential suite then checks the end-to-end
//! consequence (warm runs behave like cold ones).

use grindcore::flat::{FDirty, FExit, FOp, FSide, FlatBlock, TMP_BIT};
use grindcore::flatio::{flat_from_bytes, flat_to_bytes};
use grindcore::mem::PageIc;
use proptest::prelude::*;
use vex_ir::{BinOp, DirtyCall, JumpKind, UnOp};

fn binop() -> impl Strategy<Value = BinOp> {
    (0u8..23).prop_map(|t| BinOp::from_wire_tag(t).expect("dense BinOp tags"))
}

fn unop() -> impl Strategy<Value = UnOp> {
    (0u8..7).prop_map(|t| UnOp::from_wire_tag(t).expect("dense UnOp tags"))
}

fn jumpkind() -> impl Strategy<Value = JumpKind> {
    prop_oneof![
        Just(JumpKind::Boring),
        any::<u64>().prop_map(|return_addr| JumpKind::Call { return_addr }),
        Just(JumpKind::Ret),
        Just(JumpKind::Halt),
    ]
}

fn dirtycall() -> impl Strategy<Value = DirtyCall> {
    prop_oneof![
        Just(DirtyCall::Syscall),
        Just(DirtyCall::ClientRequest),
        any::<bool>().prop_map(|write| DirtyCall::ToolMem { write }),
        any::<u32>().prop_map(|id| DirtyCall::ToolHelper { id }),
    ]
}

/// Raw material for one op: a variant selector, a pool of 16-bit
/// fields, two register fields and the operators.
type RawOp = (usize, (u16, u16, u16, u16), (u8, u8), BinOp, UnOp);

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        0usize..28,
        (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()),
        (any::<u8>(), any::<u8>()),
        binop(),
        unop(),
    )
}

/// Build one `FOp` from a variant selector plus a pool of operands — a
/// single flat constructor keeps all 28 variants covered without a
/// 28-arm `prop_oneof!`. `side` fields take `s`.
fn make_fop(raw: RawOp, s: u16) -> FOp {
    let (tag, (a, b, c, d), (r1, r2), bop, uop) = raw;
    match tag {
        0 => FOp::Get { dst: a, reg: r1 },
        1 => FOp::Mov { dst: a, src: b },
        2 => FOp::Ld8 { dst: a, addr: b, ic: c },
        3 => FOp::Ld1 { dst: a, addr: b, ic: c },
        4 => FOp::Bin { dst: a, op: bop, a: b, b: c },
        5 => FOp::BinTrap { dst: a, op: bop, side: s },
        6 => FOp::Un { dst: a, op: uop, x: b },
        7 => FOp::Ite { dst: a, side: s },
        8 => FOp::Put { reg: r1, src: a },
        9 => FOp::St8 { addr: a, val: b, ic: c },
        10 => FOp::St1 { addr: a, val: b, ic: c },
        11 => FOp::Cas { dst: a, addr: b, side: s },
        12 => FOp::Amo { dst: a, addr: b, val: c },
        13 => FOp::Dirty { side: s },
        14 => FOp::MemCb { side: s },
        15 => FOp::Exit { guard: a, idx: d },
        16 => FOp::MovRR { rd: r1, rs: r2 },
        17 => FOp::BinRI { dst: a, op: bop, rs: r1, c: b },
        18 => FOp::BinRIP { rd: r1, op: bop, rs: r2, c: a },
        19 => FOp::BinTR { dst: a, op: bop, a: b, rb: r1 },
        20 => FOp::BinRR { dst: a, op: bop, ra: r1, rb: r2 },
        21 => FOp::BinRRP { rd: r1, op: bop, ra: r2, rb: r1 },
        22 => FOp::LdRO { dst: a, rs: r1, c: b, ic: c },
        23 => FOp::LdRP { rd: r1, rs: r2, c: a, ic: b },
        24 => FOp::StV { addr: a, vr: r1, ic: b },
        25 => FOp::StRV { rs: r1, c: a, val: b, ic: c },
        26 => FOp::StRR { rs: r1, c: a, vr: r2, ic: b },
        _ => FOp::LdP { rd: r1, addr: a, ic: b },
    }
}

/// Arguments each dirty call reads.
fn min_args(call: DirtyCall) -> usize {
    match call {
        DirtyCall::Syscall => 7,
        DirtyCall::ClientRequest => 6,
        DirtyCall::ToolMem { .. } => 2,
        DirtyCall::ToolHelper { .. } => 0,
    }
}

/// A block that passes `FlatBlock::check`: every raw field is mapped
/// into range, each side-table op gets its own side entry, instruction
/// counts rise along the ops and trapping operators stay in `BinTrap`.
#[allow(clippy::too_many_arguments)]
fn valid_block(
    base: u64,
    n_temps: u16,
    raw: Vec<RawOp>,
    consts: Vec<u64>,
    exits: Vec<(u64, JumpKind)>,
    call: DirtyCall,
    n_ics: usize,
    (next, jumpkind): (u16, JumpKind),
) -> FlatBlock {
    let n_consts = consts.len() as u16;
    let n_ics = (n_ics + 1).min(raw.len()) as u16;
    let n_exits = exits.len() as u16;
    let opnd =
        |x: u16| if x & 1 == 1 { TMP_BIT | ((x >> 1) % n_temps) } else { (x >> 1) % n_consts };
    let t = |x: u16| x % n_temps;
    let k = |x: u16| x % n_consts;
    let r = |x: u8| x % 32;
    let ic = |x: u16| x % n_ics.max(1);
    let pure = |op: BinOp| if matches!(op, BinOp::DivS | BinOp::RemS) { BinOp::Add } else { op };
    let last = raw.len() as u16 + 1;
    let mut side = Vec::new();
    let mut ops = Vec::new();
    for (i, raw) in raw.into_iter().enumerate() {
        let (_, (a, b, c, d), _, _, _) = raw;
        let (pc, instrs) = (base.wrapping_add(16 * i as u64), i as u16);
        let entry = match raw.0 {
            5 => Some(FSide::Trap { a: opnd(a), b: opnd(b), pc, instrs }),
            7 => Some(FSide::Ite { c: opnd(a), t: opnd(b), e: opnd(c) }),
            11 => Some(FSide::Cas { expected: opnd(c), new: opnd(d) }),
            13 => Some(FSide::Dirty(Box::new(FDirty {
                call,
                args: (0..min_args(call) + (d % 3) as usize).map(|j| opnd(a ^ j as u16)).collect(),
                dst: (b & 1 == 1).then_some(t(c)),
                pc,
                instrs,
            }))),
            14 => {
                Some(FSide::MemCb { addr: opnd(a), size: opnd(b), write: c & 1 == 1, pc, instrs })
            }
            _ => None,
        };
        if let Some(e) = entry {
            side.push(e);
        }
        let s = side.len().saturating_sub(1) as u16;
        ops.push(match make_fop(raw, s) {
            FOp::Get { dst, reg } => FOp::Get { dst: t(dst), reg: r(reg) },
            FOp::Mov { dst, src } => FOp::Mov { dst: t(dst), src: opnd(src) },
            FOp::Ld8 { dst, addr, ic: i } => FOp::Ld8 { dst: t(dst), addr: opnd(addr), ic: ic(i) },
            FOp::Ld1 { dst, addr, ic: i } => FOp::Ld1 { dst: t(dst), addr: opnd(addr), ic: ic(i) },
            FOp::Bin { dst, op, a, b } => {
                FOp::Bin { dst: t(dst), op: pure(op), a: opnd(a), b: opnd(b) }
            }
            FOp::BinTrap { dst, op, side } => FOp::BinTrap { dst: t(dst), op, side },
            FOp::Un { dst, op, x } => FOp::Un { dst: t(dst), op, x: opnd(x) },
            FOp::Ite { dst, side } => FOp::Ite { dst: t(dst), side },
            FOp::Put { reg, src } => FOp::Put { reg: r(reg), src: opnd(src) },
            FOp::St8 { addr, val, ic: i } => {
                FOp::St8 { addr: opnd(addr), val: opnd(val), ic: ic(i) }
            }
            FOp::St1 { addr, val, ic: i } => {
                FOp::St1 { addr: opnd(addr), val: opnd(val), ic: ic(i) }
            }
            FOp::Cas { dst, addr, side } => FOp::Cas { dst: t(dst), addr: opnd(addr), side },
            FOp::Amo { dst, addr, val } => {
                FOp::Amo { dst: t(dst), addr: opnd(addr), val: opnd(val) }
            }
            FOp::Exit { guard, idx } if n_exits > 0 => {
                FOp::Exit { guard: opnd(guard), idx: idx % n_exits }
            }
            FOp::Exit { guard, .. } => FOp::Mov { dst: t(guard), src: opnd(guard) },
            FOp::MovRR { rd, rs } => FOp::MovRR { rd: r(rd), rs: r(rs) },
            FOp::BinRI { dst, op, rs, c } => {
                FOp::BinRI { dst: t(dst), op: pure(op), rs: r(rs), c: k(c) }
            }
            FOp::BinRIP { rd, op, rs, c } => {
                FOp::BinRIP { rd: r(rd), op: pure(op), rs: r(rs), c: k(c) }
            }
            FOp::BinTR { dst, op, a, rb } => {
                FOp::BinTR { dst: t(dst), op: pure(op), a: opnd(a), rb: r(rb) }
            }
            FOp::BinRR { dst, op, ra, rb } => {
                FOp::BinRR { dst: t(dst), op: pure(op), ra: r(ra), rb: r(rb) }
            }
            FOp::BinRRP { rd, op, ra, rb } => {
                FOp::BinRRP { rd: r(rd), op: pure(op), ra: r(ra), rb: r(rb) }
            }
            FOp::LdRO { dst, rs, c, ic: i } => {
                FOp::LdRO { dst: t(dst), rs: r(rs), c: k(c), ic: ic(i) }
            }
            FOp::LdRP { rd, rs, c, ic: i } => {
                FOp::LdRP { rd: r(rd), rs: r(rs), c: k(c), ic: ic(i) }
            }
            FOp::StV { addr, vr, ic: i } => FOp::StV { addr: opnd(addr), vr: r(vr), ic: ic(i) },
            FOp::StRV { rs, c, val, ic: i } => {
                FOp::StRV { rs: r(rs), c: k(c), val: opnd(val), ic: ic(i) }
            }
            FOp::StRR { rs, c, vr, ic: i } => {
                FOp::StRR { rs: r(rs), c: k(c), vr: r(vr), ic: ic(i) }
            }
            FOp::LdP { rd, addr, ic: i } => FOp::LdP { rd: r(rd), addr: opnd(addr), ic: ic(i) },
            op @ (FOp::Dirty { .. } | FOp::MemCb { .. }) => op,
        });
    }
    let mut f = FlatBlock {
        base,
        ops: ops.into_boxed_slice(),
        consts: consts.into_boxed_slice(),
        ics: (0..n_ics).map(|_| PageIc::new()).collect(),
        exits: exits
            .into_iter()
            .map(|(target, kind)| FExit { target, kind, instrs: last })
            .collect(),
        side: side.into_boxed_slice(),
        jumpkind,
        n_temps,
        next: opnd(next),
        instrs_total: last,
        zero_temps: false,
    };
    f.zero_temps = f.reads_undefined_temp();
    f
}

fn flat_block() -> impl Strategy<Value = FlatBlock> {
    (
        (
            any::<u64>(),
            1u16..64,
            prop::collection::vec(raw_op(), 0..24),
            prop::collection::vec(any::<u64>(), 1..8),
            prop::collection::vec((any::<u64>(), jumpkind()), 0..4),
        ),
        (dirtycall(), 0usize..8, any::<u16>(), jumpkind()),
    )
        .prop_map(|((base, n_temps, raw, consts, exits), (call, n_ics, next, jumpkind))| {
            valid_block(base, n_temps, raw, consts, exits, call, n_ics, (next, jumpkind))
        })
}

fn fside() -> impl Strategy<Value = FSide> {
    (0usize..5, (any::<u16>(), any::<u16>(), any::<u16>()), any::<u64>(), dirtycall()).prop_map(
        |(tag, (a, b, c), pc, call)| match tag {
            0 => FSide::MemCb { addr: a, size: b, write: c & 1 == 1, pc, instrs: c },
            1 => FSide::Dirty(Box::new(FDirty {
                call,
                args: vec![a; (b % 9) as usize].into_boxed_slice(),
                dst: (c & 1 == 1).then_some(c >> 1),
                pc,
                instrs: c,
            })),
            2 => FSide::Trap { a, b, pc, instrs: c },
            3 => FSide::Ite { c: a, t: b, e: c },
            _ => FSide::Cas { expected: a, new: b },
        },
    )
}

/// A block with every field drawn at random: almost never valid.
fn raw_block() -> impl Strategy<Value = FlatBlock> {
    (
        (
            any::<u64>(),
            0u16..64,
            prop::collection::vec((raw_op(), any::<u16>()), 0..24),
            prop::collection::vec(any::<u64>(), 0..8),
            prop::collection::vec((any::<u64>(), jumpkind(), any::<u16>()), 0..4),
            prop::collection::vec(fside(), 0..4),
        ),
        (any::<u16>(), jumpkind(), any::<u16>(), 0usize..101),
    )
        .prop_map(
            |(
                (base, n_temps, ops, consts, exits, side),
                (next, jumpkind, instrs_total, ic_pct),
            )| {
                // the codec requires n_ics <= n_ops (each load/store op
                // owns at most one inline cache)
                let n_ics = ops.len() * ic_pct / 100;
                FlatBlock {
                    base,
                    ops: ops.into_iter().map(|(raw, s)| make_fop(raw, s)).collect(),
                    consts: consts.into_boxed_slice(),
                    ics: (0..n_ics).map(|_| PageIc::new()).collect(),
                    exits: exits
                        .into_iter()
                        .map(|(target, kind, instrs)| FExit { target, kind, instrs })
                        .collect(),
                    side: side.into_boxed_slice(),
                    jumpkind,
                    n_temps,
                    next,
                    instrs_total,
                    zero_temps: false,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode→decode is the identity (inline caches come back fresh,
    /// which is what `PageIc::new()` produces — purely dynamic state).
    #[test]
    fn encode_decode_is_identity(block in flat_block()) {
        prop_assert_eq!(block.check(), Ok(()));
        let bytes = flat_to_bytes(&block);
        let back = flat_from_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(format!("{:?}", back), format!("{:?}", block));
        // canonical: re-encoding the decoded block reproduces the bytes
        prop_assert_eq!(flat_to_bytes(&back), bytes);
    }

    /// The decoder accepts a block exactly when `FlatBlock::check` does:
    /// random indices, counts and operators never get past it.
    #[test]
    fn decoder_accepts_exactly_the_checked_blocks(block in raw_block()) {
        let decoded = flat_from_bytes(&flat_to_bytes(&block));
        prop_assert_eq!(decoded.is_ok(), block.check().is_ok());
    }

    /// Every strict prefix of a valid encoding is rejected cleanly.
    #[test]
    fn truncation_errors_cleanly(block in flat_block(), pct in 0usize..100) {
        let bytes = flat_to_bytes(&block);
        let cut = bytes.len() * pct / 100;
        prop_assert!(cut == bytes.len() || flat_from_bytes(&bytes[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = flat_from_bytes(&bytes);
    }

    /// Flipping any single byte never panics: the decoder either rejects
    /// the mutation or yields a block that passes the index check and
    /// still re-encodes. (Integrity is the disk layer's per-record
    /// checksum's job — this pins the codec itself to stay total.)
    #[test]
    fn bit_flips_never_panic(block in flat_block(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = flat_to_bytes(&block);
        if !bytes.is_empty() {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            if let Ok(b) = flat_from_bytes(&bytes) {
                prop_assert_eq!(b.check(), Ok(()));
                let _ = flat_to_bytes(&b);
            }
        }
    }
}
