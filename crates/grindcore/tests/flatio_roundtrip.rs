//! Property tests for the flat-superblock wire codec
//! (`grindcore::flatio`): encode→decode is the identity on random
//! blocks exercising every `FOp` variant and every side table, and
//! decoding is total (arbitrary bytes and truncations error cleanly,
//! never panic). The persistent code cache trusts this codec to
//! reproduce a compiled block bit-for-bit; the differential suite then
//! checks the end-to-end consequence (warm runs behave like cold ones).

use grindcore::flat::{FDirty, FExit, FMemCb, FOp, FTrap, FlatBlock};
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

/// Build one `FOp` from a variant selector plus a pool of random
/// operands — a single flat constructor keeps all 28 variants covered
/// without a 28-arm `prop_oneof!`.
fn make_fop(tag: usize, x: (u32, u32, u32, u32), r: (u8, u8), bop: BinOp, uop: UnOp) -> FOp {
    let (a, b, c, d) = x;
    let (r1, r2) = r;
    match tag {
        0 => FOp::Get { dst: a, reg: r1 },
        1 => FOp::Mov { dst: a, src: b },
        2 => FOp::Ld8 { dst: a, addr: b, ic: c },
        3 => FOp::Ld1 { dst: a, addr: b, ic: c },
        4 => FOp::Bin { dst: a, op: bop, a: b, b: c },
        5 => FOp::BinTrap { dst: a, op: bop, a: b, b: c, trap: d },
        6 => FOp::Un { dst: a, op: uop, x: b },
        7 => FOp::Ite { dst: a, c: b, t: c, e: d },
        8 => FOp::Put { reg: r1, src: a },
        9 => FOp::St8 { addr: a, val: b, ic: c },
        10 => FOp::St1 { addr: a, val: b, ic: c },
        11 => FOp::Cas { dst: a, addr: b, expected: c, new: d },
        12 => FOp::Amo { dst: a, addr: b, val: c },
        13 => FOp::Dirty { idx: a },
        14 => FOp::MemCb { idx: a },
        15 => FOp::Exit { guard: a, idx: b },
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

fn fop() -> impl Strategy<Value = FOp> {
    (
        0usize..28,
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u8>(), any::<u8>()),
        binop(),
        unop(),
    )
        .prop_map(|(tag, x, r, bop, uop)| make_fop(tag, x, r, bop, uop))
}

fn fdirty() -> impl Strategy<Value = FDirty> {
    (
        dirtycall(),
        prop::collection::vec(any::<u32>(), 0..4),
        (any::<bool>(), any::<u32>()),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(call, args, (has_dst, dst), pc, instrs)| FDirty {
            call,
            args: args.into_boxed_slice(),
            dst: has_dst.then_some(dst),
            pc,
            instrs,
        })
}

fn fmemcb() -> impl Strategy<Value = FMemCb> {
    (any::<u32>(), any::<u32>(), any::<bool>(), any::<u64>(), any::<u32>())
        .prop_map(|(addr, size, write, pc, instrs)| FMemCb { addr, size, write, pc, instrs })
}

fn fexit() -> impl Strategy<Value = FExit> {
    (any::<u64>(), jumpkind(), any::<u32>(), any::<u32>())
        .prop_map(|(target, kind, ord, instrs)| FExit { target, kind, ord, instrs })
}

fn ftrap() -> impl Strategy<Value = FTrap> {
    (any::<u64>(), any::<u32>()).prop_map(|(pc, instrs)| FTrap { pc, instrs })
}

fn flat_block() -> impl Strategy<Value = FlatBlock> {
    (
        (
            any::<u64>(),
            0u32..64,
            prop::collection::vec(fop(), 0..24),
            prop::collection::vec(any::<u64>(), 0..8),
            prop::collection::vec(fdirty(), 0..4),
            prop::collection::vec(fmemcb(), 0..4),
            prop::collection::vec(fexit(), 0..4),
            prop::collection::vec(ftrap(), 0..4),
        ),
        (any::<u32>(), jumpkind(), any::<u32>(), any::<u32>(), any::<bool>(), 0usize..101),
    )
        .prop_map(
            |(
                (base, n_temps, ops, consts, dirties, memcbs, exits, traps),
                (next, jumpkind, instrs_total, fall_ord, zero_temps, ic_pct),
            )| {
                // the codec requires n_ics <= n_ops (each load/store op
                // owns at most one inline cache)
                let n_ics = ops.len() * ic_pct / 100;
                FlatBlock {
                    base,
                    n_temps,
                    ops: ops.into_boxed_slice(),
                    consts: consts.into_boxed_slice(),
                    dirties: dirties.into_boxed_slice(),
                    memcbs: memcbs.into_boxed_slice(),
                    exits: exits.into_boxed_slice(),
                    traps: traps.into_boxed_slice(),
                    ics: (0..n_ics).map(|_| PageIc::new()).collect(),
                    next,
                    jumpkind,
                    instrs_total,
                    fall_ord,
                    zero_temps,
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
        let bytes = flat_to_bytes(&block);
        let back = flat_from_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(format!("{:?}", back), format!("{:?}", block));
        // canonical: re-encoding the decoded block reproduces the bytes
        prop_assert_eq!(flat_to_bytes(&back), bytes);
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
    /// the mutation or yields a block that still re-encodes. (Integrity
    /// is the disk layer's per-record checksum's job — this pins the
    /// codec itself to stay total.)
    #[test]
    fn bit_flips_never_panic(block in flat_block(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = flat_to_bytes(&block);
        if !bytes.is_empty() {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            if let Ok(b) = flat_from_bytes(&bytes) {
                let _ = flat_to_bytes(&b);
            }
        }
    }
}
