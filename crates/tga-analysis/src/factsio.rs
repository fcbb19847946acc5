//! Hand-rolled binary (de)serialization for [`StaticFacts`].
//!
//! Static analysis is deterministic per (module, [`crate::AnalyzeOpts`])
//! pair, so the persistent code cache stores the analysis result next to
//! the compiled blocks and warm runs skip the whole interprocedural
//! pass. The encoding rides the same `grindcore::wire` primitives as
//! the flat-block codec: positional little-endian fields, one-byte
//! append-only tags for [`FindingKind`], length-prefixed sequences with
//! allocation guards. Decoding is total — corrupt input yields a
//! [`WireError`], never a panic — and the disk layer checksums each
//! record, so decoded facts are only used when they round-tripped
//! bit-exactly.

use std::collections::BTreeSet;

use grindcore::wire::{Dec, Enc, WireError, WireResult};

use crate::cfg::CfgStats;
use crate::dataflow::RoRange;
use crate::{FactsScope, Finding, FindingKind, StaticFacts};

fn enc_kind(e: &mut Enc, k: &FindingKind) {
    match k {
        FindingKind::UnreachableFunction { name } => {
            e.u8(0);
            e.str(name);
        }
        FindingKind::EscapingStackSlot { func, offset } => {
            e.u8(1);
            e.str(func);
            e.u64(*offset as u64);
        }
        FindingKind::FrameNotAnalyzable { func } => {
            e.u8(2);
            e.str(func);
        }
        FindingKind::SpMismatchOnReturn { func } => {
            e.u8(3);
            e.str(func);
        }
        FindingKind::WriteToReadOnly { target } => {
            e.u8(4);
            e.u64(*target);
        }
        FindingKind::LockOrderCycle { locks } => {
            e.u8(5);
            e.seq(locks.len());
            for l in locks {
                e.str(l);
            }
        }
        FindingKind::DoubleLock { lock } => {
            e.u8(6);
            e.str(lock);
        }
        FindingKind::LockLeak { func, lock } => {
            e.u8(7);
            e.str(func);
            e.str(lock);
        }
    }
}

fn dec_kind(d: &mut Dec) -> WireResult<FindingKind> {
    Ok(match d.u8("finding tag")? {
        0 => FindingKind::UnreachableFunction { name: d.str("unreachable name")? },
        1 => FindingKind::EscapingStackSlot {
            func: d.str("escaping func")?,
            offset: d.u64("escaping offset")? as i64,
        },
        2 => FindingKind::FrameNotAnalyzable { func: d.str("frame func")? },
        3 => FindingKind::SpMismatchOnReturn { func: d.str("spmismatch func")? },
        4 => FindingKind::WriteToReadOnly { target: d.u64("writero target")? },
        5 => {
            let n = d.seq(4, "cycle locks len")?;
            let mut locks = Vec::with_capacity(n);
            for _ in 0..n {
                locks.push(d.str("cycle lock")?);
            }
            FindingKind::LockOrderCycle { locks }
        }
        6 => FindingKind::DoubleLock { lock: d.str("double lock")? },
        7 => FindingKind::LockLeak { func: d.str("leak func")?, lock: d.str("leak lock")? },
        _ => return Err(WireError { what: "finding tag" }),
    })
}

fn enc_ranges(e: &mut Enc, ranges: &[RoRange]) {
    e.seq(ranges.len());
    for r in ranges {
        e.str(&r.name);
        e.u64(r.lo);
        e.u64(r.hi);
    }
}

fn dec_ranges(d: &mut Dec, what: &'static str) -> WireResult<Vec<RoRange>> {
    let n = d.seq(20, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(RoRange { name: d.str(what)?, lo: d.u64(what)?, hi: d.u64(what)? });
    }
    Ok(out)
}

/// Serialize `facts` into a fresh byte vector.
pub fn facts_to_bytes(facts: &StaticFacts) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(facts.stats.functions as u64);
    e.u64(facts.stats.blocks as u64);
    e.u64(facts.stats.edges as u64);
    e.u64(facts.stats.call_edges as u64);
    e.u64(facts.stats.indirect_exits as u64);
    e.u64(facts.stats.unreachable_functions as u64);
    e.seq(facts.safe_pcs.len());
    for &pc in &facts.safe_pcs {
        e.u64(pc);
    }
    enc_ranges(&mut e, &facts.ro);
    enc_ranges(&mut e, &facts.init_only);
    e.seq(facts.findings.len());
    for f in &facts.findings {
        enc_kind(&mut e, &f.kind);
        e.u64(f.addr);
        match &f.loc {
            Some(loc) => {
                e.bool(true);
                e.str(loc);
            }
            None => e.bool(false),
        }
    }
    e.u64(facts.access_pcs as u64);
    e.seq(facts.guarded.len());
    for &(pc, mask) in &facts.guarded {
        e.u64(pc);
        e.u64(mask);
    }
    e.seq(facts.lock_universe.len());
    for &l in &facts.lock_universe {
        e.u64(l);
    }
    e.u8(match facts.scope {
        FactsScope::Module => 0,
        FactsScope::Run => 1,
    });
    e.into_inner()
}

/// Deserialize facts encoded by [`facts_to_bytes`], requiring every
/// byte to be consumed.
pub fn facts_from_bytes(bytes: &[u8]) -> WireResult<StaticFacts> {
    let mut d = Dec::new(bytes);
    let stats = CfgStats {
        functions: d.u64("stats functions")? as usize,
        blocks: d.u64("stats blocks")? as usize,
        edges: d.u64("stats edges")? as usize,
        call_edges: d.u64("stats call_edges")? as usize,
        indirect_exits: d.u64("stats indirect_exits")? as usize,
        unreachable_functions: d.u64("stats unreachable")? as usize,
    };
    let n_safe = d.seq(8, "safe_pcs len")?;
    let mut safe_pcs = BTreeSet::new();
    for _ in 0..n_safe {
        safe_pcs.insert(d.u64("safe pc")?);
    }
    let ro = dec_ranges(&mut d, "ro range")?;
    let init_only = dec_ranges(&mut d, "init_only range")?;
    let n_findings = d.seq(10, "findings len")?;
    let mut findings = Vec::with_capacity(n_findings);
    for _ in 0..n_findings {
        let kind = dec_kind(&mut d)?;
        let addr = d.u64("finding addr")?;
        let loc = if d.bool("finding loc flag")? { Some(d.str("finding loc")?) } else { None };
        findings.push(Finding { kind, addr, loc });
    }
    let access_pcs = d.u64("access_pcs")? as usize;
    let n_guarded = d.seq(16, "guarded len")?;
    let mut guarded = Vec::with_capacity(n_guarded);
    for _ in 0..n_guarded {
        guarded.push((d.u64("guarded pc")?, d.u64("guarded mask")?));
    }
    let n_locks = d.seq(8, "lock_universe len")?;
    let mut lock_universe = Vec::with_capacity(n_locks);
    for _ in 0..n_locks {
        lock_universe.push(d.u64("lock id")?);
    }
    let scope = match d.u8("facts scope")? {
        0 => FactsScope::Module,
        1 => FactsScope::Run,
        _ => return Err(WireError { what: "facts scope" }),
    };
    if !d.is_empty() {
        return Err(WireError { what: "trailing bytes after facts" });
    }
    Ok(StaticFacts {
        scope,
        stats,
        safe_pcs,
        ro,
        init_only,
        findings,
        access_pcs,
        guarded,
        lock_universe,
    })
}
