//! Static must-held lockset analysis over the recovered CFG.
//!
//! Lock operations appear in the binary as calls to the guest runtime's
//! lock primitives — `__kmp_critical_begin`/`__kmp_critical_end`
//! (OpenMP critical sections, identified by their critical id) and
//! `omp_set_lock`/`omp_unset_lock`/`omp_test_lock` (identified by the
//! lock's address). Both identities are exactly the argument the
//! runtime forwards to the `CRITICAL_ENTER`/`CRITICAL_EXIT` client
//! requests, so static and dynamic views of a lock always conflate.
//! The call-site argument comes from the dataflow pass's merged
//! abstract `a0` ([`crate::dataflow::Dataflow::call_args`]); a site
//! whose argument is not one known constant is treated as an unknown
//! lock.
//!
//! Per function, two forward fixpoints run over the basic blocks, with
//! lock events only at block terminators (calls):
//!
//! * **must-held** — meet is set intersection, function entry is the
//!   empty set. This is an *under*-approximation of the locks held in
//!   every execution reaching a block, which is the polarity the sweep
//!   integration needs: tagging an access "guarded by L" is only sound
//!   if L really is held whenever the access runs. Anything doubtful
//!   (unknown lock argument, unresolved or indirect callee, a callee
//!   that may release an unknown lock) clears or withholds from the
//!   set.
//! * **may-held** — join is set union. Used only for the lock-leak
//!   finding: a lock in the may-set but not the must-set at a return
//!   was left held on some path and released on another.
//!
//! Only live functions ([`Cfg::live`]) are analysed: a dead function
//! holds no lock at run time, contributes no guard range, order edge or
//! finding, and no live caller reads its transfer.
//!
//! Calls to analysed (non-primitive) functions apply that callee's
//! [`FnLocks`] transfer, computed bottom-up over the call-graph SCC
//! condensation; callees in the same SCC (recursion) and unknown
//! callees get the conservative transfer. Lock-order edges
//! (`held → acquired`) are collected for [`crate::lockorder`] from the
//! post-fixpoint must-sets, including acquisitions performed
//! transitively by callees.

use crate::cfg::Cfg;
use crate::summaries::CallGraph;
use std::collections::{BTreeMap, BTreeSet};
use tga::INST_SIZE;

/// A lock identity: the critical-section id or the lock object's
/// address — the same raw value the runtime passes to the
/// `CRITICAL_ENTER`/`CRITICAL_EXIT` client requests.
pub type LockId = u64;

/// Lock-primitive classification of a callee, by symbol name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prim {
    Acquire,
    Release,
    /// `omp_test_lock`: may acquire, never blocks — contributes a
    /// lock-order edge but no must-held fact.
    TryAcquire,
}

fn primitive(name: &str) -> Option<Prim> {
    match name {
        "__kmp_critical_begin" | "omp_set_lock" => Some(Prim::Acquire),
        "__kmp_critical_end" | "omp_unset_lock" => Some(Prim::Release),
        "omp_test_lock" => Some(Prim::TryAcquire),
        _ => None,
    }
}

/// Transfer summary of one analysed function, as seen by its callers.
#[derive(Clone, Debug, Default)]
pub struct FnLocks {
    /// Locks held at every return (acquired and deliberately kept).
    pub exit_must: BTreeSet<LockId>,
    /// Locks held at some return.
    pub may_exit: BTreeSet<LockId>,
    /// Locks the function (transitively) may release.
    pub may_release: BTreeSet<LockId>,
    /// The function may release a lock it cannot name: callers must
    /// drop their entire must-set across the call.
    pub may_release_unknown: bool,
    /// Locks the function (transitively) may acquire, for lock-order
    /// edges out of callers' held sets.
    pub may_acquire: BTreeSet<LockId>,
}

impl FnLocks {
    /// The conservative transfer for recursion and unknown callees.
    fn widened() -> FnLocks {
        FnLocks { may_release_unknown: true, ..Default::default() }
    }
}

/// A `held → acquired` edge of the lock-order graph, with the call pc
/// that witnessed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderEdge {
    /// Lock already held.
    pub held: LockId,
    /// Lock being acquired (possibly by a callee) while `held` is held.
    pub acquired: LockId,
    /// Guest pc of the witnessing call instruction.
    pub pc: u64,
}

/// An acquisition of a lock the thread already holds (self-deadlock on
/// the runtime's non-reentrant spin locks).
#[derive(Clone, Copy, Debug)]
pub struct DoubleLock {
    /// The re-acquired lock.
    pub lock: LockId,
    /// Guest pc of the second acquisition's call instruction.
    pub pc: u64,
}

/// A lock released on some path to a return but still held on another.
#[derive(Clone, Debug)]
pub struct LockLeak {
    /// The leaked lock.
    pub lock: LockId,
    /// Function the divergence is in.
    pub func: String,
    /// Guest pc of the return (or tail transfer) reached with the lock
    /// conditionally held.
    pub pc: u64,
}

/// Everything the lockset pass learned.
#[derive(Clone, Debug, Default)]
pub struct LockFacts {
    /// Per-function transfer summaries, parallel to `cfg.funcs`.
    pub fn_locks: Vec<FnLocks>,
    /// `(block start, block end, must-held locks)` for every block with
    /// a non-empty must-held in-set — the raw material of the guard map.
    pub held_ranges: Vec<(u64, u64, BTreeSet<LockId>)>,
    /// Lock-order edges for deadlock detection.
    pub order_edges: Vec<OrderEdge>,
    /// Double-lock findings (user code only).
    pub double_locks: Vec<DoubleLock>,
    /// Lock-leak findings (user code only).
    pub lock_leaks: Vec<LockLeak>,
    /// Every distinct lock identity seen, sorted.
    pub universe: Vec<LockId>,
}

/// What a block's terminator does, lock-wise.
#[derive(Clone, Debug)]
enum Event {
    None,
    /// Primitive with a known lock argument.
    Prim(Prim, LockId),
    /// Primitive with an unknown lock argument.
    PrimUnknown(Prim),
    /// Call into an analysed function (index into `cfg.funcs`).
    User(usize),
    /// Indirect or unresolved transfer: assume nothing survives.
    Unknown,
}

/// Runtime-internal functions: the lock implementation itself and its
/// balanced wrappers. Their intra-function lock states are meaningless
/// to report (the acquire function "leaks" its lock by design).
fn is_runtime(name: &str) -> bool {
    name.starts_with("__kmp") || name.starts_with("omp_")
}

fn block_event(cfg: &Cfg, fi: usize, start: u64, call_args: &BTreeMap<u64, Option<u64>>) -> Event {
    let b = &cfg.funcs[fi].blocks[&start];
    if b.has_indirect {
        return Event::Unknown;
    }
    let Some(&target) = b.calls.first() else {
        return Event::None;
    };
    let pc = b.end - INST_SIZE;
    match cfg.func_at(target) {
        Some(ci) if target == cfg.funcs[ci].lo => {
            if let Some(p) = primitive(&cfg.funcs[ci].name) {
                match call_args.get(&pc).copied().flatten() {
                    Some(arg) => Event::Prim(p, arg),
                    None => Event::PrimUnknown(p),
                }
            } else {
                Event::User(ci)
            }
        }
        _ => Event::Unknown, // mid-function or unresolved target
    }
}

/// Apply `ev` to a must-held set.
fn must_transfer(ev: &Event, held: &BTreeSet<LockId>, fn_locks: &[FnLocks]) -> BTreeSet<LockId> {
    let mut out = held.clone();
    match ev {
        Event::None => {}
        Event::Prim(Prim::Acquire, l) => {
            out.insert(*l);
        }
        Event::Prim(Prim::Release, l) => {
            out.remove(l);
        }
        Event::Prim(Prim::TryAcquire, _) | Event::PrimUnknown(Prim::TryAcquire) => {}
        Event::PrimUnknown(Prim::Acquire) => {} // cannot name it: no must fact
        Event::PrimUnknown(Prim::Release) => out.clear(),
        Event::User(ci) => {
            let fl = &fn_locks[*ci];
            if fl.may_release_unknown {
                out.clear();
            } else {
                for l in &fl.may_release {
                    out.remove(l);
                }
            }
            out.extend(fl.exit_must.iter().copied());
        }
        Event::Unknown => out.clear(),
    }
    out
}

/// Apply `ev` to a may-held set.
fn may_transfer(ev: &Event, held: &BTreeSet<LockId>, fn_locks: &[FnLocks]) -> BTreeSet<LockId> {
    let mut out = held.clone();
    match ev {
        Event::None | Event::PrimUnknown(_) | Event::Unknown => {}
        Event::Prim(Prim::Acquire | Prim::TryAcquire, l) => {
            out.insert(*l);
        }
        Event::Prim(Prim::Release, l) => {
            out.remove(l);
        }
        Event::User(ci) => out.extend(fn_locks[*ci].may_exit.iter().copied()),
    }
    out
}

struct FnResult {
    locks: FnLocks,
    must_in: BTreeMap<u64, BTreeSet<LockId>>,
    may_in: BTreeMap<u64, BTreeSet<LockId>>,
}

fn analyze_fn(
    cfg: &Cfg,
    fi: usize,
    call_args: &BTreeMap<u64, Option<u64>>,
    fn_locks: &[FnLocks],
) -> FnResult {
    let f = &cfg.funcs[fi];
    let events: BTreeMap<u64, Event> =
        f.blocks.keys().map(|&s| (s, block_event(cfg, fi, s, call_args))).collect();

    // Must-held forward fixpoint: unvisited = ⊤ (identity of ∩).
    let mut must_in: BTreeMap<u64, Option<BTreeSet<LockId>>> =
        f.blocks.keys().map(|&s| (s, None)).collect();
    must_in.insert(f.lo, Some(BTreeSet::new()));
    let mut changed = true;
    while changed {
        changed = false;
        for (&s, b) in &f.blocks {
            let Some(in_set) = must_in[&s].clone() else { continue };
            let out = must_transfer(&events[&s], &in_set, fn_locks);
            for &succ in &b.succs {
                let slot = must_in.get_mut(&succ).unwrap();
                let new = match slot {
                    None => Some(out.clone()),
                    Some(cur) => {
                        let met: BTreeSet<LockId> = cur.intersection(&out).copied().collect();
                        (met != *cur).then_some(met)
                    }
                };
                if let Some(n) = new {
                    *slot = Some(n);
                    changed = true;
                }
            }
        }
    }

    // May-held forward fixpoint: unvisited = ∅ (identity of ∪).
    let mut may_in: BTreeMap<u64, BTreeSet<LockId>> =
        f.blocks.keys().map(|&s| (s, BTreeSet::new())).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (&s, b) in &f.blocks {
            let out = may_transfer(&events[&s], &may_in[&s], fn_locks);
            for &succ in &b.succs {
                let slot = may_in.get_mut(&succ).unwrap();
                let before = slot.len();
                slot.extend(out.iter().copied());
                changed |= slot.len() != before;
            }
        }
    }

    // Function summary: direct effects plus callee transitivity.
    let mut locks = FnLocks::default();
    let mut exit_must: Option<BTreeSet<LockId>> = None;
    for (&s, b) in &f.blocks {
        let ev = &events[&s];
        match ev {
            Event::Prim(Prim::Acquire | Prim::TryAcquire, l) => {
                locks.may_acquire.insert(*l);
            }
            Event::Prim(Prim::Release, l) => {
                locks.may_release.insert(*l);
            }
            Event::PrimUnknown(Prim::Acquire | Prim::TryAcquire) => {}
            Event::PrimUnknown(Prim::Release) => locks.may_release_unknown = true,
            Event::User(ci) => {
                let fl = &fn_locks[*ci];
                locks.may_acquire.extend(fl.may_acquire.iter().copied());
                locks.may_release.extend(fl.may_release.iter().copied());
                locks.may_release_unknown |= fl.may_release_unknown;
            }
            Event::Unknown if b.has_indirect || !b.calls.is_empty() => {
                locks.may_release_unknown = true;
            }
            _ => {}
        }
        // Exits: returns, and tail transfers out of the function.
        let is_tail = !b.calls.is_empty() && b.succs.is_empty() && !b.is_ret;
        if b.is_ret || is_tail {
            if let Some(in_set) = &must_in[&s] {
                let out = must_transfer(ev, in_set, fn_locks);
                exit_must = Some(match exit_must {
                    None => out,
                    Some(cur) => cur.intersection(&out).copied().collect(),
                });
            }
            locks.may_exit.extend(may_transfer(ev, &may_in[&s], fn_locks));
        }
    }
    locks.exit_must = exit_must.unwrap_or_default();

    FnResult {
        locks,
        must_in: must_in.into_iter().filter_map(|(s, v)| v.map(|v| (s, v))).collect(),
        may_in,
    }
}

/// Run the lockset pass over the whole program.
pub fn analyze(cfg: &Cfg, cg: &CallGraph, call_args: &BTreeMap<u64, Option<u64>>) -> LockFacts {
    let mut fn_locks: Vec<FnLocks> = vec![FnLocks::widened(); cfg.funcs.len()];
    let mut results: Vec<Option<FnResult>> = (0..cfg.funcs.len()).map(|_| None).collect();
    let live = cfg.live();

    // Bottom-up over SCCs; same-SCC callees read as widened. A second
    // evaluation of recursive functions with their own computed summary
    // would only refine findings, not soundness — one pass suffices.
    // An SCC is wholly live or wholly dead.
    for scc in cg.sccs.iter().filter(|scc| live[scc[0]]) {
        for &fi in scc {
            let r = analyze_fn(cfg, fi, call_args, &fn_locks);
            fn_locks[fi] = r.locks.clone();
            results[fi] = Some(r);
        }
    }

    let mut facts = LockFacts { fn_locks, ..Default::default() };
    let mut universe: BTreeSet<LockId> = BTreeSet::new();
    for (fi, f) in cfg.funcs.iter().enumerate() {
        let Some(r) = results[fi].as_ref() else { continue }; // dead
        let runtime = is_runtime(&f.name);
        for (&s, b) in &f.blocks {
            let ev = block_event(cfg, fi, s, call_args);
            let pc = b.end.saturating_sub(INST_SIZE);
            // Guard map input.
            if let Some(held) = r.must_in.get(&s) {
                if !held.is_empty() {
                    universe.extend(held.iter().copied());
                    facts.held_ranges.push((b.start, b.end, held.clone()));
                }
            }
            // Order edges + double-lock need the must-set at the call.
            let Some(held) = r.must_in.get(&s) else { continue };
            match &ev {
                Event::Prim(Prim::Acquire, l) => {
                    universe.insert(*l);
                    for &h in held {
                        if h != *l {
                            facts.order_edges.push(OrderEdge { held: h, acquired: *l, pc });
                        }
                    }
                    if held.contains(l) && !runtime {
                        facts.double_locks.push(DoubleLock { lock: *l, pc });
                    }
                }
                Event::Prim(Prim::TryAcquire, l) => {
                    universe.insert(*l);
                    for &h in held {
                        if h != *l {
                            facts.order_edges.push(OrderEdge { held: h, acquired: *l, pc });
                        }
                    }
                }
                Event::User(ci) => {
                    for &h in held {
                        for &l in &facts.fn_locks[*ci].may_acquire {
                            if h != l {
                                facts.order_edges.push(OrderEdge { held: h, acquired: l, pc });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Lock leaks: conditionally held at an exit.
        if !runtime {
            for (&s, b) in &f.blocks {
                let is_tail = !b.calls.is_empty() && b.succs.is_empty() && !b.is_ret;
                if !(b.is_ret || is_tail) {
                    continue;
                }
                let ev = block_event(cfg, fi, s, call_args);
                let may_out = may_transfer(&ev, &r.may_in[&s], &facts.fn_locks);
                let must_out = r
                    .must_in
                    .get(&s)
                    .map(|in_set| must_transfer(&ev, in_set, &facts.fn_locks))
                    .unwrap_or_default();
                for &l in may_out.difference(&must_out) {
                    facts.lock_leaks.push(LockLeak {
                        lock: l,
                        func: f.name.clone(),
                        pc: b.end.saturating_sub(INST_SIZE),
                    });
                }
            }
        }
    }
    facts.order_edges.sort();
    facts.order_edges.dedup();
    facts.universe = universe.into_iter().collect();
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_names_cover_both_lock_flavours() {
        assert_eq!(primitive("__kmp_critical_begin"), Some(Prim::Acquire));
        assert_eq!(primitive("omp_unset_lock"), Some(Prim::Release));
        assert_eq!(primitive("omp_test_lock"), Some(Prim::TryAcquire));
        assert_eq!(primitive("__kmp_barrier"), None);
    }

    #[test]
    fn must_transfer_clears_on_unknown_release() {
        let held: BTreeSet<LockId> = [1, 2].into_iter().collect();
        let out = must_transfer(&Event::PrimUnknown(Prim::Release), &held, &[]);
        assert!(out.is_empty());
        let out = must_transfer(&Event::Prim(Prim::Acquire, 7), &held, &[]);
        assert_eq!(out.len(), 3);
    }
}
