//! Interprocedural call-graph summaries.
//!
//! The dataflow pass of this crate analyses one lifted context at a
//! time and historically treated every call as a black hole: any stack
//! or global address resident in an argument register escaped, and any
//! global written before the program's first parallelism could never be
//! re-classified. This module recovers the call structure so the
//! abstract interpreter can do better:
//!
//! * [`CallGraph`] — function-level call edges derived from the
//!   recovered CFG, condensed into strongly connected components with
//!   an iterative Tarjan walk and ordered bottom-up (callees before
//!   callers) so summaries are available at every monomorphic call
//!   site. Cycles (recursion) and indirect calls are handled by
//!   widening: a summary that is not yet available reads as
//!   [`FnSummary::widened`], which escapes everything.
//! * [`FnSummary`] — per-function *parameter effect* summary: for each
//!   of the eight argument registers, whether the callee may capture
//!   the pointer (store it, pass it somewhere untracked — `escapes`),
//!   may store through it (`writes`), or may load through it
//!   (`reads`). A caller passing `&local` or `&global` to a callee
//!   that only dereferences the pointer no longer loses the
//!   thread-private / read-only classification of the pointee.
//! * [`spawn_reachability`] — which functions may transitively execute
//!   the `THREAD_CREATE` syscall, and which basic blocks can only run
//!   *before* the first such spawn. Everything single-threaded in that
//!   prefix is the foundation of the "initialized-only" global
//!   classification in [`crate::dataflow`].

use crate::cfg::Cfg;
use std::collections::{BTreeMap, BTreeSet};
use tga::module::Module;
use tga::{Op, INST_SIZE};

/// Syscall number of `THREAD_CREATE` (see `grindcore::syscalls`): the
/// only way a new guest thread — and therefore any concurrency — comes
/// into existence.
const SYS_THREAD_CREATE: i64 = 3;

/// Effect summary of one function, indexed by argument register
/// (`a0..a7` map to bits `0..8`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Bit `i`: the callee may capture the pointer passed in `a{i}`
    /// (store it to memory, keep it live past a boundary, pass it to a
    /// syscall/client request, or forward it to a callee that does).
    pub escapes: u8,
    /// Bit `i`: the callee may store through the pointer in `a{i}`.
    pub writes: u8,
    /// Bit `i`: the callee may load through the pointer in `a{i}`.
    pub reads: u8,
    /// The summary was widened (recursion, missing callee, or lift
    /// failure): all bits are set and nothing can be trusted.
    pub widened: bool,
}

impl FnSummary {
    /// The conservative top element: every parameter escapes, is read
    /// and written.
    pub fn widened() -> FnSummary {
        FnSummary { escapes: 0xff, writes: 0xff, reads: 0xff, widened: true }
    }

    /// Fold another parameter's effects into bit `i`.
    pub fn taint(&mut self, i: u8, escapes: bool, writes: bool, reads: bool) {
        let bit = 1u8 << i.min(7);
        if escapes {
            self.escapes |= bit;
        }
        if writes {
            self.writes |= bit;
        }
        if reads {
            self.reads |= bit;
        }
    }
}

/// The function-level call graph with its bottom-up SCC order.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// `callees[f]`: indices into `cfg.funcs` called (or tail-called)
    /// from `f`, deduplicated.
    pub callees: Vec<Vec<usize>>,
    /// `f` contains a call whose target could not be resolved to a
    /// recovered function (indirect call, or a direct target outside
    /// every symbol).
    pub has_unknown_callee: Vec<bool>,
    /// Strongly connected components in bottom-up (callee-first)
    /// topological order.
    pub sccs: Vec<Vec<usize>>,
    /// `recursive[f]`: `f` sits on a call cycle (member of a non-trivial
    /// SCC, or calls itself).
    pub recursive: Vec<bool>,
}

/// Build the call graph of every recovered function.
pub fn call_graph(cfg: &Cfg) -> CallGraph {
    let n = cfg.funcs.len();
    let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut has_unknown_callee = vec![false; n];
    for (fi, f) in cfg.funcs.iter().enumerate() {
        for b in f.blocks.values() {
            if b.has_indirect {
                has_unknown_callee[fi] = true;
            }
            for &t in &b.calls {
                match cfg.func_at(t) {
                    Some(ci) => {
                        callees[fi].insert(ci);
                    }
                    None => has_unknown_callee[fi] = true,
                }
            }
        }
    }
    let callees: Vec<Vec<usize>> = callees.into_iter().map(|s| s.into_iter().collect()).collect();
    let sccs = tarjan_sccs(&callees);
    let mut recursive = vec![false; n];
    for scc in &sccs {
        if scc.len() > 1 {
            for &f in scc {
                recursive[f] = true;
            }
        } else if callees[scc[0]].contains(&scc[0]) {
            recursive[scc[0]] = true;
        }
    }
    CallGraph { callees, has_unknown_callee, sccs, recursive }
}

/// Iterative Tarjan SCC. Returned components are in reverse-topological
/// order of the condensation — i.e. callees appear before their
/// callers, which is exactly the order a bottom-up summary pass wants.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Where concurrency can begin, and which blocks provably run before
/// it.
#[derive(Clone, Debug)]
pub struct SpawnFacts {
    /// `may_spawn[f]`: `f` may transitively execute `THREAD_CREATE`.
    pub may_spawn: Vec<bool>,
    /// Block starts (keyed `(func index, block start)`) that may execute
    /// *after* some thread has been spawned — on a worker thread, in an
    /// address-taken (outlined) function, or downstream of a spawning
    /// call on the initial thread.
    pub post_spawn: BTreeSet<(usize, u64)>,
}

impl SpawnFacts {
    /// May the block starting at `start` in function `fi` only run
    /// while the program is still single-threaded?
    pub fn pre_spawn(&self, fi: usize, start: u64) -> bool {
        !self.post_spawn.contains(&(fi, start))
    }
}

/// Does the instruction range of `f` contain a direct `THREAD_CREATE`
/// syscall? The TGA `sys` instruction carries its number in the
/// immediate (minicc requires a literal), so this is a plain scan.
fn spawns_directly(module: &Module, lo: u64, hi: u64) -> bool {
    let mut pc = lo;
    while pc < hi {
        if let Some(inst) = module.fetch(pc) {
            if inst.op == Op::Sys && inst.imm == SYS_THREAD_CREATE {
                return true;
            }
        }
        pc += INST_SIZE;
    }
    false
}

/// A function's `may_spawn` as a summary records it. Whether a function
/// with an indirect call may spawn depends on the program: it does iff
/// some address-taken function may, and a program's outlined functions
/// are address-taken. So a summarized function's fact is one of three,
/// and [`spawn_reachability`] resolves it per program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnFact {
    /// Never executes `THREAD_CREATE`.
    Never,
    /// May execute it in every program.
    Always,
    /// May execute it iff some address-taken function of the program may.
    IfTakenSpawns,
}

impl SpawnFact {
    /// The fact's `may_spawn` in a program where some address-taken
    /// function may spawn (`any_taken`) or none may.
    pub fn resolve(self, any_taken: bool) -> bool {
        match self {
            SpawnFact::Never => false,
            SpawnFact::Always => true,
            SpawnFact::IfTakenSpawns => any_taken,
        }
    }
}

/// `may_spawn` per function, the least fixpoint of the call graph, and
/// whether some address-taken function may spawn. `fixed[f]` (empty, or
/// parallel to `cfg.funcs`) replaces function `f`'s code by its
/// summarized fact. `assume_taken_spawns` makes every unresolved callee
/// spawn, as in a program whose outlined code spawns.
pub fn may_spawn(
    module: &Module,
    cfg: &Cfg,
    cg: &CallGraph,
    fixed: &[Option<SpawnFact>],
    assume_taken_spawns: bool,
) -> (Vec<bool>, bool) {
    let n = cfg.funcs.len();
    let fixed_of = |f: usize| fixed.get(f).copied().flatten();

    // Direct spawn scan, then transitive closure over call edges.
    // Indirect calls may reach any address-taken function, so a
    // function with an unresolved callee spawns if any address-taken
    // function does; iterate to a fixpoint (monotone, bounded).
    let mut may_spawn: Vec<bool> = (0..n)
        .map(|f| match fixed_of(f) {
            Some(fact) => fact.resolve(assume_taken_spawns),
            None => spawns_directly(module, cfg.funcs[f].lo, cfg.funcs[f].hi),
        })
        .collect();
    let taken_idx: Vec<usize> = cfg.address_taken.iter().filter_map(|&a| cfg.func_at(a)).collect();
    let any_taken =
        |may_spawn: &[bool]| assume_taken_spawns || taken_idx.iter().any(|&i| may_spawn[i]);
    loop {
        let mut changed = false;
        let any_taken = any_taken(&may_spawn);
        for f in 0..n {
            if may_spawn[f] {
                continue;
            }
            let spawns = match fixed_of(f) {
                Some(fact) => fact.resolve(any_taken),
                None => {
                    cg.callees[f].iter().any(|&c| may_spawn[c])
                        || (cg.has_unknown_callee[f] && any_taken)
                }
            };
            if spawns {
                may_spawn[f] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let any_taken_spawns = any_taken(&may_spawn);
    (may_spawn, any_taken_spawns)
}

/// Compute spawn reachability: which functions may create threads, and
/// which blocks may run after a thread exists. `fixed` is as for
/// [`may_spawn`].
///
/// The block-level `post_spawn` set is a forward closure over three
/// seed kinds: entry blocks of address-taken functions (outlined task
/// and parallel-region bodies, worker entry points — anything invoked
/// by address runs on or concurrently with worker threads), successors
/// of blocks that directly execute the spawn syscall, and successors of
/// blocks whose terminating call may transitively spawn. Membership
/// propagates along intra-procedural successor edges and into the
/// entry block of every function called from a post-spawn block.
pub fn spawn_reachability(
    module: &Module,
    cfg: &Cfg,
    cg: &CallGraph,
    fixed: &[Option<SpawnFact>],
) -> SpawnFacts {
    let (may_spawn, any_taken_spawns) = may_spawn(module, cfg, cg, fixed, false);
    let taken_idx: Vec<usize> = cfg.address_taken.iter().filter_map(|&a| cfg.func_at(a)).collect();

    // Seed the post-spawn block set.
    let mut post: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut work: Vec<(usize, u64)> = Vec::new();
    let mark =
        |fi: usize, start: u64, post: &mut BTreeSet<(usize, u64)>, work: &mut Vec<(usize, u64)>| {
            if post.insert((fi, start)) {
                work.push((fi, start));
            }
        };
    for &fi in &taken_idx {
        let entry = cfg.funcs[fi].lo;
        mark(fi, entry, &mut post, &mut work);
    }
    for (fi, f) in cfg.funcs.iter().enumerate() {
        for b in f.blocks.values() {
            // A spawn syscall terminates its block (`sys` ends blocks),
            // so only successors of the block run with the new thread
            // alive. The same holds for a call that may spawn: the call
            // is the block terminator.
            let sys_spawn = b.end >= b.start + INST_SIZE
                && module
                    .fetch(b.end - INST_SIZE)
                    .is_some_and(|i| i.op == Op::Sys && i.imm == SYS_THREAD_CREATE);
            let call_spawn =
                b.calls.iter().any(|&t| cfg.func_at(t).map(|ci| may_spawn[ci]).unwrap_or(true));
            let indirect_spawn = b.has_indirect && any_taken_spawns;
            if sys_spawn || call_spawn || indirect_spawn {
                for &s in &b.succs {
                    mark(fi, s, &mut post, &mut work);
                }
            }
        }
    }

    // Forward closure: successors, and callee entries of post-spawn
    // blocks (the terminating call of a post-spawn block runs
    // post-spawn).
    while let Some((fi, start)) = work.pop() {
        let Some(b) = cfg.funcs[fi].blocks.get(&start) else { continue };
        for &s in &b.succs {
            mark(fi, s, &mut post, &mut work);
        }
        for &t in &b.calls {
            if let Some(ci) = cfg.func_at(t) {
                let entry = cfg.funcs[ci].lo;
                mark(ci, entry, &mut post, &mut work);
            }
        }
        if b.has_indirect {
            for &ti in &taken_idx {
                let entry = cfg.funcs[ti].lo;
                mark(ti, entry, &mut post, &mut work);
            }
        }
    }

    SpawnFacts { may_spawn, post_spawn: post }
}

/// Memoized summary table, parallel to `cfg.funcs`, with widening for
/// entries that are not (yet) available.
#[derive(Clone, Debug, Default)]
pub struct Summaries {
    table: Vec<Option<FnSummary>>,
    /// Function entry address → index, for call-site resolution.
    by_entry: BTreeMap<u64, usize>,
}

impl Summaries {
    /// An empty table for `n` functions.
    pub fn new(cfg: &Cfg) -> Summaries {
        Summaries {
            table: vec![None; cfg.funcs.len()],
            by_entry: cfg.funcs.iter().enumerate().map(|(i, f)| (f.lo, i)).collect(),
        }
    }

    /// Record the computed summary of function `fi`.
    pub fn set(&mut self, fi: usize, s: FnSummary) {
        self.table[fi] = Some(s);
    }

    /// Summary of function `fi`; widened when not yet computed (cycle
    /// back-edges during the bottom-up pass).
    pub fn get(&self, fi: usize) -> FnSummary {
        self.table[fi].unwrap_or_else(FnSummary::widened)
    }

    /// Summary for a call to address `target`; widened for targets that
    /// are not a known function entry (mid-function jumps, data).
    pub fn for_target(&self, target: u64) -> FnSummary {
        match self.by_entry.get(&target) {
            Some(&fi) => self.get(fi),
            None => FnSummary::widened(),
        }
    }

    /// Index of the function whose entry is `target`, if any.
    pub fn func_of_target(&self, target: u64) -> Option<usize> {
        self.by_entry.get(&target).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_orders_callees_first_and_finds_cycles() {
        // 0 → 1 → 2, 2 → 1 (cycle {1,2}), 0 → 3.
        let adj = vec![vec![1, 3], vec![2], vec![1], vec![]];
        let sccs = tarjan_sccs(&adj);
        let pos = |f: usize| sccs.iter().position(|s| s.contains(&f)).unwrap();
        assert_eq!(pos(1), pos(2), "cycle members share an SCC");
        assert!(pos(1) < pos(0), "callee SCC comes before caller");
        assert!(pos(3) < pos(0));
        assert_eq!(sccs.iter().map(|s| s.len()).sum::<usize>(), 4);
    }

    #[test]
    fn widened_summary_taints_everything() {
        let w = FnSummary::widened();
        for i in 0..8 {
            assert_ne!(w.escapes & (1 << i), 0);
            assert_ne!(w.writes & (1 << i), 0);
        }
        let mut s = FnSummary::default();
        s.taint(2, true, false, true);
        assert_eq!(s.escapes, 4);
        assert_eq!(s.writes, 0);
        assert_eq!(s.reads, 4);
    }
}
