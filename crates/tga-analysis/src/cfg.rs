//! Whole-program CFG and call-graph recovery from decoded instructions.
//!
//! Function discovery is seeded by the symbol table (`SymKind::Func`);
//! each function's instruction range is split into basic blocks at
//! branch targets and after every block-ending instruction, then
//! intra-procedural successor edges and inter-procedural call edges are
//! derived from the terminator semantics of the TGA ISA (`Op`
//! documentation in `tga`). Indirect jumps/calls (`jalr` through a
//! non-`ra` register) contribute no static edge; functions whose
//! address is materialised by a `li` (outlined task bodies handed to
//! the runtime) are treated as address-taken roots for reachability.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tga::module::{Module, SymKind};
use tga::{reg, Inst, Op, INST_SIZE};

/// A recovered basic block. `end` is exclusive.
#[derive(Clone, Debug)]
pub struct Block {
    /// First instruction address.
    pub start: u64,
    /// One past the last instruction address.
    pub end: u64,
    /// Intra-procedural successors (fallthrough and branch targets).
    pub succs: Vec<u64>,
    /// Direct call targets of the terminator (`jal` with `rd = ra`).
    pub calls: Vec<u64>,
    /// Terminates in a return (`jalr zero, ra, 0`).
    pub is_ret: bool,
    /// Terminates in an indirect jump or call we cannot resolve.
    pub has_indirect: bool,
}

/// One recovered function: a symbol plus its basic blocks.
#[derive(Clone, Debug)]
pub struct FuncCfg {
    /// Symbol name.
    pub name: String,
    /// Instruction range `[lo, hi)` covered by the function.
    pub lo: u64,
    /// Exclusive end of the function's instruction range.
    pub hi: u64,
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u64, Block>,
}

impl FuncCfg {
    /// Does `addr` fall inside this function's instruction range?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.lo && addr < self.hi
    }
}

/// Aggregate counts printed by `lint`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CfgStats {
    /// Recovered functions.
    pub functions: usize,
    /// Total basic blocks.
    pub blocks: usize,
    /// Intra-procedural successor edges.
    pub edges: usize,
    /// Direct call edges.
    pub call_edges: usize,
    /// Blocks ending in an unresolved indirect jump or call.
    pub indirect_exits: usize,
    /// Functions unreachable from the entry point.
    pub unreachable_functions: usize,
}

/// The recovered whole-program CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Recovered functions, sorted by entry address.
    pub funcs: Vec<FuncCfg>,
    /// Functions whose address appears as a `li` immediate somewhere in
    /// the code (potential indirect-call targets).
    pub address_taken: BTreeSet<u64>,
    /// Indices into `funcs` not reachable from the entry point or any
    /// address-taken function.
    pub unreachable: Vec<usize>,
    /// Aggregate counts for the lint report.
    pub stats: CfgStats,
}

impl Cfg {
    /// Index of the function covering `addr`, if any.
    pub fn func_at(&self, addr: u64) -> Option<usize> {
        func_index(&self.funcs, addr)
    }

    /// `live[i]`: function `i` may run, i.e. it is not in
    /// [`Cfg::unreachable`]. Code runs only from the entry point, a
    /// direct or tail call, or an address-taken function, the same
    /// assumption [`crate::summaries::spawn_reachability`] makes, so the
    /// dataflow and lockset passes analyze live functions only.
    pub fn live(&self) -> Vec<bool> {
        let mut live = vec![true; self.funcs.len()];
        for &i in &self.unreachable {
            live[i] = false;
        }
        live
    }
}

/// Branch-target of a conditional branch or direct jump, if the
/// instruction has one that is statically known.
fn direct_target(inst: &Inst) -> Option<u64> {
    match inst.op {
        Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Jal => Some(inst.imm as u64),
        _ => None,
    }
}

/// Every basic-block start address in the module, deduplicated and
/// sorted — the precompilation work-list for `tgrind warm`. Superblock
/// lifting may start at any of these (plus dynamic continuation points
/// the static CFG cannot know, which warm runs simply compile cold).
pub fn block_starts(module: &Module) -> Vec<u64> {
    let cfg = recover(module);
    let mut starts: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for f in &cfg.funcs {
        starts.extend(f.blocks.keys().copied());
    }
    starts.into_iter().collect()
}

/// Recover the CFG of every `Func` symbol in the module.
pub fn recover(module: &Module) -> Cfg {
    let mut fsyms: Vec<_> = module.symbols.iter().filter(|s| s.kind == SymKind::Func).collect();
    fsyms.sort_by_key(|s| s.addr);

    let code_end = module.code_end();
    let mut funcs = Vec::with_capacity(fsyms.len());
    for (i, sym) in fsyms.iter().enumerate() {
        let next = fsyms.get(i + 1).map(|s| s.addr).unwrap_or(code_end);
        let hi = if sym.size > 0 { (sym.addr + sym.size).min(next) } else { next };
        if sym.addr >= hi {
            continue; // zero-sized or overlapping symbol
        }
        funcs.push(build_func(module, &sym.name, sym.addr, hi));
    }

    // Address-taken functions: any `li` immediate that names a function
    // entry point (minicc emits these for outlined bodies passed to the
    // runtime's task-creation entry points).
    let entries: BTreeSet<u64> = funcs.iter().map(|f| f.lo).collect();
    let mut address_taken = BTreeSet::new();
    let mut pc = module.code_base;
    while pc < code_end {
        if let Some(inst) = module.fetch(pc) {
            if inst.op == Op::Li && entries.contains(&(inst.imm as u64)) {
                address_taken.insert(inst.imm as u64);
            }
        }
        pc += INST_SIZE;
    }

    let unreachable = compute_unreachable(&funcs, &address_taken, module.entry);

    let mut stats = CfgStats {
        functions: funcs.len(),
        unreachable_functions: unreachable.len(),
        ..Default::default()
    };
    for f in &funcs {
        stats.blocks += f.blocks.len();
        for b in f.blocks.values() {
            stats.edges += b.succs.len();
            stats.call_edges += b.calls.len();
            stats.indirect_exits += b.has_indirect as usize;
        }
    }

    Cfg { funcs, address_taken, unreachable, stats }
}

fn build_func(module: &Module, name: &str, lo: u64, hi: u64) -> FuncCfg {
    // Pass 1: leaders = function entry, branch targets inside the
    // function, and the instruction after every block terminator, sorted.
    let mut leaders: Vec<u64> = vec![lo];
    let mut pc = lo;
    while pc < hi {
        if let Some(inst) = module.fetch(pc) {
            if inst.op.ends_block() {
                if pc + INST_SIZE < hi {
                    leaders.push(pc + INST_SIZE);
                }
                if let Some(t) = direct_target(&inst) {
                    // `jal ra` targets another function; everything else
                    // with an in-range target splits a block here.
                    let is_call = inst.op == Op::Jal && inst.rd == reg::RA;
                    if !is_call && t >= lo && t < hi {
                        leaders.push(t);
                    }
                }
            }
        }
        pc += INST_SIZE;
    }
    leaders.sort_unstable();
    leaders.dedup();

    // Pass 2: walk each leader forward to its terminator, or to the next
    // leader it reaches, and record successor/call edges.
    let mut blocks = BTreeMap::new();
    for (k, &start) in leaders.iter().enumerate() {
        // The leaders after this one, passed over as the walk moves on:
        // its first is the next one the walk can still reach.
        let mut later = leaders[k + 1..].iter().copied().peekable();
        let end;
        let mut succs = Vec::new();
        let mut calls = Vec::new();
        let mut is_ret = false;
        let mut has_indirect = false;
        let mut pc = start;
        loop {
            let Some(inst) = module.fetch(pc) else {
                end = pc;
                break;
            };
            let next = pc + INST_SIZE;
            if inst.op.ends_block() {
                end = next;
                match inst.op {
                    Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu => {
                        let t = inst.imm as u64;
                        if t >= lo && t < hi {
                            succs.push(t);
                        }
                        if next < hi {
                            succs.push(next);
                        }
                    }
                    Op::Jal => {
                        let t = inst.imm as u64;
                        if inst.rd == reg::RA {
                            calls.push(t);
                            if next < hi {
                                succs.push(next); // returns to the call site
                            }
                        } else if t >= lo && t < hi {
                            succs.push(t); // local jump (loops, gotos)
                        } else {
                            calls.push(t); // tail transfer to another function
                        }
                    }
                    Op::Jalr => {
                        if inst.rs1 == reg::RA && inst.rd == reg::ZERO {
                            is_ret = true;
                        } else {
                            has_indirect = true;
                            if inst.rd == reg::RA && next < hi {
                                succs.push(next); // indirect call returns
                            }
                        }
                    }
                    Op::Sys | Op::Clreq if next < hi => succs.push(next),
                    _ => {} // Halt: no successors
                }
                break;
            }
            while later.next_if(|&l| l < next).is_some() {}
            if next >= hi || later.peek() == Some(&next) {
                end = next;
                if next < hi {
                    succs.push(next); // fallthrough into the next block
                }
                break;
            }
            pc = next;
        }
        blocks.insert(start, Block { start, end, succs, calls, is_ret, has_indirect });
    }

    FuncCfg { name: name.to_string(), lo, hi, blocks }
}

/// Index of the function in `funcs` covering `addr`, by binary search.
/// [`recover`] sorts functions by entry address and clips each at the
/// next entry, so their ranges are disjoint and at most the last
/// function starting at or below `addr` can cover it.
fn func_index(funcs: &[FuncCfg], addr: u64) -> Option<usize> {
    let i = funcs.partition_point(|f| f.lo <= addr).checked_sub(1)?;
    funcs[i].contains(addr).then_some(i)
}

fn compute_unreachable(funcs: &[FuncCfg], address_taken: &BTreeSet<u64>, entry: u64) -> Vec<usize> {
    let mut seen = vec![false; funcs.len()];
    let mut queue = VecDeque::new();
    let push = |addr: u64, seen: &mut Vec<bool>, queue: &mut VecDeque<usize>| {
        if let Some(i) = func_index(funcs, addr) {
            if !seen[i] {
                seen[i] = true;
                queue.push_back(i);
            }
        }
    };
    push(entry, &mut seen, &mut queue);
    for &a in address_taken {
        push(a, &mut seen, &mut queue);
    }
    while let Some(i) = queue.pop_front() {
        for b in funcs[i].blocks.values() {
            for &c in &b.calls {
                push(c, &mut seen, &mut queue);
            }
        }
    }
    (0..funcs.len()).filter(|&i| !seen[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The binary search answers exactly like a scan over every function,
    /// on every code pc (and one past the end) of a guest linked with the
    /// runtime, where dozens of functions sit back to back.
    #[test]
    fn func_at_agrees_with_a_linear_scan() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel
    x = 1;
    return x;
}
"#;
        let m = guest_rt::build_single("scan.c", src).expect("compiles");
        let cfg = recover(&m);
        assert!(cfg.funcs.len() > 10, "the runtime links in many functions");
        let mut pc = m.code_base;
        while pc <= m.code_end() {
            let scan = cfg.funcs.iter().position(|f| f.contains(pc));
            assert_eq!(cfg.func_at(pc), scan, "pc {pc:#x}");
            pc += INST_SIZE;
        }
        assert_eq!(cfg.func_at(0), None);
    }
}
