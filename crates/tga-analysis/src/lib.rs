//! Static binary analysis for TGA modules.
//!
//! This crate recovers a whole-program CFG and call graph from the
//! decoded instruction stream ([`mod@cfg`]), then runs conservative
//! dataflow passes over the lifted `vex-ir` superblocks ([`dataflow`]),
//! interprocedurally via bottom-up call-graph summaries
//! ([`summaries`]): stack-slot escape analysis, stack-pointer protocol
//! checking, and read-only / init-only classification of globals. The
//! verdicts are exported as a [`StaticFacts`] table that Taskgrind
//! consumes as an instrumentation filter — loads and stores statically
//! proven thread-private (frame slots that never escape), read-only
//! (globals never written or address-taken), or init-only (globals
//! written exclusively before the first thread spawn) skip
//! interval-tree recording entirely, shrinking the recording phase
//! without changing any race verdict.
//!
//! On top of the memory classification sits a static concurrency
//! analysis: a must-held lockset dataflow ([`lockset`]) and a
//! lock-order graph with cycle detection ([`lockorder`]). These feed
//! three lint finding kinds (potential deadlocks, double locks, lock
//! leaks) and a *guard map* — access sites provably executed with a
//! known lock held — that only the `lint` CLI subcommand reports: a
//! Taskgrind run skips the concurrency pass ([`AnalyzeOpts`]). `lint`
//! prints CFG statistics and the static findings with debug-info
//! locations.

#![warn(missing_docs)]

use std::collections::BTreeSet;
use tga::module::{Module, SymKind};

pub mod cfg;
pub mod dataflow;
pub mod factsio;
pub mod lockorder;
pub mod lockset;
pub mod runsum;
pub mod summaries;

pub use cfg::{Cfg, CfgStats};
pub use dataflow::{Dataflow, FnFacts, RoRange};

/// What a static finding is about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A function not reachable from the entry point or any
    /// address-taken function.
    UnreachableFunction {
        /// Symbol name of the unreachable function.
        name: String,
    },
    /// A frame slot whose address flows out of its frame (into memory,
    /// a call, or a syscall); accesses to it stay instrumented.
    EscapingStackSlot {
        /// Function owning the frame.
        func: String,
        /// Canonical `fp`-relative offset of the escaping slot.
        offset: i64,
    },
    /// The whole frame of a function had to be given up on (a stack
    /// address flowed through arithmetic the analysis cannot follow).
    FrameNotAnalyzable {
        /// The affected function.
        func: String,
    },
    /// A return site whose reconstructed stack pointer does not restore
    /// the caller's.
    SpMismatchOnReturn {
        /// The affected function.
        func: String,
    },
    /// A store with a constant target inside the text section.
    WriteToReadOnly {
        /// The targeted text address.
        target: u64,
    },
    /// A cycle in the static lock-order graph: two threads taking these
    /// locks in the witnessed orders can deadlock.
    LockOrderCycle {
        /// Human-readable lock names along the cycle.
        locks: Vec<String>,
    },
    /// An acquisition of a lock the thread already holds (self-deadlock
    /// on the runtime's non-reentrant locks).
    DoubleLock {
        /// Human-readable name of the re-acquired lock.
        lock: String,
    },
    /// A lock released on some path to a return but still held on
    /// another.
    LockLeak {
        /// Function containing the divergence.
        func: String,
        /// Human-readable name of the conditionally leaked lock.
        lock: String,
    },
}

/// One static finding, anchored to a guest pc with its source location
/// when the module has line info.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The finding's classification and payload.
    pub kind: FindingKind,
    /// Guest pc the finding is anchored to.
    pub addr: u64,
    /// `file:line` from the module's line table, if present.
    pub loc: Option<String>,
}

impl Finding {
    fn describe(&self) -> String {
        match &self.kind {
            FindingKind::UnreachableFunction { name } => {
                format!("function `{name}` is unreachable from the entry point")
            }
            FindingKind::EscapingStackSlot { func, offset } => {
                format!("stack slot fp{offset:+} of `{func}` escapes its frame")
            }
            FindingKind::FrameNotAnalyzable { func } => {
                format!("frame of `{func}` not analyzable; accesses stay instrumented")
            }
            FindingKind::SpMismatchOnReturn { func } => {
                format!("`{func}` returns without restoring the caller's stack pointer")
            }
            FindingKind::WriteToReadOnly { target } => {
                format!("store targets read-only text address {target:#x}")
            }
            FindingKind::LockOrderCycle { locks } => {
                format!("potential deadlock: lock-order cycle {}", locks.join(" -> "))
            }
            FindingKind::DoubleLock { lock } => {
                format!("double lock: {lock} acquired while already held")
            }
            FindingKind::LockLeak { func, lock } => {
                format!("lock leak: `{func}` returns with {lock} held on some path only")
            }
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let loc = self.loc.as_deref().unwrap_or("<no debug info>");
        write!(f, "{loc}: {} (at {:#x})", self.describe(), self.addr)
    }
}

/// Options for [`analyze_with`].
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOpts {
    /// Run the static concurrency pass (locksets, lock-order graph,
    /// guard map). When off, only the memory-classification facts are
    /// produced — lock findings and guarded-site tags are empty, and
    /// every other fact is the same as with the pass on. Taskgrind runs
    /// pass `false` (they read only `safe_pcs`); `tgrind lint` passes
    /// `true`.
    pub concurrency: bool,
}

impl Default for AnalyzeOpts {
    fn default() -> AnalyzeOpts {
        AnalyzeOpts { concurrency: true }
    }
}

/// Which functions a [`StaticFacts`] table's dataflow interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FactsScope {
    /// Every live function of the module ([`analyze_with`]).
    Module,
    /// Every function but the guest runtime's summarized ones, whose
    /// effects came from the runtime summary ([`runsum::analyze_run`]).
    /// The facts answer like the module's on every pc of a function the
    /// run instruments; the other fields cover the interpreted
    /// functions only.
    Run,
}

impl FactsScope {
    /// The name `--metrics-json` prints (`filter.facts_scope`).
    pub fn name(self) -> &'static str {
        match self {
            FactsScope::Module => "module",
            FactsScope::Run => "run",
        }
    }
}

/// The exported verdict table: everything Taskgrind's instrumentation
/// filter and the `lint` subcommand need.
#[derive(Clone, Debug)]
pub struct StaticFacts {
    /// Which functions the dataflow interpreted.
    pub scope: FactsScope,
    /// CFG recovery statistics.
    pub stats: CfgStats,
    /// Guest pcs of loads/stores proven thread-private, read-only or
    /// init-only in every lifted context that contains them.
    pub safe_pcs: BTreeSet<u64>,
    /// Globals classified read-only.
    pub ro: Vec<RoRange>,
    /// Globals written only before the first thread spawn, with their
    /// address never escaping.
    pub init_only: Vec<RoRange>,
    /// All static findings, sorted by pc.
    pub findings: Vec<Finding>,
    /// Distinct access pcs seen (denominator for the filter rate).
    pub access_pcs: usize,
    /// `(access pc, lock bitmask)` for recorded (non-pruned) access
    /// sites provably executed with at least one known lock held,
    /// sorted by pc. Bit `i` of a mask names `lock_universe[i]`.
    pub guarded: Vec<(u64, u64)>,
    /// The lock identities behind the guard-mask bits (at most 64; the
    /// identity is the raw critical id or lock address — the same value
    /// the runtime passes to `CRITICAL_ENTER`).
    pub lock_universe: Vec<u64>,
}

impl StaticFacts {
    /// Serialize for the persistent code cache ([`factsio`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        factsio::facts_to_bytes(self)
    }

    /// Deserialize facts written by [`StaticFacts::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<StaticFacts, grindcore::wire::WireError> {
        factsio::facts_from_bytes(bytes)
    }

    /// May the access at `pc` skip recording? Conservative: unknown pcs
    /// are always recorded, and atomics are never in `safe_pcs`.
    pub fn is_safe_access(&self, pc: u64, _write: bool) -> bool {
        self.safe_pcs.contains(&pc)
    }

    /// Human-readable lint report.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!(
            "cfg: {} functions, {} blocks, {} edges, {} call edges, {} indirect exits\n",
            s.functions, s.blocks, s.edges, s.call_edges, s.indirect_exits
        ));
        let pct = if self.access_pcs > 0 {
            100.0 * self.safe_pcs.len() as f64 / self.access_pcs as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "facts: {}/{} access sites provably thread-private or read-only ({pct:.1}%)\n",
            self.safe_pcs.len(),
            self.access_pcs
        ));
        if self.ro.is_empty() {
            out.push_str("read-only globals: none\n");
        } else {
            let names: Vec<&str> = self.ro.iter().map(|r| r.name.as_str()).collect();
            out.push_str(&format!("read-only globals: {}\n", names.join(", ")));
        }
        if self.init_only.is_empty() {
            out.push_str("init-only globals: none\n");
        } else {
            let names: Vec<&str> = self.init_only.iter().map(|r| r.name.as_str()).collect();
            out.push_str(&format!("init-only globals: {}\n", names.join(", ")));
        }
        out.push_str(&format!(
            "locks: {} distinct, {} guarded access sites\n",
            self.lock_universe.len(),
            self.guarded.len()
        ));
        out.push_str(&format!("findings: {}\n", self.findings.len()));
        for f in &self.findings {
            out.push_str(&format!("  {f}\n"));
        }
        out
    }
}

/// Human-readable name of a lock identity: a critical-section id, a
/// data symbol (for `omp_lock_t` objects), or a raw address.
fn fmt_lock(module: &Module, id: u64) -> String {
    if let Some(s) = module
        .symbols
        .iter()
        .filter(|s| s.kind == SymKind::Data)
        .find(|s| id >= s.addr && id < s.addr + s.size.max(1))
    {
        if id == s.addr {
            format!("lock `{}`", s.name)
        } else {
            format!("lock `{}`+{}", s.name, id - s.addr)
        }
    } else if id < 0x1_0000 {
        format!("critical section #{id}")
    } else {
        format!("lock {id:#x}")
    }
}

/// Run the full static pipeline: CFG recovery, interprocedural
/// dataflow, locksets, findings.
pub fn analyze_with(module: &Module, opts: &AnalyzeOpts) -> StaticFacts {
    let cfg = cfg::recover(module);
    let df = dataflow::run(module, &cfg);
    facts_of(module, &cfg, df, opts, FactsScope::Module)
}

/// The verdict table of one dataflow run over `cfg`: its findings, and
/// the concurrency pass's when `opts` asks for it.
fn facts_of(
    module: &Module,
    cfg: &Cfg,
    df: dataflow::Dataflow,
    opts: &AnalyzeOpts,
    scope: FactsScope,
) -> StaticFacts {
    let loc = |addr: u64| module.line_for(addr).map(|l| l.to_string());
    let mut findings = Vec::new();
    for &i in &cfg.unreachable {
        let f = &cfg.funcs[i];
        findings.push(Finding {
            kind: FindingKind::UnreachableFunction { name: f.name.clone() },
            addr: f.lo,
            loc: loc(f.lo),
        });
    }
    for (i, facts) in df.fn_facts.iter().enumerate() {
        let fname = &cfg.funcs[i].name;
        for &(offset, pc) in &facts.escape_sites {
            // Non-negative offsets are the saved fp/ra slots and the
            // caller's frame — conservatively escaped in almost every
            // function, so reporting them is pure noise. They stay in
            // the escape set (accesses remain instrumented); only named
            // locals (negative fp offsets) become findings.
            if offset >= 0 {
                continue;
            }
            findings.push(Finding {
                kind: FindingKind::EscapingStackSlot { func: fname.clone(), offset },
                addr: pc,
                loc: loc(pc),
            });
        }
        if facts.poisoned {
            findings.push(Finding {
                kind: FindingKind::FrameNotAnalyzable { func: fname.clone() },
                addr: cfg.funcs[i].lo,
                loc: loc(cfg.funcs[i].lo),
            });
        }
        for &pc in &facts.ret_mismatches {
            findings.push(Finding {
                kind: FindingKind::SpMismatchOnReturn { func: fname.clone() },
                addr: pc,
                loc: loc(pc),
            });
        }
    }
    for &(pc, target) in &df.code_writes {
        findings.push(Finding {
            kind: FindingKind::WriteToReadOnly { target },
            addr: pc,
            loc: loc(pc),
        });
    }

    let mut guarded: Vec<(u64, u64)> = Vec::new();
    let mut lock_universe: Vec<u64> = Vec::new();
    if opts.concurrency {
        let cg = summaries::call_graph(cfg);
        let lf = lockset::analyze(cfg, &cg, &df.call_args);
        lock_universe = lf.universe.iter().copied().take(64).collect();
        let bit_of = |l: u64| lock_universe.iter().position(|&u| u == l);
        for (start, end, held) in &lf.held_ranges {
            let mask = held.iter().filter_map(|&l| bit_of(l)).fold(0u64, |m, b| m | (1u64 << b));
            if mask == 0 {
                continue;
            }
            let lo = df.all_access_pcs.partition_point(|&pc| pc < *start);
            let hi = df.all_access_pcs.partition_point(|&pc| pc < *end);
            for &pc in &df.all_access_pcs[lo..hi] {
                if !df.safe_pcs.contains(&pc) {
                    guarded.push((pc, mask));
                }
            }
        }
        guarded.sort_unstable();
        // A pc seen under several blocks keeps only commonly held locks.
        guarded.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 &= next.1;
                true
            } else {
                false
            }
        });
        guarded.retain(|&(_, m)| m != 0);

        for d in &lf.double_locks {
            findings.push(Finding {
                kind: FindingKind::DoubleLock { lock: fmt_lock(module, d.lock) },
                addr: d.pc,
                loc: loc(d.pc),
            });
        }
        for l in &lf.lock_leaks {
            findings.push(Finding {
                kind: FindingKind::LockLeak {
                    func: l.func.clone(),
                    lock: fmt_lock(module, l.lock),
                },
                addr: l.pc,
                loc: loc(l.pc),
            });
        }
        let graph = lockorder::OrderGraph::build(&lf.order_edges);
        for c in graph.cycles() {
            let names = c.locks.iter().map(|&l| fmt_lock(module, l)).collect();
            let addr = c.pcs.first().copied().unwrap_or(0);
            findings.push(Finding {
                kind: FindingKind::LockOrderCycle { locks: names },
                addr,
                loc: loc(addr),
            });
        }
    }
    findings.sort_by_key(|f| f.addr);

    StaticFacts {
        scope,
        stats: cfg.stats,
        safe_pcs: df.safe_pcs,
        ro: df.ro,
        init_only: df.init_only,
        findings,
        access_pcs: df.access_pcs,
        guarded,
        lock_universe,
    }
}

/// Run the full static pipeline with default options (concurrency pass
/// included), as `tgrind lint` does.
pub fn analyze(module: &Module) -> StaticFacts {
    analyze_with(module, &AnalyzeOpts::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tga::module::{SymKind, Symbol, CODE_BASE};
    use tga::INST_SIZE;

    /// A program with one escaping local (`leaked`, captured by
    /// `taker`), one passed to a callee that only writes through the
    /// pointer (`local` — must *not* escape thanks to the summary
    /// pass), and one that never leaves the frame at all (`kept`).
    /// `writer` returns a value on purpose: a void minicc function
    /// leaves `a0` untouched, so the incoming pointer would still sit
    /// in `a0` at `ret` and the summary pass conservatively treats a
    /// parameter residing in `a0` at return as escaping.
    const SAMPLE: &str = r#"
long *sink_p;
void taker(long *p) { sink_p = p; *p = 1; }
long writer(long *p) { *p = 2; return 0; }
long sample() {
  long kept = 7;
  long leaked = 0;
  long local = 0;
  taker(&leaked);
  writer(&local);
  kept = kept + 2;
  return kept + leaked + local;
}
int main() { return sample(); }
"#;

    fn sample_module() -> Module {
        guest_rt::build_single("sample.c", SAMPLE).expect("sample compiles")
    }

    #[test]
    fn function_boundaries_match_symbol_table() {
        let m = sample_module();
        let c = cfg::recover(&m);
        for sym in m.symbols.iter().filter(|s| s.kind == SymKind::Func) {
            let f = c
                .funcs
                .iter()
                .find(|f| f.name == sym.name)
                .unwrap_or_else(|| panic!("no cfg function for symbol {}", sym.name));
            assert_eq!(f.lo, sym.addr, "{} starts at its symbol", sym.name);
            assert!(f.blocks.contains_key(&f.lo), "{} has an entry block", sym.name);
            for b in f.blocks.values() {
                assert!(b.start >= f.lo && b.end <= f.hi, "{} block in range", sym.name);
            }
        }
        assert!(c.stats.functions >= 3, "program + runtime functions recovered");
    }

    #[test]
    fn successor_edges_are_consistent() {
        let m = sample_module();
        let c = cfg::recover(&m);
        let mut edges = 0;
        for f in &c.funcs {
            for b in f.blocks.values() {
                for &s in &b.succs {
                    assert!(
                        f.blocks.contains_key(&s),
                        "successor {s:#x} of block {:#x} in `{}` is a block leader",
                        b.start,
                        f.name
                    );
                    edges += 1;
                }
                for &t in &b.calls {
                    assert!(
                        c.func_at(t).is_some() || !m.is_code_addr(t),
                        "call target {t:#x} from `{}` resolves to a function",
                        f.name
                    );
                }
            }
        }
        assert!(edges > 0, "some intra-procedural edges exist");
        assert_eq!(edges, c.stats.edges);
    }

    /// Line number (1-based) of the first SAMPLE line containing `pat`.
    fn sample_line(pat: &str) -> u32 {
        SAMPLE
            .lines()
            .position(|l| l.contains(pat))
            .map(|i| i as u32 + 1)
            .expect("pattern present in SAMPLE")
    }

    #[test]
    fn escape_analysis_is_conservative_but_not_vacuous() {
        let m = sample_module();
        let facts = analyze(&m);

        // `leaked` escapes: `taker` stores the pointer into a global.
        let escape = facts
            .findings
            .iter()
            .find(|f| {
                matches!(&f.kind, FindingKind::EscapingStackSlot { func, .. } if func == "sample")
            })
            .expect("escaping local in `sample` is found");
        assert!(escape.loc.is_some(), "escape finding has a file:line");

        // `kept` never leaves the frame: at least one access on its
        // assignment line is proven thread-private.
        let kept_line = sample_line("kept = kept + 2");
        let sym = m.symbol_by_name("sample").expect("sample symbol").clone();
        let mut kept_pcs = Vec::new();
        let mut pc = sym.addr;
        while pc < sym.addr + sym.size {
            if let Some(l) = m.line_for(pc) {
                if l.line == kept_line {
                    kept_pcs.push(pc);
                }
            }
            pc += INST_SIZE;
        }
        assert!(!kept_pcs.is_empty(), "kept's line has instructions");
        assert!(
            kept_pcs.iter().any(|pc| facts.safe_pcs.contains(pc)),
            "an access to the non-escaping local is proven private"
        );
        // Direct accesses to the escaped slot stay instrumented: no pc
        // on `leaked`'s initialising store line is marked safe (the
        // line's only access is the store into the escaping slot).
        let leaked_line = sample_line("long leaked = 0");
        let mut pc = sym.addr;
        while pc < sym.addr + sym.size {
            if let (Some(l), true) = (m.line_for(pc), facts.safe_pcs.contains(&pc)) {
                assert_ne!(l.line, leaked_line, "no access to the escaping local is marked safe");
            }
            pc += INST_SIZE;
        }
    }

    /// The interprocedural summary pass must keep `&local` passed to a
    /// write-only callee from escaping: no escape finding lands on the
    /// `writer(&local)` call line.
    #[test]
    fn pointer_to_non_capturing_callee_does_not_escape() {
        let m = sample_module();
        let facts = analyze(&m);
        let call_line = sample_line("writer(&local)");
        for f in &facts.findings {
            if let FindingKind::EscapingStackSlot { func, .. } = &f.kind {
                if func == "sample" {
                    if let Some(l) = m.line_for(f.addr) {
                        assert_ne!(
                            l.line, call_line,
                            "passing &local to a non-capturing callee must not escape it: {f}"
                        );
                    }
                }
            }
        }
        // And exactly one local of `sample` escapes (`leaked`).
        let escapes = facts
            .findings
            .iter()
            .filter(|f| {
                matches!(&f.kind, FindingKind::EscapingStackSlot { func, .. } if func == "sample")
            })
            .count();
        assert_eq!(escapes, 1, "only `leaked` escapes `sample`:\n{}", facts.render());
    }

    /// Hand-written assembly: a store into the text section must be
    /// flagged, a read of a never-written global classified read-only.
    #[test]
    fn code_writes_flagged_and_ro_global_classified() {
        let data_base = 0x20_0000u64;
        let src = format!(
            "main:\n\
             addi sp, sp, -16\n\
             st ra, 8(sp)\n\
             st fp, 0(sp)\n\
             add fp, sp, zero\n\
             li t0, {code:#x}\n\
             li t1, 1\n\
             st t1, 0(t0)\n\
             li t2, {data:#x}\n\
             ld t3, 0(t2)\n\
             add sp, fp, zero\n\
             ld fp, 0(sp)\n\
             ld ra, 8(sp)\n\
             addi sp, sp, 16\n\
             jalr zero, ra, 0\n",
            code = CODE_BASE,
            data = data_base,
        );
        let (code, _) = tga::asm::assemble(&src, CODE_BASE).unwrap();
        let n = code.len() as u64;
        let mut m = Module::new();
        m.code = code;
        m.entry = CODE_BASE;
        m.data_base = data_base;
        m.data = vec![0u8; 8];
        m.symbols.push(Symbol {
            name: "main".into(),
            addr: CODE_BASE,
            size: n * INST_SIZE,
            kind: SymKind::Func,
        });
        m.symbols.push(Symbol {
            name: "ro_word".into(),
            addr: data_base,
            size: 8,
            kind: SymKind::Data,
        });

        let facts = analyze(&m);
        assert!(
            facts.findings.iter().any(|f| matches!(f.kind, FindingKind::WriteToReadOnly { target }
                    if target == CODE_BASE)),
            "store into the text section is flagged: {:?}",
            facts.findings
        );
        assert!(
            facts.ro.iter().any(|r| r.name == "ro_word"),
            "never-written global is read-only: {:?}",
            facts.ro
        );
        // The load of the read-only word is provably safe; the wild
        // store is not.
        let ld_pc = CODE_BASE + 8 * INST_SIZE;
        let wild_st_pc = CODE_BASE + 6 * INST_SIZE;
        assert!(facts.is_safe_access(ld_pc, false), "ro load may skip recording");
        assert!(!facts.is_safe_access(wild_st_pc, true), "wild store stays recorded");
        // Prologue link saves and the frame never escape here.
        let save_ra_pc = CODE_BASE + INST_SIZE;
        assert!(facts.is_safe_access(save_ra_pc, true), "link save is thread-private");
    }

    /// A global written only before any thread exists is init-only and
    /// its accesses are safe; the same global written from a spawned
    /// worker's reachable code is not.
    #[test]
    fn init_only_global_classification() {
        const PRE: &str = r#"
long n_items;
long shared;
int main() {
  n_items = 42;
  #pragma omp parallel
  {
    shared = n_items + 1;
  }
  return (int) shared;
}
"#;
        let m = guest_rt::build_single("init_only.c", PRE).expect("compiles");
        let facts = analyze(&m);
        assert!(
            facts.init_only.iter().any(|r| r.name == "n_items"),
            "pre-spawn-written global is init-only: {}",
            facts.render()
        );
        assert!(
            !facts.init_only.iter().any(|r| r.name == "shared"),
            "global written inside the parallel region must stay instrumented"
        );
        assert!(!facts.ro.iter().any(|r| r.name == "n_items"), "written global is not read-only");
    }

    /// A function nothing calls or takes the address of is named once,
    /// as unreachable, and not analyzed: its escaping local is no
    /// finding, and a global only it writes is read-only.
    #[test]
    fn dead_function_is_only_named_unreachable() {
        const DEAD: &str = r#"
long *sink_p;
long counter;
void unused() {
  long local = 0;
  sink_p = &local;
  counter = 1;
}
int main() { return (int) counter; }
"#;
        let m = guest_rt::build_single("dead.c", DEAD).expect("compiles");
        let facts = analyze(&m);
        let about_unused: Vec<&Finding> = facts
            .findings
            .iter()
            .filter(|f| match &f.kind {
                FindingKind::UnreachableFunction { name } => name == "unused",
                FindingKind::EscapingStackSlot { func, .. }
                | FindingKind::FrameNotAnalyzable { func }
                | FindingKind::SpMismatchOnReturn { func } => func == "unused",
                _ => false,
            })
            .collect();
        assert_eq!(about_unused.len(), 1, "{}", facts.render());
        assert!(matches!(about_unused[0].kind, FindingKind::UnreachableFunction { .. }));
        assert!(
            facts.ro.iter().any(|r| r.name == "counter"),
            "a global written only by dead code is read-only: {}",
            facts.render()
        );
        let sym = m.symbol_by_name("unused").expect("unused symbol");
        assert!(
            !facts.safe_pcs.iter().any(|&pc| pc >= sym.addr && pc < sym.addr + sym.size),
            "no site of a dead function is classified"
        );
    }

    /// Lock findings: a nested re-acquire of the same critical section
    /// is a double lock, and opposite nesting orders of two criticals
    /// form a lock-order cycle.
    #[test]
    fn lock_findings_on_seeded_program() {
        const DEADLOCKY: &str = r#"
long x;
void ab() {
  #pragma omp critical(a)
  {
    #pragma omp critical(b)
    { x = x + 1; }
  }
}
void ba() {
  #pragma omp critical(b)
  {
    #pragma omp critical(a)
    { x = x + 2; }
  }
}
int main() {
  #pragma omp parallel
  {
    ab();
    ba();
  }
  return 0;
}
"#;
        let m = guest_rt::build_single("deadlocky.c", DEADLOCKY).expect("compiles");
        let facts = analyze(&m);
        assert!(
            facts.findings.iter().any(
                |f| matches!(&f.kind, FindingKind::LockOrderCycle { locks } if locks.len() == 2)
            ),
            "opposite critical nesting is a lock-order cycle:\n{}",
            facts.render()
        );
        // The guarded increments inside the criticals are tagged.
        assert!(!facts.lock_universe.is_empty(), "locks discovered");
        assert!(!facts.guarded.is_empty(), "guarded access sites tagged");
        // The toggle removes every concurrency fact but nothing else.
        let off = analyze_with(&m, &AnalyzeOpts { concurrency: false });
        assert!(off.guarded.is_empty() && off.lock_universe.is_empty());
        assert!(!off.findings.iter().any(|f| matches!(f.kind, FindingKind::LockOrderCycle { .. })));
        assert_eq!(off.safe_pcs, facts.safe_pcs, "memory facts unaffected by the toggle");
        assert_eq!(off.access_pcs, facts.access_pcs);
    }
}
