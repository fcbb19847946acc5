//! One-pass fusion against the fixpoint it replaced.
//!
//! `flat::compile` counts temp reads once and fuses in one left-to-right
//! pass; `flat::compile_fixpoint` keeps the old fusion, which recounted
//! and re-scanned until a pass changed nothing. DESIGN §7 argues the two
//! agree; this test checks it on every translation of the benchmark's
//! guests. Compiled blocks live in the on-disk code cache under a
//! format version that did not change with the new fusion, so a block
//! the one-pass compile builds must be byte-identical to the one the
//! fixpoint built.
//!
//! The guests are every Table I and extra-corpus program, the BOTS
//! kernels and mini-LULESH. Each block is taken under the three
//! instrumentations the benchmark translates with: Taskgrind's filtered
//! one, the confirm replay's `instrument_mem_accesses`, and none. The
//! blocks are every start the static CFG recovers, the continuation of
//! every block the lifter's instruction cap split, and every block a
//! small Taskgrind run of the guest translated (which the static set
//! must already hold).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use grindcore::flat::{compile, compile_fixpoint, FlatBlock};
use grindcore::flatio::flat_to_bytes;
use grindcore::lift::{lift_superblock, MAX_BLOCK_INSTS};
use grindcore::tool::instrument_mem_accesses;
use grindcore::{BlockMeta, CachedTranslation, CodeCache, CodeCacheHandle, CodeCacheStats, Tool};
use taskgrind::tool::{RecordOptions, TaskgrindTool};
use taskgrind::{check_module, TaskgrindConfig};
use tga::module::{FuncTable, Module};
use vex_ir::{Atom, JumpKind};

/// A code cache that serves nothing and remembers the pc of every block
/// the VM hands it, i.e. every cold translation of the run.
#[derive(Default)]
struct Recorder {
    pcs: Vec<u64>,
}

impl CodeCache for Recorder {
    fn load(&mut self, _pc: u64) -> Option<CachedTranslation> {
        None
    }

    fn store(&mut self, pc: u64, _end: u64, _flat: &FlatBlock) {
        self.pcs.push(pc);
    }

    fn invalidate_range(&mut self, _lo: u64, _hi: u64) {}

    fn stats(&self) -> CodeCacheStats {
        CodeCacheStats::default()
    }
}

/// Every guest the benchmark runs, with a small configuration to run it
/// in: (name, source, argv, guest threads).
fn guests() -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let mut v: Vec<_> = tg_drb::corpus().into_iter().map(|p| (p.name, p.source, "", 4)).collect();
    v.extend(tg_drb::extra_corpus().into_iter().map(|p| (p.name, p.source, "", 4)));
    v.push(("fib.c", tg_drb::bots::FIB_MC, "10", 2));
    v.push(("nqueens.c", tg_drb::bots::NQUEENS_MC, "5", 2));
    v.push(("sparselu.c", tg_drb::bots::SPARSELU_MC, "-nb 4 -racy", 2));
    v.push(("lulesh.c", tg_lulesh::LULESH_MC, "-s 4 -tel 2 -tnl 2 -i 1", 1));
    v
}

/// Every static block start of `m`, closed under the continuation of
/// blocks the instruction cap split.
fn static_block_pcs(m: &Module) -> BTreeSet<u64> {
    let mut pcs: BTreeSet<u64> = tga_analysis::cfg::block_starts(m).into_iter().collect();
    let mut todo: Vec<u64> = pcs.iter().copied().collect();
    while let Some(pc) = todo.pop() {
        let Ok(b) = lift_superblock(m, pc) else { continue };
        if let (JumpKind::Boring, Atom::Const(next)) = (b.jumpkind, b.next) {
            if b.guest_instrs() == MAX_BLOCK_INSTS && pcs.insert(next) {
                todo.push(next);
            }
        }
    }
    pcs
}

/// The pcs a Taskgrind run of the guest translates.
fn run_pcs(m: &Module, record: &RecordOptions, args: &str, nthreads: u64) -> Vec<u64> {
    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads, ..Default::default() },
        record: record.clone(),
        code_cache: Some(CodeCacheHandle::new(recorder.clone())),
        ..Default::default()
    };
    let args: Vec<&str> = args.split_whitespace().collect();
    let run = check_module(m, &args, &cfg);
    assert!(run.run.error.is_none(), "{:?}", run.run.error);
    let pcs = std::mem::take(&mut recorder.borrow_mut().pcs);
    pcs
}

#[test]
fn one_pass_fusion_matches_the_fixpoint_on_every_benchmark_block() {
    // Every statement but an `IMark` lowers to one op before fusion.
    let (mut blocks, mut fused_away) = (0usize, 0usize);
    for (name, source, args, nthreads) in guests() {
        let m = guest_rt::build_single(name, source).expect("benchmark guests compile");
        let facts = tga_analysis::analyze_with(&m, &taskgrind::RUN_ANALYZE_OPTS);
        let record = RecordOptions { static_facts: Some(Arc::new(facts)), ..Default::default() };
        let pcs = static_block_pcs(&m);
        for pc in run_pcs(&m, &record, args, nthreads) {
            assert!(pcs.contains(&pc), "{name}: the run translated {pc:#x}, no static block start");
        }

        let funcs = FuncTable::new(&m);
        let mut taskgrind = TaskgrindTool::new(record);
        for &pc in &pcs {
            let Ok(lifted) = lift_superblock(&m, pc) else { continue };
            let meta =
                BlockMeta { base: pc, fn_symbol: funcs.find(&m, pc).map(|s| s.name.clone()) };
            let instrumented = [
                ("taskgrind", taskgrind.instrument(lifted.clone(), &meta)),
                ("all accesses", instrument_mem_accesses(lifted.clone())),
                ("none", lifted),
            ];
            for (how, ir) in instrumented {
                let (got, want) = (compile(&ir), compile_fixpoint(&ir));
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{name} at {pc:#x}, instrumentation {how}: the fused blocks differ"
                );
                assert_eq!(
                    flat_to_bytes(&got),
                    flat_to_bytes(&want),
                    "{name} at {pc:#x}, instrumentation {how}: the encodings differ"
                );
                blocks += 1;
                fused_away += ir.stmts.len() - ir.guest_instrs() - got.ops.len();
            }
        }
    }
    eprintln!("{blocks} blocks compiled both ways, {fused_away} ops fused away");
    assert!(blocks > 50_000, "only {blocks} blocks compared");
    assert!(fused_away > blocks, "fusion barely ran: {fused_away} ops over {blocks} blocks");
}
