//! Differential tests for superblock chaining and the bounded
//! translation cache: the dispatch optimizations must be *invisible* to
//! the guest. Chaining on, chaining off, and a pathologically tiny
//! cache must produce bit-identical architectural state, identical
//! tool-event streams, identical schedules, and identical Table I and
//! mini-LULESH race/deadlock verdicts — the contract that lets the
//! Table II overhead numbers be compared against the unoptimized
//! dispatcher.
//!
//! This suite owns dispatcher equivalence: every shipping run chains,
//! and the tree-walk reference engine (`VmConfig::chaining = false`)
//! exists only as the oracle these tests compare against. The other
//! differential suites run the chained engine only.

use grindcore::tool::{instrument_mem_accesses, BlockMeta, Tool};
use grindcore::{ExecMode, RunResult, SyncKind, Tid, Vm, VmConfig, VmCore};
use std::cell::Cell;
use std::rc::Rc;
use taskgrind::{check_module, TaskgrindConfig};
use tg_drb::corpus::{corpus, Suite};
use tg_lulesh::harness::LuleshParams;
use tg_lulesh::LULESH_MC;
use vex_ir::IrBlock;

/// FNV-1a fold, same shape as the VM's scheduler digest.
fn fold(digest: u64, v: u64) -> u64 {
    let mut d = if digest == 0 { 0xcbf2_9ce4_8422_2325 } else { digest };
    for b in v.to_le_bytes() {
        d = (d ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    d
}

/// A tool that digests every memory-access callback, client request and
/// sync point in order: two runs with equal digests saw the same
/// accesses by the same threads at the same pcs, and the same runtime
/// events with the same arguments, in the same order.
struct StreamHashTool {
    digest: Rc<Cell<u64>>,
}

impl StreamHashTool {
    fn fold_all(&self, values: impl IntoIterator<Item = u64>) {
        let mut d = self.digest.get();
        for v in values {
            d = fold(d, v);
        }
        self.digest.set(d);
    }
}

impl Tool for StreamHashTool {
    fn name(&self) -> &'static str {
        "streamhash"
    }

    fn instrument(&mut self, block: IrBlock, _meta: &BlockMeta) -> IrBlock {
        instrument_mem_accesses(block)
    }

    fn mem_access(
        &mut self,
        _core: &mut VmCore,
        tid: Tid,
        addr: u64,
        size: u64,
        write: bool,
        pc: u64,
    ) {
        self.fold_all([tid as u64, addr, size, write as u64, pc]);
    }

    fn client_request(&mut self, _core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        self.fold_all([tid as u64, code].into_iter().chain(args));
        0
    }

    fn sync_point(&mut self, _core: &mut VmCore, tid: Tid, kind: SyncKind, seq: u64) {
        self.fold_all([tid as u64, kind as u64, seq]);
    }
}

/// Run a module under the stream-hash tool; returns the run outcome,
/// the access-stream digest, and a digest of the final architectural
/// state (registers + pc + status of every thread).
fn stream_run(m: &tga::module::Module, cfg: VmConfig) -> (RunResult, u64, u64) {
    let digest = Rc::new(Cell::new(0u64));
    let tool = StreamHashTool { digest: digest.clone() };
    let mut vm = Vm::new(m.clone(), Box::new(tool), cfg);
    let r = vm.run(ExecMode::Dbi, &[]);
    let mut arch = 0u64;
    for t in &vm.core.threads {
        arch = fold(arch, t.pc);
        arch = fold(arch, matches!(t.status, grindcore::ThreadStatus::Exited) as u64);
        for &reg in &t.regs {
            arch = fold(arch, reg);
        }
    }
    (r, digest.get(), arch)
}

fn cfg(nthreads: u64, chaining: bool, cache_blocks: usize) -> VmConfig {
    VmConfig { nthreads, chaining, cache_blocks, ..Default::default() }
}

/// Chaining and tiny-cache eviction churn must not change a single
/// architectural or observable bit across the whole Table I corpus.
#[test]
fn chaining_is_invisible_to_the_guest() {
    let mut total_chain_hits = 0u64;
    let mut total_evictions = 0u64;
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue;
        };
        let nt = match p.suite {
            Suite::Drb => 4,
            Suite::Tmb => 4,
        };
        let (on, acc_on, arch_on) = stream_run(&m, cfg(nt, true, 4096));
        let (off, acc_off, arch_off) = stream_run(&m, cfg(nt, false, 4096));
        let (tiny, acc_tiny, arch_tiny) = stream_run(&m, cfg(nt, true, 8));

        for (label, other, acc, arch) in
            [("reference", &off, acc_off, arch_off), ("tiny-cache", &tiny, acc_tiny, arch_tiny)]
        {
            assert_eq!(on.exit_code, other.exit_code, "{}: exit code vs {label}", p.name);
            assert_eq!(on.stdout, other.stdout, "{}: stdout vs {label}", p.name);
            assert_eq!(on.deadlock, other.deadlock, "{}: deadlock vs {label}", p.name);
            assert_eq!(
                on.metrics.instrs, other.metrics.instrs,
                "{}: instruction count vs {label}",
                p.name
            );
            assert_eq!(
                on.metrics.blocks, other.metrics.blocks,
                "{}: block count vs {label}",
                p.name
            );
            assert_eq!(acc_on, acc, "{}: access stream diverged vs {label}", p.name);
            assert_eq!(arch_on, arch, "{}: architectural state diverged vs {label}", p.name);
        }
        // Same scheduler decisions chaining on/off (the tiny cache also
        // may not disturb the schedule).
        assert_eq!(on.metrics.sched_digest, off.metrics.sched_digest, "{}: schedule", p.name);
        assert_eq!(on.metrics.sched_digest, tiny.metrics.sched_digest, "{}: schedule", p.name);

        assert_eq!(off.metrics.dispatch.chain_hits, 0, "{}: the reference must not chain", p.name);
        total_chain_hits += on.metrics.dispatch.chain_hits;
        total_evictions += tiny.metrics.dispatch.evictions;
    }
    assert!(total_chain_hits > 0, "chaining must actually serve dispatches somewhere");
    assert!(total_evictions > 0, "the tiny cache must actually evict somewhere");
}

/// Run `m` under the full Taskgrind tool with chaining on and off and
/// require every verdict-bearing output to match bit for bit.
fn assert_chaining_preserves_verdicts(m: &tga::module::Module, args: &[&str], nt: u64, name: &str) {
    let run = |chaining: bool| {
        let cfg = TaskgrindConfig {
            vm: VmConfig { nthreads: nt, chaining, ..Default::default() },
            ..Default::default()
        };
        check_module(m, args, &cfg)
    };
    let on = run(true);
    let off = run(false);
    let ctx = format!("{name} ({nt} threads)");
    assert_eq!(
        on.run.deadlock, off.run.deadlock,
        "{ctx}: deadlock outcome changed by chaining off"
    );
    assert_eq!(
        on.n_reports(),
        off.n_reports(),
        "{ctx}: race verdict changed by chaining off\non:\n{}\noff:\n{}",
        on.render_all(),
        off.render_all()
    );
    assert_eq!(on.render_all(), off.render_all(), "{ctx}: report text changed by chaining off");
    assert_eq!(on.analysis.candidates, off.analysis.candidates, "{ctx}: candidates");
    assert_eq!(on.analysis.raw_ranges, off.analysis.raw_ranges, "{ctx}: raw ranges");
    assert_eq!(
        on.accesses_recorded, off.accesses_recorded,
        "{ctx}: recorded access count changed by chaining off"
    );
    assert_eq!(
        on.run.metrics.sched_digest, off.run.metrics.sched_digest,
        "{ctx}: schedule changed by chaining off"
    );
}

/// The end-to-end contract: the reference dispatcher yields the same
/// Table I race/deadlock verdicts under the full Taskgrind tool, and
/// the same mini-LULESH output.
#[test]
fn chaining_preserves_table1_verdicts() {
    for p in corpus() {
        let Ok(m) = guest_rt::build_single(p.name, p.source) else {
            continue; // ncs entries stay ncs either way
        };
        let threads: &[u64] = match p.suite {
            Suite::Drb => &[4],
            Suite::Tmb => &[1, 4],
        };
        for &nt in threads {
            assert_chaining_preserves_verdicts(&m, &[], nt, p.name);
        }
    }
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let params =
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 2 };
    let args: Vec<String> = params.args();
    let args: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    assert_chaining_preserves_verdicts(&m, &args, params.threads, "lulesh");
}
