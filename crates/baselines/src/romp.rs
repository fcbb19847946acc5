//! ROMP analog (Gu & Mellor-Crummey, SC'18): dynamic race detection for
//! OpenMP programs over static *binary* instrumentation.
//!
//! Like Taskgrind, ROMP instruments binaries (it rewrites them with
//! Dyninst; we run the same full-coverage instrumentation through the
//! DBI substrate) and reasons about task concurrency. The paper's
//! Table I weaknesses reproduced here:
//!
//! * **OpenMP-only**: dependences are matched globally by address, not
//!   scoped to sibling tasks — creating phantom orderings for
//!   non-sibling dependences (FN on DRB173);
//! * **no mutexinoutset exclusion** (FP on DRB135);
//! * **undeferred/included tasks not modelled** (FP on DRB122);
//! * **no detach**: `TASK_FULFILL` is dropped before the shared
//!   segment-graph builder sees it, so a fulfilled completion event
//!   orders nothing (FP on `x003-detach-fulfilled` at 4 threads);
//! * **ignores `tg_set_deferrable`** (the §V-B annotation): tasks the
//!   runtime serializes on one thread stay ordered (FN on TMB 1001 and
//!   1004 at 1 thread);
//! * **poor error reports**: raw addresses only (Listing 5), no debug
//!   information;
//! * **fragile thread-local handling**: a threadprivate write from an
//!   explicit task crashes the instrumented run (`segv` on DRB127,
//!   "instrumented execution was incomplete due to a run-time error").

use crate::BaselineRun;
use grindcore::creq;
use grindcore::tool::{instrument_mem_accesses, pattern_matches, BlockMeta, Tool};
use grindcore::{AddrClass, ExecMode, Tid, Vm, VmConfig, VmCore};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use taskgrind::analysis::{self, SuppressOptions};
use taskgrind::graph::{GraphBuilder, ThreadMeta};
use taskgrind::reach::Reachability;
use taskgrind::tool::default_ignore_list;
use tga::module::Module;
use vex_ir::IrBlock;

struct RompState {
    builder: GraphBuilder,
    ignore: Vec<String>,
    /// Set when the emulated instrumentation crashes.
    segv: bool,
}

#[derive(Clone)]
pub struct RompTool {
    state: Rc<RefCell<RompState>>,
}

impl RompTool {
    pub fn new() -> RompTool {
        let mut builder = GraphBuilder::new();
        builder.set_ignore_undeferred(true); // if(0) ordering not modelled
        builder.set_global_dep_scope(true); // deps matched by address only
        RompTool {
            state: Rc::new(RefCell::new(RompState {
                builder,
                ignore: default_ignore_list(),
                segv: false,
            })),
        }
    }
}

impl Default for RompTool {
    fn default() -> Self {
        Self::new()
    }
}

impl Tool for RompTool {
    fn name(&self) -> &'static str {
        "romp"
    }

    fn instrument(&mut self, block: IrBlock, meta: &BlockMeta) -> IrBlock {
        let st = self.state.borrow();
        let skip = meta.fn_symbol.is_some_and(|n| st.ignore.iter().any(|p| pattern_matches(p, n)));
        drop(st);
        if skip {
            block
        } else {
            instrument_mem_accesses(block)
        }
    }

    fn mem_access(
        &mut self,
        core: &mut VmCore,
        tid: Tid,
        addr: u64,
        size: u64,
        write: bool,
        _pc: u64,
    ) {
        let mut st = self.state.borrow_mut();
        if st.segv {
            return; // crashed: the run is incomplete
        }
        // ROMP's shadow indexing mishandles OpenMP threadprivate storage
        // (plain C11 thread-locals are fine): a threadprivate write from
        // inside an explicit task corrupts its access history and kills
        // the run.
        if write
            && matches!(core.classify_addr(addr), AddrClass::Tls(t) if {
                let off = addr - core.threads[t].tls_base;
                core.module.symbols.iter().any(|s| {
                    s.kind == tga::module::SymKind::Tls
                        && s.name.starts_with("__omp_tp$")
                        && off >= s.addr
                        && off < s.addr + s.size
                })
            })
            && st.builder.current_task_explicit(tid)
        {
            st.segv = true;
            return;
        }
        let meta = ThreadMeta::of(core, tid);
        st.builder.record_access(&meta, addr, size, write);
    }

    fn client_request(&mut self, core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        // no detach: a fulfilled event orders nothing (`USER_DEFERRABLE`,
        // which the builder never applies, is ignored too)
        if code == creq::TASK_FULFILL {
            return 0;
        }
        let meta = ThreadMeta::of(core, tid);
        self.state.borrow_mut().builder.client_request(&meta, code, args)
    }

    fn tool_bytes(&self) -> u64 {
        // ROMP keeps a per-address access history rather than compact
        // interval trees: charge per recorded access, which is what made
        // it reach 75 GB on LULESH -s 64 in the paper.
        let st = self.state.borrow();
        st.builder.segments.iter().map(|s| (s.reads.accesses() + s.writes.accesses()) * 48).sum()
    }
}

/// Run a module under the ROMP analysis (DBI mode).
pub fn run_romp(module: &Module, args: &[&str], vm_cfg: &VmConfig) -> BaselineRun {
    let tool = RompTool::new();
    let state = tool.state.clone();
    let mut vm = Vm::new(module.clone(), Box::new(tool), vm_cfg.clone());
    let t0 = Instant::now();
    let run = vm.run(ExecMode::Dbi, args);
    let tool_bytes = run.metrics.tool_bytes;
    drop(vm);

    let st = Rc::try_unwrap(state).ok().expect("sole owner").into_inner();
    if st.segv {
        return BaselineRun {
            run,
            n_reports: 0,
            reports: vec!["Segmentation fault (instrumented execution incomplete)".into()],
            segv: true,
            time_secs: t0.elapsed().as_secs_f64(),
            tool_bytes,
        };
    }
    let graph = st.builder.finalize();
    let reach = Reachability::compute(&graph);
    let opts = SuppressOptions {
        tls: true,
        stack: true,
        locks: true,
        mutexinoutset: false,
        ..Default::default()
    };
    let out = analysis::run_sweep(&graph, &reach, &opts, 1);
    let time_secs = t0.elapsed().as_secs_f64();

    // ROMP-style reports: raw addresses, no source info (Listing 5)
    let mut addrs: Vec<u64> = out.candidates.iter().map(|c| c.lo & !7).collect();
    addrs.sort_unstable();
    addrs.dedup();
    let reports: Vec<String> =
        addrs.iter().map(|a| format!("data race found:\n  addr = {a:#x}")).collect();
    BaselineRun { run, n_reports: reports.len(), reports, segv: false, time_secs, tool_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_rt::build_single;

    fn run(src: &str, nthreads: u64) -> BaselineRun {
        let m = build_single("t.c", src).unwrap();
        run_romp(&m, &[], &VmConfig { nthreads, ..Default::default() })
    }

    #[test]
    fn detects_simple_task_race() {
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task
            g = 1;
            #pragma omp task
            g = 2;
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert!(r.found_race());
        assert!(r.reports[0].contains("data race found"));
        assert!(!r.reports[0].contains("t.c"), "ROMP reports carry no source info");
    }

    #[test]
    fn non_sibling_deps_create_phantom_order() {
        // DRB173 pattern: deps on tasks of different parents do not
        // synchronize per spec, but ROMP matches them globally ⇒ FN.
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task
            {
                #pragma omp task depend(out: g)
                g = 1;
                #pragma omp taskwait
            }
            #pragma omp task
            {
                #pragma omp task depend(out: g)
                g = 2;
                #pragma omp taskwait
            }
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports, 0, "global dep matching hides the race: {:?}", r.reports);
    }

    #[test]
    fn mutexinoutset_not_supported() {
        // DRB135 pattern: mutexinoutset makes this safe; ROMP reports it.
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task depend(mutexinoutset: g)
            g = g + 1;
            #pragma omp task depend(mutexinoutset: g)
            g = g + 2;
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.found_race(), "no mutexinoutset exclusion ⇒ FP");
    }

    #[test]
    fn threadprivate_write_from_task_segvs() {
        // DRB127 pattern.
        let src = r#"
int tp;
#pragma omp threadprivate(tp)
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task
            tp = 1;
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.segv, "threadprivate write from explicit task crashes ROMP");
    }

    #[test]
    fn clean_dependent_tasks_pass() {
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task depend(out: g)
            g = 1;
            #pragma omp task depend(inout: g)
            g = g + 1;
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports, 0, "{:?}", r.reports);
    }
}
