//! TaskSanitizer analog (Matar & Unat, Euro-Par'18): a segment-graph
//! determinacy-race detector built on compile-time instrumentation.
//!
//! Architecturally close to Taskgrind (it introduced the segment-graph
//! formalism the paper builds on), but with the limitations the paper's
//! Table I attributes to it:
//!
//! * **compile-time instrumentation**: accesses arrive only from
//!   `__tsan_*` stubs in user code — anything in uninstrumented
//!   libraries is invisible;
//! * **feature gaps** ("ncs" rows): the harness gates programs on
//!   [`SUPPORTED_FEATURES`] first — its Clang 8 front end rejects
//!   taskloop, threadprivate, mergeable, and OpenMP-4.5/5.0 dependence
//!   types;
//! * **three runtime events ignored**:
//!   - taskgroups (`TASKGROUP_BEGIN`/`TASKGROUP_END`, dropped before the
//!     shared segment-graph builder sees them): no taskgroup edges (FP
//!     on DRB107);
//!   - `TASK_FULFILL` (dropped the same way): no detach, so a fulfilled
//!     event orders nothing;
//!   - `tg_set_deferrable` (`USER_DEFERRABLE`, which the builder never
//!     applies): the flags the annotation strips are stripped anyway
//!     (next item);
//! * **undeferred/included tasks not modelled** (FP on DRB122): the
//!   builder strips the inline flags, so runtime-serialized tasks look
//!   concurrent;
//! * **no stack/TLS suppression and no allocator replacement** — the
//!   heavyweight-DBI pitfalls of §IV do not apply to it wholesale, but
//!   stack-reuse FPs (TMB 1003/1005) do.

use crate::BaselineRun;
use grindcore::creq;
use grindcore::tool::{FnReplacement, Tool};
use grindcore::{ExecMode, Tid, Vm, VmConfig, VmCore};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use taskgrind::analysis::{self, SuppressOptions};
use taskgrind::graph::{GraphBuilder, ThreadMeta};
use taskgrind::reach::Reachability;
use tga::module::Module;

/// Program features TaskSanitizer's Clang-8-era toolchain accepts.
/// Anything else is "ncs" (no compiler support) in Table I.
pub const SUPPORTED_FEATURES: &[&str] = &[
    "task",
    "taskwait",
    "taskgroup",
    "barrier",
    "single",
    "parallel",
    "critical",
    "master",
    "dep-in",
    "dep-out",
    "dep-inout",
];

/// Does TaskSanitizer's front end accept a program with these features?
pub fn supports(features: &[&str]) -> bool {
    features.iter().all(|f| SUPPORTED_FEATURES.contains(f))
}

const R_READ8: u32 = 10;
const R_WRITE8: u32 = 11;
const R_READ1: u32 = 12;
const R_WRITE1: u32 = 13;
const R_MALLOC: u32 = 20;
const R_CALLOC: u32 = 21;
const R_FREE: u32 = 22;

struct TsanState {
    builder: GraphBuilder,
}

#[derive(Clone)]
pub struct TaskSanTool {
    state: Rc<RefCell<TsanState>>,
}

impl TaskSanTool {
    pub fn new() -> TaskSanTool {
        let mut builder = GraphBuilder::new();
        // undeferred/included semantics unsupported: inline flags dropped
        builder.set_user_deferrable(true);
        // dependences matched by address only (no sibling scoping) —
        // the Table I FN on non-sibling dependence tests
        builder.set_global_dep_scope(true);
        TaskSanTool { state: Rc::new(RefCell::new(TsanState { builder })) }
    }
}

impl Default for TaskSanTool {
    fn default() -> Self {
        Self::new()
    }
}

impl Tool for TaskSanTool {
    fn name(&self) -> &'static str {
        "tasksanitizer"
    }

    fn replacements(&self) -> Vec<FnReplacement> {
        vec![
            FnReplacement { pattern: "__tsan_read8".into(), id: R_READ8 },
            FnReplacement { pattern: "__tsan_write8".into(), id: R_WRITE8 },
            FnReplacement { pattern: "__tsan_read1".into(), id: R_READ1 },
            FnReplacement { pattern: "__tsan_write1".into(), id: R_WRITE1 },
            // the TSan runtime ships its own allocator: no recycling
            FnReplacement { pattern: "malloc".into(), id: R_MALLOC },
            FnReplacement { pattern: "calloc".into(), id: R_CALLOC },
            FnReplacement { pattern: "free".into(), id: R_FREE },
        ]
    }

    fn replaced_call(&mut self, core: &mut VmCore, tid: Tid, id: u32, args: [u64; 8]) -> u64 {
        match id {
            R_MALLOC => return core.alloc_raw(args[0].max(1)),
            R_CALLOC => return core.alloc_raw(args[0].wrapping_mul(args[1]).max(1)),
            R_FREE => return 0,
            _ => {}
        }
        let meta = ThreadMeta::of(core, tid);
        let write = matches!(id, R_WRITE8 | R_WRITE1);
        let size = if matches!(id, R_READ1 | R_WRITE1) { 1 } else { 8 };
        self.state.borrow_mut().builder.record_access(&meta, args[0], size, write);
        0
    }

    fn client_request(&mut self, core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        match code {
            // no detach, and taskgroup is NOT understood: no join edges
            // (FP on DRB107); `USER_DEFERRABLE` never reaches the graph
            creq::TASK_FULFILL | creq::TASKGROUP_BEGIN | creq::TASKGROUP_END => 0,
            _ => {
                let meta = ThreadMeta::of(core, tid);
                self.state.borrow_mut().builder.client_request(&meta, code, args)
            }
        }
    }

    fn tool_bytes(&self) -> u64 {
        self.state.borrow().builder.segments.iter().map(|s| s.bytes()).sum()
    }
}

/// Run a TSan-instrumented module under the TaskSanitizer analysis.
pub fn run_tasksan(module: &Module, args: &[&str], vm_cfg: &VmConfig) -> BaselineRun {
    let tool = TaskSanTool::new();
    let state = tool.state.clone();
    let mut vm = Vm::new(module.clone(), Box::new(tool), vm_cfg.clone());
    let t0 = Instant::now();
    let run = vm.run(ExecMode::Fast, args);
    let tool_bytes = run.metrics.tool_bytes;
    drop(vm);

    let st = Rc::try_unwrap(state).ok().expect("sole owner").into_inner();
    let graph = st.builder.finalize();
    let reach = Reachability::compute(&graph);
    // no stack/TLS suppression, no mutexinoutset exclusion
    let opts = SuppressOptions {
        tls: false,
        stack: false,
        locks: true,
        mutexinoutset: false,
        ..Default::default()
    };
    let out = analysis::run_sweep(&graph, &reach, &opts, 1);
    let time_secs = t0.elapsed().as_secs_f64();

    // one report per distinct task-pair
    let mut keys: Vec<(u32, u32)> = out
        .candidates
        .iter()
        .map(|c| {
            let t1 = graph.segments[c.seg1 as usize].task.unwrap_or(u32::MAX);
            let t2 = graph.segments[c.seg2 as usize].task.unwrap_or(u32::MAX);
            if t1 <= t2 {
                (t1, t2)
            } else {
                (t2, t1)
            }
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let reports: Vec<String> = keys
        .iter()
        .map(|(a, b)| format!("determinacy race between task {a} and task {b}"))
        .collect();
    BaselineRun { run, n_reports: reports.len(), reports, segv: false, time_secs, tool_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_rt::build_program_tsan;
    use minicc::SourceFile;

    fn run(src: &str, nthreads: u64) -> BaselineRun {
        let m = build_program_tsan(&[SourceFile::new("t.c", src)]).unwrap();
        run_tasksan(&m, &[], &VmConfig { nthreads, ..Default::default() })
    }

    #[test]
    fn feature_gate() {
        assert!(supports(&["task", "taskwait", "parallel"]));
        assert!(!supports(&["task", "taskloop"]));
        assert!(!supports(&["threadprivate"]));
        assert!(!supports(&["dep-mutexinoutset"]));
        assert!(!supports(&["mergeable"]));
    }

    #[test]
    fn detects_race_even_single_threaded() {
        // Segment-based: unlike Archer, serialization does not hide the
        // race (it ignores the included flag entirely).
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
        for nt in [1, 2] {
            let r = run(src, nt);
            assert!(r.run.ok(), "{:?}", r.run.error);
            assert!(r.found_race(), "nt={nt}");
        }
    }

    #[test]
    fn taskgroup_not_understood_causes_fp() {
        // DRB107 pattern: taskgroup makes this safe, but TaskSanitizer
        // has no taskgroup edges.
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp taskgroup
            {
                #pragma omp task
                g = 1;
            }
            g = 2;
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert!(r.found_race(), "missing taskgroup support ⇒ false positive");
    }

    #[test]
    fn undeferred_tasks_look_concurrent() {
        // DRB122 pattern: if(0) forces undeferred execution (safe), but
        // TaskSanitizer ignores the flag ⇒ FP.
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task if(0)
            g = 1;
            g = 2;
        }
    }
    return 0;
}
"#;
        let r = run(src, 2);
        assert!(r.found_race(), "undeferred flag ignored ⇒ false positive");
    }

    #[test]
    fn dependences_respected() {
        let src = r#"
int g;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task depend(out: g)
            g = 1;
            #pragma omp task depend(in: g)
            { int y = g; }
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
