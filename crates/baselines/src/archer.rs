//! Archer analog: ThreadSanitizer-style vector-clock happens-before
//! race detection over compile-time instrumentation.
//!
//! Archer (Atzeni et al., IPDPS'16) extends TSan with OpenMP awareness:
//! the compiler inserts `__tsan_read/write` calls into *user* code, and
//! an OMPT hook translates runtime events into TSan synchronization.
//! Two architectural properties follow, both reproduced here:
//!
//! * it is **thread-centric** — each VM thread carries one clock, so two
//!   tasks serialized onto the same thread are implicitly ordered. This
//!   is the source of the paper's Archer false negatives, including the
//!   "0 reports" single-threaded LULESH rows of Table II;
//! * it only sees **instrumented code** — the runtime (compiled without
//!   `-fsanitize=thread`) is invisible, so races through uninstrumented
//!   libraries are missed.
//!
//! Accesses arrive through function replacement of the `__tsan_*` stubs
//! that `minicc` emits in TSan mode; the program runs in Fast mode (no
//! DBI), giving Archer its characteristic ~10x (not ~100x) overhead.

use crate::BaselineRun;
use grindcore::creq;
use grindcore::tool::{FnReplacement, Tool};
use grindcore::{ExecMode, Tid, Vm, VmConfig, VmCore};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::time::Instant;
use tga::module::Module;

const R_READ8: u32 = 10;
const R_WRITE8: u32 = 11;
const R_READ1: u32 = 12;
const R_WRITE1: u32 = 13;
const R_MALLOC: u32 = 20;
const R_CALLOC: u32 = 21;
const R_FREE: u32 = 22;

/// A vector clock indexed by VM thread id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, t: Tid) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn set(&mut self, t: Tid, v: u64) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    fn tick(&mut self, t: Tid) {
        let v = self.get(t) + 1;
        self.set(t, v);
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Does this clock know about `(tid, at)`?
    fn covers(&self, t: Tid, at: u64) -> bool {
        self.get(t) >= at
    }
}

#[derive(Clone, Copy, Debug)]
struct Epoch {
    tid: Tid,
    clock: u64,
    /// User-code call site, for reports.
    site: u64,
}

#[derive(Default)]
struct Shadow {
    write: Option<Epoch>,
    reads: Vec<Epoch>,
}

struct TaskInfo {
    /// Creator's clock at spawn (joined at task begin).
    spawn_vc: Option<VClock>,
    /// Clock at completion (joined at taskwait/taskgroup).
    end_vc: Option<VClock>,
    deps: Vec<(u64, u64)>, // (addr, kind)
}

#[derive(Default)]
struct ThreadSt {
    vc: VClock,
    /// Stack of executing tasks, each with its created children.
    ctx: Vec<(u64, Vec<u64>)>,
    barrier_gen: u64,
}

struct ArcherState {
    threads: Vec<ThreadSt>,
    tasks: HashMap<u64, TaskInfo>,
    next_task: u64,
    /// One sync object per dependence address (global scope — Archer's
    /// OMPT bridge does not scope deps to siblings, which contributes to
    /// its DRB173 behaviour).
    dep_vc: HashMap<u64, VClock>,
    lock_vc: HashMap<u64, VClock>,
    region_vc: VClock,
    region_end_vc: VClock,
    /// Barrier: accumulated arrivals + released generation.
    barrier_acc: VClock,
    barrier_release: VClock,
    barrier_gen: u64,
    barrier_arrived: u64,
    team: u64,
    /// All tasks created since the last taskgroup-begin markers.
    group_stack: Vec<usize>,
    all_tasks: Vec<u64>,
    shadow: HashMap<u64, Shadow>,
    /// Distinct (site, site) report pairs.
    reports: BTreeSet<(u64, u64)>,
}

impl ArcherState {
    fn new() -> ArcherState {
        ArcherState {
            threads: Vec::new(),
            tasks: HashMap::new(),
            next_task: 1,
            dep_vc: HashMap::new(),
            lock_vc: HashMap::new(),
            region_vc: VClock::default(),
            region_end_vc: VClock::default(),
            barrier_acc: VClock::default(),
            barrier_release: VClock::default(),
            barrier_gen: 0,
            barrier_arrived: 0,
            team: 1,
            group_stack: Vec::new(),
            all_tasks: Vec::new(),
            shadow: HashMap::new(),
            reports: BTreeSet::new(),
        }
    }

    fn thread(&mut self, t: Tid) -> &mut ThreadSt {
        if self.threads.len() <= t {
            self.threads.resize_with(t + 1, ThreadSt::default);
        }
        // every thread's own component starts at 1, so its epochs are
        // never vacuously covered by other threads' zero entries
        if self.threads[t].vc.get(t) == 0 {
            self.threads[t].vc.set(t, 1);
        }
        &mut self.threads[t]
    }

    /// Lazy barrier release: threads observe the release clock at their
    /// next instrumented action.
    fn sync_barrier(&mut self, t: Tid) {
        let gen = self.barrier_gen;
        let th = self.thread(t);
        if th.barrier_gen < gen {
            th.barrier_gen = gen;
            let rel = self.barrier_release.clone();
            self.thread(t).vc.join(&rel);
        }
    }

    fn access(&mut self, tid: Tid, addr: u64, write: bool, site: u64) {
        self.sync_barrier(tid);
        let now = Epoch { tid, clock: self.thread(tid).vc.get(tid), site };
        let vc = self.thread(tid).vc.clone();
        let granule = addr & !7;
        let cell = self.shadow.entry(granule).or_default();
        if write {
            if let Some(w) = cell.write {
                if w.tid != tid && !vc.covers(w.tid, w.clock) {
                    self.reports.insert(order(w.site, site));
                }
            }
            let cell = self.shadow.get_mut(&granule).unwrap();
            for r in std::mem::take(&mut cell.reads) {
                if r.tid != tid && !vc.covers(r.tid, r.clock) {
                    self.reports.insert(order(r.site, site));
                }
            }
            let cell = self.shadow.get_mut(&granule).unwrap();
            cell.write = Some(now);
            cell.reads.clear();
        } else {
            if let Some(w) = cell.write {
                if w.tid != tid && !vc.covers(w.tid, w.clock) {
                    self.reports.insert(order(w.site, site));
                }
            }
            let cell = self.shadow.get_mut(&granule).unwrap();
            cell.reads.retain(|r| r.tid != tid);
            if cell.reads.len() < 16 {
                cell.reads.push(now);
            }
        }
    }

    fn bytes(&self) -> u64 {
        self.shadow.len() as u64 * 64
            + self.tasks.len() as u64 * 96
            + self.threads.len() as u64 * 64
    }
}

fn order(a: u64, b: u64) -> (u64, u64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The Archer tool plugin.
#[derive(Clone)]
pub struct ArcherTool {
    state: Rc<RefCell<ArcherState>>,
}

impl ArcherTool {
    pub fn new() -> ArcherTool {
        ArcherTool { state: Rc::new(RefCell::new(ArcherState::new())) }
    }
}

impl Default for ArcherTool {
    fn default() -> Self {
        Self::new()
    }
}

fn call_site(core: &VmCore, tid: Tid) -> u64 {
    // frame 0 is the replaced stub itself; frame 1 is the user call.
    core.frames(tid).nth(1).unwrap_or(0)
}

impl Tool for ArcherTool {
    fn name(&self) -> &'static str {
        "archer"
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
        let site = call_site(core, tid);
        let write = matches!(id, R_WRITE8 | R_WRITE1);
        self.state.borrow_mut().access(tid, args[0], write, site);
        0
    }

    fn client_request(&mut self, _core: &mut VmCore, tid: Tid, code: u64, args: [u64; 5]) -> u64 {
        let mut st = self.state.borrow_mut();
        st.sync_barrier(tid);
        match code {
            creq::PARALLEL_BEGIN => {
                st.team = args[0].max(1);
                // release: publish the clock, then advance past it
                let vc = st.thread(tid).vc.clone();
                st.region_vc = vc;
                st.thread(tid).vc.tick(tid);
                st.region_end_vc = VClock::default();
                0
            }
            creq::IMPLICIT_TASK_BEGIN => {
                let rvc = st.region_vc.clone();
                st.thread(tid).vc.join(&rvc);
                st.thread(tid).ctx.push((0, Vec::new()));
                0
            }
            creq::IMPLICIT_TASK_END => {
                let vc = st.thread(tid).vc.clone();
                st.region_end_vc.join(&vc);
                st.thread(tid).vc.tick(tid);
                st.thread(tid).ctx.pop();
                0
            }
            creq::PARALLEL_END => {
                let evc = st.region_end_vc.clone();
                st.thread(tid).vc.join(&evc);
                0
            }
            creq::TASK_CREATE => {
                let id = st.next_task;
                st.next_task += 1;
                st.tasks.insert(id, TaskInfo { spawn_vc: None, end_vc: None, deps: Vec::new() });
                st.all_tasks.push(id);
                if let Some((_, children)) = st.thread(tid).ctx.last_mut() {
                    children.push(id);
                }
                id
            }
            creq::TASK_DEP => {
                if let Some(t) = st.tasks.get_mut(&args[0]) {
                    t.deps.push((args[1], args[3]));
                }
                0
            }
            creq::TASK_SPAWN => {
                // release: publish, then tick, so the creator's later
                // accesses are not covered by the child's joined clock
                let vc = st.thread(tid).vc.clone();
                if let Some(t) = st.tasks.get_mut(&args[0]) {
                    t.spawn_vc = Some(vc);
                }
                st.thread(tid).vc.tick(tid);
                0
            }
            creq::TASK_BEGIN => {
                let (spawn, deps) = match st.tasks.get(&args[0]) {
                    Some(t) => (t.spawn_vc.clone(), t.deps.clone()),
                    None => (None, Vec::new()),
                };
                if let Some(vc) = spawn {
                    st.thread(tid).vc.join(&vc);
                }
                for (addr, _kind) in deps {
                    if let Some(vc) = st.dep_vc.get(&addr).cloned() {
                        st.thread(tid).vc.join(&vc);
                    }
                }
                st.thread(tid).ctx.push((args[0], Vec::new()));
                0
            }
            creq::TASK_END => {
                let vc = st.thread(tid).vc.clone();
                let deps = st.tasks.get(&args[0]).map(|t| t.deps.clone()).unwrap_or_default();
                for (addr, kind) in deps {
                    if kind != creq::dep_kind::IN {
                        st.dep_vc.entry(addr).or_default().join(&vc);
                    }
                }
                if let Some(t) = st.tasks.get_mut(&args[0]) {
                    t.end_vc = Some(vc);
                }
                st.thread(tid).ctx.pop();
                st.thread(tid).vc.tick(tid);
                0
            }
            creq::TASKWAIT => {
                let children =
                    st.thread(tid).ctx.last().map(|(_, c)| c.clone()).unwrap_or_default();
                for ch in children {
                    if let Some(vc) = st.tasks.get(&ch).and_then(|t| t.end_vc.clone()) {
                        st.thread(tid).vc.join(&vc);
                    }
                }
                0
            }
            creq::TASKGROUP_BEGIN => {
                let mark = st.all_tasks.len();
                st.group_stack.push(mark);
                0
            }
            creq::TASKGROUP_END => {
                let mark = st.group_stack.pop().unwrap_or(0);
                let members: Vec<u64> = st.all_tasks[mark..].to_vec();
                for m in members {
                    if let Some(vc) = st.tasks.get(&m).and_then(|t| t.end_vc.clone()) {
                        st.thread(tid).vc.join(&vc);
                    }
                }
                0
            }
            creq::BARRIER => {
                let vc = st.thread(tid).vc.clone();
                st.barrier_acc.join(&vc);
                st.thread(tid).vc.tick(tid);
                st.barrier_arrived += 1;
                if st.barrier_arrived >= st.team {
                    st.barrier_arrived = 0;
                    st.barrier_release = std::mem::take(&mut st.barrier_acc);
                    st.barrier_gen += 1;
                }
                0
            }
            creq::CRITICAL_ENTER => {
                if let Some(vc) = st.lock_vc.get(&args[0]).cloned() {
                    st.thread(tid).vc.join(&vc);
                }
                0
            }
            creq::CRITICAL_EXIT => {
                let vc = st.thread(tid).vc.clone();
                st.lock_vc.entry(args[0]).or_default().join(&vc);
                st.thread(tid).vc.tick(tid);
                0
            }
            _ => 0,
        }
    }

    fn thread_created(&mut self, _core: &mut VmCore, parent: Tid, child: Tid) {
        let mut st = self.state.borrow_mut();
        // release: publish, then tick
        let vc = st.thread(parent).vc.clone();
        st.thread(child).vc.join(&vc);
        st.thread(parent).vc.tick(parent);
    }

    fn tool_bytes(&self) -> u64 {
        self.state.borrow().bytes()
    }
}

/// Run a TSan-instrumented module under the Archer analysis.
pub fn run_archer(module: &Module, args: &[&str], vm_cfg: &VmConfig) -> BaselineRun {
    let tool = ArcherTool::new();
    let state = tool.state.clone();
    let mut vm = Vm::new(module.clone(), Box::new(tool), vm_cfg.clone());
    let t0 = Instant::now();
    let run = vm.run(ExecMode::Fast, args);
    let time_secs = t0.elapsed().as_secs_f64();
    let tool_bytes = run.metrics.tool_bytes;
    drop(vm);
    let st = state.borrow();
    let reports: Vec<String> = st
        .reports
        .iter()
        .map(|(a, b)| format!("WARNING: data race between {:#x} and {:#x}", a, b))
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
        run_archer(&m, &[], &VmConfig { nthreads, ..Default::default() })
    }

    const RACY: &str = r#"
int main(void) {
    int *x = (int*) malloc(8);
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x[0] = 1;
            #pragma omp task shared(x)
            x[0] = 2;
        }
    }
    return 0;
}
"#;

    #[test]
    fn vclock_ops() {
        let mut a = VClock::default();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VClock::default();
        b.set(1, 5);
        b.join(&a);
        assert_eq!(b.get(0), 3);
        assert_eq!(b.get(1), 5);
        assert_eq!(b.get(2), 1);
        assert!(b.covers(0, 3));
        assert!(!b.covers(0, 4));
        b.tick(1);
        assert_eq!(b.get(1), 6);
    }

    #[test]
    fn detects_race_multithreaded() {
        // Whether Archer sees the race depends on which threads execute
        // the tasks (the paper's own cells read "FN/TP"); explore a few
        // schedules and require at least one detection.
        let m = build_program_tsan(&[SourceFile::new("t.c", RACY)]).unwrap();
        let mut found = false;
        for seed in 0..8 {
            let cfg = VmConfig {
                nthreads: 2,
                seed,
                sched: grindcore::SchedPolicy::Random,
                quantum: 16,
                ..Default::default()
            };
            let r = run_archer(&m, &[], &cfg);
            assert!(r.run.ok(), "{:?}", r.run.error);
            found |= r.found_race();
            if found {
                break;
            }
        }
        assert!(found, "Archer sees the race under at least one schedule");
    }

    #[test]
    fn thread_centric_fn_single_threaded() {
        // The paper's key Archer weakness: serialized tasks on one
        // thread are implicitly ordered by the thread clock.
        let r = run(RACY, 1);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports, 0, "Archer never reports single-threaded (Table II)");
    }

    #[test]
    fn dependences_are_synchronization() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task depend(out: x) shared(x)
            x = 1;
            #pragma omp task depend(inout: x) shared(x)
            x = x + 1;
        }
    }
    return x;
}
"#;
        let r = run(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports, 0, "{:?}", r.reports);
    }

    #[test]
    fn taskwait_is_synchronization() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x = 1;
            #pragma omp taskwait
            x = x + 1;
        }
    }
    return x;
}
"#;
        let r = run(src, 2);
        assert_eq!(r.n_reports, 0, "{:?}", r.reports);
    }

    #[test]
    fn critical_is_synchronization() {
        let src = r#"
int s;
int main(void) {
    #pragma omp parallel
    {
        #pragma omp critical
        { s = s + 1; }
    }
    return s;
}
"#;
        let r = run(src, 4);
        assert_eq!(r.n_reports, 0, "{:?}", r.reports);
    }

    #[test]
    fn barrier_is_synchronization() {
        let src = r#"
int a[8];
int done;
int main(void) {
    #pragma omp parallel
    {
        int me = omp_get_thread_num();
        a[me] = me;
        #pragma omp barrier
        if (me == 0) { done = a[0] + a[1]; }
    }
    return done;
}
"#;
        let r = run(src, 2);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports, 0, "{:?}", r.reports);
    }

    #[test]
    fn unsynchronized_parallel_writes_race() {
        let src = r#"
int s;
int main(void) {
    #pragma omp parallel
    { s = s + 1; }
    return s;
}
"#;
        let r = run(src, 4);
        assert!(r.found_race());
    }

    #[test]
    fn runtime_internals_invisible() {
        // a clean program: libomp's own queue traffic must not be seen
        // at all (it is not instrumented)
        let src = r#"
int main(void) {
    int a[16];
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp taskloop grainsize(4) shared(a)
            for (int i = 0; i < 16; i++) a[i] = i;
        }
    }
    return a[3];
}
"#;
        let r = run(src, 4);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.n_reports, 0, "{:?}", r.reports);
    }
}
