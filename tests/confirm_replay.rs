//! Confirmation-replay tests: CoW snapshot/restore bit-identity under
//! re-execution (property-based), seeded golden verdicts, and the
//! default-off bit-identity guarantee.

use grindcore::{ExecMode, ScheduleDirector, Snapshot, Tid, Vm, VmConfig, VmCore};
use proptest::prelude::*;
use taskgrind::confirm::Verdict;
use taskgrind::{check_module, TaskgrindConfig};

// ---------------------------------------------------------------------
// Golden guests
// ---------------------------------------------------------------------

/// Two implicit tasks write the same global with no ordering at all:
/// an adversarial replay must reproduce the flipped order.
const FLIPPABLE: &str = r#"
int x;
int main(void) {
    #pragma omp parallel num_threads(2)
    {
        x = x + 1;
    }
    return 0;
}
"#;

/// The unflippable twin: the same conflicting writes on `x`, but an
/// ad-hoc flag handshake (hidden from the graph inside critical
/// sections, which do not create happens-before edges) forces t0's
/// write before t1's on every schedule. The candidate survives the
/// sweep — the graph sees no ordering — yet no replay can flip it.
const UNFLIPPABLE: &str = r#"
int x;
int flag;
int main(void) {
    #pragma omp parallel num_threads(2)
    {
        int me = omp_get_thread_num();
        if (me == 0) {
            x = 1;
            #pragma omp critical
            { flag = 1; }
        } else {
            int seen = 0;
            while (!seen) {
                #pragma omp critical
                { seen = flag; }
            }
            x = 2;
        }
    }
    return x;
}
"#;

fn check(src: &str, confirm: bool) -> taskgrind::TaskgrindResult {
    let m = guest_rt::build_single("confirm.c", src).expect("compiles");
    let cfg = TaskgrindConfig {
        vm: VmConfig { nthreads: 2, ..Default::default() },
        confirm,
        ..Default::default()
    };
    check_module(&m, &[], &cfg)
}

#[test]
fn flippable_race_is_confirmed() {
    let r = check(FLIPPABLE, true);
    assert!(r.run.ok(), "{:?}", r.run.error);
    assert!(!r.reports.is_empty(), "the parallel writes must report");
    let stats = r.confirm.as_ref().expect("confirm stats present");
    assert!(stats.replays > 0, "at least one replay ran: {stats:?}");
    let x_report = r.reports.iter().find(|rep| rep.region == "global").expect("global-x report");
    match &x_report.verdict {
        Some(Verdict::Confirmed { schedule }) => {
            assert!(schedule.contains("overtakes"), "{schedule}");
        }
        other => panic!("flippable race not confirmed: {other:?}\n{}", r.render_all()),
    }
    assert!(r.render_all().contains("confirmed under replay schedule"));
}

#[test]
fn flag_ordered_twin_stays_unconfirmed() {
    let r = check(UNFLIPPABLE, true);
    assert!(r.run.ok(), "{:?}", r.run.error);
    // The x conflict must be reported (the graph sees no ordering) ...
    let x_report = r
        .reports
        .iter()
        .find(|rep| rep.region == "global")
        .unwrap_or_else(|| panic!("global-x report:\n{}", r.render_all()));
    // ... but every adversarial replay runs into the flag handshake.
    match &x_report.verdict {
        Some(Verdict::Unconfirmed { tried }) => {
            assert!(*tried > 0, "replays were attempted");
        }
        other => panic!("flag-ordered pair must stay unconfirmed: {other:?}"),
    }
    assert!(r.render_all().contains("kept the recorded order"));
}

#[test]
fn confirm_off_is_bit_identical() {
    for src in [FLIPPABLE, UNFLIPPABLE] {
        let base = check(src, false);
        let on = check(src, true);
        // Strip the verdict lines: everything else matches byte-for-byte.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| {
                    !l.starts_with("confirmed under replay") && !l.starts_with("unconfirmed:")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&base.render_all()), strip(&on.render_all()));
        assert_eq!(base.run.exit_code, on.run.exit_code);
        assert_eq!(base.run.metrics.sched_digest, on.run.metrics.sched_digest);
        assert_eq!(base.analysis.candidates, on.analysis.candidates);
        assert!(base.confirm.is_none());
        assert!(on.confirm.is_some());
    }
}

/// A forced thread that spin-waits on a third thread must not livelock
/// its attempt: escape slices rotate through the runnable threads, so
/// every attempt on this kernel ends well before the per-attempt cap.
#[test]
fn escape_slices_reach_every_thread() {
    let p = tg_drb::corpus::by_name("106-taskwaitmissing-orig").expect("corpus kernel");
    let m = guest_rt::build_single(p.name, p.source).expect("compiles");
    let cfg = TaskgrindConfig {
        vm: VmConfig { nthreads: 4, ..Default::default() },
        confirm: true,
        ..Default::default()
    };
    let r = check_module(&m, &[], &cfg);
    assert!(r.run.ok(), "{:?}", r.run.error);
    let stats = r.confirm.as_ref().expect("confirm stats present");
    assert_eq!(stats.replays, 4, "{stats:?}");
    assert!(
        stats.attempt_instrs < taskgrind::confirm::ATTEMPT_INSTR_CAP,
        "an attempt ran into the livelock cap: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Property: snapshot -> perturb -> restore -> re-execute is
// bit-identical to an undisturbed run.
// ---------------------------------------------------------------------

/// A tool that records a digest of every event it sees, for comparing
/// instrumented re-executions.
#[derive(Default)]
struct DigestTool {
    digest: std::rc::Rc<std::cell::Cell<u64>>,
}

impl DigestTool {
    fn fold(&self, v: u64) {
        let mut h = self.digest.get();
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        self.digest.set(h);
    }
}

impl grindcore::Tool for DigestTool {
    fn name(&self) -> &'static str {
        "digest"
    }
    fn instrument(&mut self, block: vex_ir::IrBlock, _m: &grindcore::BlockMeta) -> vex_ir::IrBlock {
        grindcore::tool::instrument_mem_accesses(block)
    }
    fn mem_access(
        &mut self,
        _core: &mut VmCore,
        tid: Tid,
        addr: u64,
        size: u64,
        write: bool,
        _pc: u64,
    ) {
        self.fold(tid as u64 ^ addr.rotate_left(17) ^ size ^ ((write as u64) << 63));
    }
}

/// Snapshots at boundary `snap_at`, then `burn` slices later restores
/// once and lets the run finish. The tool's digest accumulator is
/// saved and restored alongside the VM snapshot — the same contract
/// the confirm explorer's replay tool follows for its id counters.
struct PerturbDirector {
    snap_at: u64,
    burn: u64,
    boundaries: u64,
    snap: Option<(Snapshot, Tid, u64)>,
    restored: bool,
    digest: std::rc::Rc<std::cell::Cell<u64>>,
}

impl ScheduleDirector for PerturbDirector {
    fn boundary(&mut self, core: &mut VmCore, current: Tid) -> Option<Tid> {
        self.boundaries += 1;
        if self.boundaries == self.snap_at {
            self.snap = Some((core.snapshot(), current, self.digest.get()));
            return None;
        }
        if let Some((snap, at, saved_digest)) = &self.snap {
            if !self.restored && self.boundaries == self.snap_at + self.burn {
                self.restored = true;
                core.restore(snap);
                self.digest.set(*saved_digest);
                let at = *at;
                core.discard_snapshot();
                if grindcore::snapshot::needs_rr_resume(core) {
                    return grindcore::round_robin_next(core, at);
                }
            }
        }
        None
    }
}

/// Guest generator: tasks hammer a shared array with data-dependent
/// strides so restored runs must reproduce memory exactly.
fn guest_src(tasks: u64, iters: u64, stride: u64) -> String {
    format!(
        r#"
int a[257];
int main(void) {{
    #pragma omp parallel num_threads(2)
    {{
        #pragma omp single
        {{
            for (int t = 0; t < {tasks}; t++) {{
                #pragma omp task firstprivate(t)
                {{
                    for (int i = 0; i < {iters}; i++) {{
                        int k = (t * {stride} + i * 7) % 257;
                        a[k] = a[k] * 3 + t + i;
                    }}
                }}
            }}
        }}
    }}
    int s = 0;
    for (int i = 0; i < 257; i++) s = s ^ a[i];
    return s & 0x7f;
}}
"#
    )
}

fn run_digest(
    module: &tga::module::Module,
    perturb: Option<(u64, u64)>,
) -> (Option<i64>, u64, u64, u64) {
    let digest = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let tool = DigestTool { digest: digest.clone() };
    let cfg = VmConfig { nthreads: 2, ..Default::default() };
    let mut vm = Vm::new(module.clone(), Box::new(tool), cfg);
    if let Some((snap_at, burn)) = perturb {
        vm.set_director(Box::new(PerturbDirector {
            snap_at,
            burn,
            boundaries: 0,
            snap: None,
            restored: false,
            digest: digest.clone(),
        }));
    }
    let r = vm.run(ExecMode::Dbi, &[]);
    assert!(r.ok(), "{:?}", r.error);
    (r.exit_code, r.metrics.sched_digest, r.metrics.instrs, digest.get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn restore_reexecution_is_bit_identical(
        tasks in 1u64..5,
        iters in 1u64..40,
        stride in 1u64..97,
        snap_at in 1u64..30,
        burn in 1u64..60,
    ) {
        let module = guest_rt::build_single("prop.c", &guest_src(tasks, iters, stride))
            .expect("compiles");
        let base = run_digest(&module, None);
        let perturbed = run_digest(&module, Some((snap_at, burn)));
        // Exit code, schedule digest and the tool-event digest must all
        // match: the restore rewound every guest-visible bit, and the
        // replayed suffix fired the identical instrumentation events.
        prop_assert_eq!(base.0, perturbed.0);
        prop_assert_eq!(base.1, perturbed.1);
        prop_assert_eq!(base.3, perturbed.3);
    }
}
