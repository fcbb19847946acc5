//! guest-rt — the guest-side runtime libraries and program build support.
//!
//! The runtime (`libc.mc`, `libomp.mc`, `libcilk.mc`) is written in
//! minic and compiled *into the guest binary*, exactly as LLVM's libomp
//! is linked into the applications the paper instruments. Its symbols
//! are `__kmp_*`/`__libc*`-prefixed so Taskgrind's default ignore-list
//! can suppress the runtime's own nondeterministic accesses (§IV-A),
//! and its allocator recycles freed blocks so the §IV-B false positives
//! genuinely occur without Taskgrind's allocator replacement.
//!
//! Use [`build_program`] to compile user sources against the runtime,
//! or [`build_program_tsan`] for the compile-time-instrumented variant
//! the Archer/TaskSanitizer baselines analyze.

use minicc::{compile, CompileError, SourceFile};
use tga::module::Module;

/// Source text of the guest C library.
pub const LIBC_MC: &str = include_str!("../sources/libc.mc");
/// Source text of the guest OpenMP-like runtime.
pub const LIBOMP_MC: &str = include_str!("../sources/libomp.mc");
/// Source text of the guest Cilk shims.
pub const LIBCILK_MC: &str = include_str!("../sources/libcilk.mc");
/// The runtime's static-analysis summary: one line per runtime function
/// a default Taskgrind run leaves uninstrumented, so a run reads its
/// effects here instead of analyzing it (`tga_analysis::runsum`).
/// Generated from [`build_runtime_only`]; a test regenerates it and
/// requires equal bytes, so an edit to `sources/*.mc` must re-bless it.
pub const RUNTIME_SUMMARY: &str = include_str!("../sources/runtime.summary");

/// The runtime translation units, never TSan-instrumented — runtime
/// code is "non-instrumented code ... which source may not be visible
/// at compile-time" from the baselines' point of view.
pub fn runtime_sources() -> Vec<SourceFile> {
    vec![
        SourceFile::new("libc.mc", LIBC_MC),
        SourceFile::new("libomp.mc", LIBOMP_MC),
        SourceFile::new("libcilk.mc", LIBCILK_MC),
    ]
}

/// Compile user sources + runtime into an executable module.
pub fn build_program(user: &[SourceFile]) -> Result<Module, CompileError> {
    let mut files = runtime_sources();
    files.extend(user.iter().cloned());
    compile(&files)
}

/// Like [`build_program`] but with TSan instrumentation on user code
/// (the compile-time-instrumentation model of Archer/TaskSanitizer).
pub fn build_program_tsan(user: &[SourceFile]) -> Result<Module, CompileError> {
    let mut files = runtime_sources();
    files.extend(user.iter().cloned().map(|mut f| {
        f.tsan = true;
        f
    }));
    compile(&files)
}

/// Convenience: compile a single-file program from source text.
pub fn build_single(name: &str, text: &str) -> Result<Module, CompileError> {
    build_program(&[SourceFile::new(name, text)])
}

/// The runtime alone, linked with a `main` that returns 0: the build
/// [`RUNTIME_SUMMARY`] is generated from. The runtime is laid out first
/// in every build, so its functions sit at the same entries in every
/// program.
pub fn build_runtime_only() -> Result<Module, CompileError> {
    build_single("runtime-only.c", "int main(void) { return 0; }")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grindcore::tool::NulTool;
    use grindcore::{ExecMode, RunResult, Vm, VmConfig};

    fn run(src: &str, nthreads: u64, args: &[&str]) -> RunResult {
        let m = build_single("test.c", src).expect("compiles");
        let cfg = VmConfig { nthreads, ..Default::default() };
        Vm::new(m, Box::new(NulTool), cfg).run(ExecMode::Fast, args)
    }

    fn run_dbi(src: &str, nthreads: u64) -> RunResult {
        let m = build_single("test.c", src).expect("compiles");
        let cfg = VmConfig { nthreads, ..Default::default() };
        Vm::new(m, Box::new(NulTool), cfg).run(ExecMode::Dbi, &[])
    }

    #[test]
    fn hello_printf() {
        let r = run(
            r#"int main(void) { printf("hello %d %s %x %f %c%%\n", 42, "world", 255, 1.5, 'z'); return 0; }"#,
            1,
            &[],
        );
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.stdout_str(), "hello 42 world ff 1.500000 z%\n");
        assert_eq!(r.exit_code, Some(0));
    }

    #[test]
    fn negative_and_zero_formatting() {
        let r = run(r#"int main(void) { printf("%d %d %f\n", -17, 0, -2.25); return 0; }"#, 1, &[]);
        assert_eq!(r.stdout_str(), "-17 0 -2.250000\n");
    }

    #[test]
    fn argv_and_atoi() {
        let r = run(
            r#"int main(int argc, char **argv) { if (argc < 2) return 1; return atoi(argv[1]); }"#,
            1,
            &["33"],
        );
        assert_eq!(r.exit_code, Some(33));
    }

    #[test]
    fn malloc_recycles_freed_blocks() {
        let r = run(
            r#"
int main(void) {
    char *a = (char*) malloc(32);
    free(a);
    char *b = (char*) malloc(32);
    if (a == b) return 1;  // LIFO recycling: same address
    return 0;
}
"#,
            1,
            &[],
        );
        assert_eq!(r.exit_code, Some(1), "allocator must recycle (paper IV-B)");
    }

    #[test]
    fn malloc_distinct_live_blocks() {
        let r = run(
            r#"
int main(void) {
    long *a = (long*) malloc(16);
    long *b = (long*) malloc(16);
    a[0] = 1; b[0] = 2;
    if (a == b) return 9;
    return a[0] + b[0];
}
"#,
            1,
            &[],
        );
        assert_eq!(r.exit_code, Some(3));
    }

    #[test]
    fn parallel_region_runs_all_threads() {
        let src = r#"
int counter;
int main(void) {
    #pragma omp parallel num_threads(4)
    {
        __fetch_add(&counter, 1);
    }
    return counter;
}
"#;
        let r = run(src, 4, &[]);
        assert!(r.ok(), "{:?} {:?}", r.error, r.deadlock);
        assert_eq!(r.exit_code, Some(4));
        assert_eq!(r.metrics.threads_created, 4);
    }

    #[test]
    fn parallel_uses_nthreads_default() {
        let src = r#"
int counter;
int main(void) {
    #pragma omp parallel
    { __fetch_add(&counter, 1); }
    return counter;
}
"#;
        let r = run(src, 3, &[]);
        assert_eq!(r.exit_code, Some(3));
    }

    #[test]
    fn single_executes_once() {
        let src = r#"
int n;
int main(void) {
    #pragma omp parallel num_threads(4)
    {
        #pragma omp single
        { n = n + 1; }
        #pragma omp single
        { n = n + 1; }
    }
    return n;
}
"#;
        let r = run(src, 4, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, Some(2));
    }

    #[test]
    fn critical_protects_counter() {
        let src = r#"
int sum;
int main(void) {
    #pragma omp parallel num_threads(4)
    {
        int i = 0;
        while (i < 100) {
            #pragma omp critical
            { sum = sum + 1; }
            i = i + 1;
        }
    }
    return sum == 400;
}
"#;
        let r = run(src, 4, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, Some(1));
    }

    #[test]
    fn tasks_execute_and_taskwait_joins() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            { x = x + 40; }
            #pragma omp taskwait
            x = x + 2;
        }
    }
    return x;
}
"#;
        for nt in [1, 2] {
            let r = run(src, nt, &[]);
            assert!(r.ok(), "nt={nt}: {:?}", r.error);
            assert_eq!(r.exit_code, Some(42), "nt={nt}");
        }
    }

    #[test]
    fn firstprivate_captures_value() {
        let src = r#"
int result;
int main(void) {
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            int v = 10;
            #pragma omp task
            { result = v; }   // v is firstprivate: copied at creation
            v = 99;
            #pragma omp taskwait
        }
    }
    return result;
}
"#;
        // With 1 thread the task is included (runs at creation, sees 10);
        // with 2 threads the payload copy also preserves 10.
        for nt in [1, 2] {
            let r = run(src, nt, &[]);
            assert_eq!(r.exit_code, Some(10), "nt={nt} {:?}", r.error);
        }
    }

    #[test]
    fn task_dependencies_order_execution() {
        let src = r#"
int main(void) {
    int x = 0;
    int ok = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp single
        {
            #pragma omp task depend(out: x) shared(x)
            { x = 1; }
            #pragma omp task depend(inout: x) shared(x)
            { x = x * 10; }
            #pragma omp task depend(in: x) shared(x, ok)
            { ok = (x == 10); }
        }
    }
    return ok;
}
"#;
        for nt in [1, 4] {
            let r = run(src, nt, &[]);
            assert!(r.ok(), "nt={nt}: {:?} deadlock={}", r.error, r.deadlock);
            assert_eq!(r.exit_code, Some(1), "nt={nt}");
        }
    }

    #[test]
    fn taskgroup_waits_for_descendants() {
        let src = r#"
int done;
int main(void) {
    int after = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp taskgroup
            {
                #pragma omp task
                {
                    #pragma omp task
                    { __fetch_add(&done, 1); }
                    __fetch_add(&done, 1);
                }
            }
            after = done;
        }
    }
    return after;
}
"#;
        for nt in [1, 2] {
            let r = run(src, nt, &[]);
            assert_eq!(r.exit_code, Some(2), "nt={nt} {:?}", r.error);
        }
    }

    #[test]
    fn taskloop_covers_iteration_space() {
        let src = r#"
int main(void) {
    int a[64];
    int i;
    for (i = 0; i < 64; i++) a[i] = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp single
        {
            #pragma omp taskloop grainsize(4) shared(a)
            for (int j = 0; j < 64; j++) a[j] = a[j] + 1;
        }
    }
    int sum = 0;
    for (i = 0; i < 64; i++) sum += a[i];
    return sum;
}
"#;
        for nt in [1, 4] {
            let r = run(src, nt, &[]);
            assert!(r.ok(), "nt={nt}: {:?}", r.error);
            assert_eq!(r.exit_code, Some(64), "nt={nt}");
        }
    }

    #[test]
    fn threadprivate_gives_each_thread_a_copy() {
        let src = r#"
int tp;
#pragma omp threadprivate(tp)
int distinct;
int main(void) {
    #pragma omp parallel num_threads(4)
    {
        tp = omp_get_thread_num() + 1;
        #pragma omp barrier
        if (tp == omp_get_thread_num() + 1) __fetch_add(&distinct, 1);
    }
    return distinct;
}
"#;
        let r = run(src, 4, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, Some(4));
    }

    #[test]
    fn barriers_synchronize_phases() {
        let src = r#"
int phase1[8];
int bad;
int main(void) {
    #pragma omp parallel num_threads(4)
    {
        int me = omp_get_thread_num();
        phase1[me] = 1;
        #pragma omp barrier
        int i = 0;
        while (i < 4) {
            if (phase1[i] == 0) __fetch_add(&bad, 1);
            i = i + 1;
        }
    }
    return bad;
}
"#;
        let r = run(src, 4, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, Some(0));
    }

    #[test]
    fn cilk_spawn_and_sync() {
        let src = r#"
int fib(int n) {
    if (n < 2) return n;
    int a = cilk_spawn fib(n - 1);
    int b = fib(n - 2);
    cilk_sync;
    return a + b;
}
int main(void) { return fib(10); }
"#;
        let r = run(src, 1, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, Some(55));
    }

    #[test]
    fn master_runs_on_thread_zero_only() {
        let src = r#"
int n;
int main(void) {
    #pragma omp parallel num_threads(4)
    {
        #pragma omp master
        { n = n + 1; }
    }
    return n;
}
"#;
        let r = run(src, 4, &[]);
        assert_eq!(r.exit_code, Some(1));
    }

    #[test]
    fn dbi_mode_agrees_with_fast_mode() {
        let src = r#"
int main(void) {
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task depend(out: x) shared(x)
            { x = 21; }
            #pragma omp task depend(inout: x) shared(x)
            { x = x * 2; }
        }
    }
    return x;
}
"#;
        let fast = run(src, 2, &[]);
        let dbi = run_dbi(src, 2);
        assert_eq!(fast.exit_code, Some(42), "{:?}", fast.error);
        assert_eq!(dbi.exit_code, Some(42), "{:?}", dbi.error);
        assert!(dbi.metrics.translations > 0);
    }

    #[test]
    fn tsan_build_still_computes_correctly() {
        let src = r#"
int g;
int main(void) {
    g = 5;
    int *p = &g;
    *p = *p + 37;
    return g;
}
"#;
        let m = build_program_tsan(&[SourceFile::new("t.c", src)]).unwrap();
        let r = Vm::new(m, Box::new(NulTool), VmConfig::default()).run(ExecMode::Fast, &[]);
        assert_eq!(r.exit_code, Some(42), "{:?}", r.error);
    }

    #[test]
    fn client_request_codes_match_grindcore() {
        // libomp.mc hardcodes decimal creq codes; keep them in sync.
        use grindcore::creq;
        for (dec, code) in [
            (4096, creq::PARALLEL_BEGIN),
            (4097, creq::PARALLEL_END),
            (4098, creq::IMPLICIT_TASK_BEGIN),
            (4099, creq::IMPLICIT_TASK_END),
            (4112, creq::TASK_CREATE),
            (4113, creq::TASK_DEP),
            (4114, creq::TASK_BEGIN),
            (4115, creq::TASK_END),
            (4116, creq::TASKWAIT),
            (4117, creq::TASKGROUP_BEGIN),
            (4118, creq::TASKGROUP_END),
            (4119, creq::BARRIER),
            (4120, creq::CRITICAL_ENTER),
            (4121, creq::CRITICAL_EXIT),
            (4176, creq::USER_DEFERRABLE),
            (4192, creq::DISCARD_TRANSLATIONS),
        ] {
            assert_eq!(dec, code);
            assert!(
                LIBOMP_MC.contains(&dec.to_string()),
                "libomp.mc must reference creq code {dec}"
            );
        }
        assert_eq!(minicc::omp::TASK_PAYLOAD_OFF, 64);
    }

    #[test]
    fn nested_parallel_serializes() {
        let src = r#"
int n;
int main(void) {
    #pragma omp parallel num_threads(2)
    {
        #pragma omp parallel num_threads(2)
        { __fetch_add(&n, 1); }
    }
    return n;
}
"#;
        let r = run(src, 2, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, Some(2), "inner regions serialize");
    }
}
