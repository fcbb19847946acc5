//! Session reuse regression tests: one `Session` running multiple
//! different guests back-to-back must not leak state between runs.
//!
//! Before the engine-as-a-library refactor every run was a fresh
//! process, so cross-run leakage was structurally impossible. A
//! long-lived `tgrind serve` daemon loses that guarantee; these tests
//! pin the isolation properties the daemon relies on: per-run
//! registries, per-run report sets, a disabled global trace ring, and
//! correct module/facts memoization keyed by content hash.

use tg_engine::{Program, RunRequest, Session};

const RACY: &str = r#"
int main(void) {
    int *x = (int*) malloc(2 * sizeof(int));
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x[0] = 42;
            #pragma omp task shared(x)
            x[0] = 43;
        }
    }
    return 0;
}
"#;

const CLEAN: &str = r#"
int main(void) {
    int a = 7;
    int b = 35;
    printf("answer=%d\n", a + b);
    return 0;
}
"#;

fn req(name: &str, text: &str) -> RunRequest {
    RunRequest {
        program: Program::Source { name: name.into(), text: text.into() },
        threads: 2,
        ..RunRequest::default()
    }
}

#[test]
fn two_programs_back_to_back_do_not_share_state() {
    let session = Session::new();

    let racy = session.run(&req("racy.c", RACY)).expect("racy run");
    assert!(racy.n_reports > 0, "racy guest must report a race");
    assert_eq!(racy.exit, 1);
    assert!(racy.warnings.is_empty());

    // A different binary in the same session: its outcome must be
    // computed from its own module, facts, and registry — not the racy
    // program's.
    let clean = session.run(&req("clean.c", CLEAN)).expect("clean run");
    assert_eq!(
        clean.n_reports, 0,
        "clean guest inherited reports from the previous run: {}",
        clean.report
    );
    assert_eq!(clean.exit, 0);
    assert_eq!(clean.stdout, "answer=42\n");
    assert!(clean.report.is_empty());
    assert!(clean.warnings.is_empty());
    assert!(!clean.deadlock);

    // Registries are per-run: instruction counts must differ (the two
    // guests execute different code) and each run's report counter must
    // describe that run alone.
    assert_eq!(racy.registry.u64("taskgrind.reports"), racy.n_reports as u64);
    assert_eq!(clean.registry.u64("taskgrind.reports"), 0);
    assert_ne!(
        racy.registry.u64("vm.instrs"),
        clean.registry.u64("vm.instrs"),
        "per-run registries must not alias"
    );

    assert_eq!(session.runs_completed(), 2);
}

#[test]
fn rerunning_the_same_program_is_memoized_and_deterministic() {
    let session = Session::new();
    let request = req("racy.c", RACY);

    let first = session.run(&request).expect("first run");
    let second = session.run(&request).expect("second run");

    // Same guest, same request: byte-identical report and stdout.
    assert_eq!(first.report, second.report);
    assert_eq!(first.stdout, second.stdout);
    assert_eq!(first.n_reports, second.n_reports);

    // The module build is memoized by content hash.
    let (_, memoized) = session.module(&request.program, false).expect("module lookup");
    assert!(memoized, "third lookup of the same source must hit the memo");

    // A different source under the same file name must NOT hit the memo
    // (keying is by content, not by name alone).
    let other = Program::Source { name: "racy.c".into(), text: CLEAN.into() };
    let clean_out = session
        .run(&RunRequest { program: other, ..req("racy.c", CLEAN) })
        .expect("clean-under-same-name run");
    assert_eq!(clean_out.n_reports, 0);
}

#[test]
fn trace_ring_stays_disabled_after_untraced_runs() {
    let session = Session::new();
    let out = session.run(&req("clean.c", CLEAN)).expect("run");
    assert!(out.trace_json.is_none());
    // The global trace ring must be left disabled: recording an event
    // now must be a no-op.
    assert!(!tg_obs::trace::enabled(), "trace ring was left enabled after an untraced run");
    tg_obs::trace::instant("leak-probe", 0, 1, Vec::new());
    assert_eq!(tg_obs::trace::buffered(), 0);
}

/// A warm job in a session that memoized its facts reads only its
/// blocks from the code cache: checking that the container already holds
/// the facts copies nothing. A fresh session on the same directory has
/// no memo, so it loads the facts too and counts them.
#[test]
fn warm_job_loads_only_its_blocks() {
    let dir = std::env::temp_dir().join(format!("tg-warm-loads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut request = req("racy.c", RACY);
    request.engine.code_cache = Some(dir.to_string_lossy().into_owned());

    let session = Session::new();
    let cold = session.run(&request).expect("cold run");
    assert_eq!(cold.registry.u64("cache.bytes_loaded"), 0);
    let warm = session.run(&request).expect("warm run");
    let fresh = Session::new().run(&request).expect("run in a fresh session");

    let (loaded, _) = session.module(&request.program, false).expect("module lookup");
    let facts = tga_analysis::analyze_with(&loaded.module, &taskgrind::RUN_ANALYZE_OPTS);
    let (warm_bytes, fresh_bytes) =
        (warm.registry.u64("cache.bytes_loaded"), fresh.registry.u64("cache.bytes_loaded"));
    assert!(warm.registry.u64("cache.hits") > 0, "the warm job runs from the cache");
    assert_eq!(warm.registry.u64("cache.hits"), fresh.registry.u64("cache.hits"));
    assert!(warm_bytes > 0);
    assert_eq!(
        fresh_bytes - warm_bytes,
        facts.to_bytes().len() as u64,
        "only the fresh session loads the facts"
    );
    assert_eq!((warm.report, warm.stdout), (fresh.report, fresh.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}
