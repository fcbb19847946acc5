//! tg-obs integration: structured tracing must be invisible to every
//! verdict-bearing output, and a traced run must export a well-formed
//! Chrome-trace/Perfetto timeline carrying both the host pipeline
//! phases and the guest task-segment track.
//!
//! The trace ring is process-global, so the tests in this binary
//! serialize on a mutex (cargo runs `#[test]`s of one binary in
//! parallel threads).

use std::sync::Mutex;
use taskgrind::{check_module, TaskgrindConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const RACY_TASKS: &str = r#"
int main(void) {
    int *x = (int*) malloc(4 * sizeof(int));
    #pragma omp parallel
    {
        #pragma omp single
        {
            for (int i = 0; i < 8; i++) {
                #pragma omp task shared(x)
                x[i % 4] = i;
            }
            #pragma omp taskwait
        }
    }
    printf("%d\n", x[0]);
    return 0;
}
"#;

const ORDERED_DEPS: &str = r#"
int main(void) {
    int a = 0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task depend(out: a)
            a = 1;
            #pragma omp task depend(in: a)
            printf("%d\n", a);
        }
    }
    return 0;
}
"#;

const CRITICAL_LOOP: &str = r#"
int main(void) {
    int sum = 0;
    #pragma omp parallel
    {
        #pragma omp critical
        sum = sum + 1;
        #pragma omp barrier
    }
    printf("%d\n", sum);
    return 0;
}
"#;

fn run(name: &str, src: &str) -> taskgrind::TaskgrindResult {
    let m = guest_rt::build_single(name, src).expect("compiles");
    let cfg = TaskgrindConfig {
        vm: grindcore::VmConfig { nthreads: 2, ..Default::default() },
        ..Default::default()
    };
    check_module(&m, &[], &cfg)
}

/// Table-style differential: enabling the trace ring must leave every
/// verdict, counter and rendered report bit-identical.
#[test]
fn tracing_is_invisible_to_verdicts() {
    let _g = lock();
    for (name, src) in [
        ("racy_tasks.c", RACY_TASKS),
        ("ordered_deps.c", ORDERED_DEPS),
        ("critical_loop.c", CRITICAL_LOOP),
    ] {
        tg_obs::trace::shutdown();
        let plain = run(name, src);

        tg_obs::trace::init_default();
        let traced = run(name, src);
        let trace = tg_obs::trace::export_chrome_json();
        tg_obs::trace::shutdown();

        let ctx = name;
        assert_eq!(plain.render_all(), traced.render_all(), "{ctx}: report text");
        assert_eq!(plain.n_reports(), traced.n_reports(), "{ctx}: report count");
        assert_eq!(plain.analysis.candidates, traced.analysis.candidates, "{ctx}: candidates");
        assert_eq!(plain.accesses_recorded, traced.accesses_recorded, "{ctx}: accesses recorded");
        tg_obs::trace::validate_chrome_trace(&trace)
            .unwrap_or_else(|e| panic!("{ctx}: invalid trace: {e}"));
    }
}

/// A traced run exports well-formed Chrome-trace JSON whose spans cover
/// the host pipeline (recording, translation, analysis, report) and
/// whose guest track carries the task-segment timeline.
#[test]
fn traced_run_exports_host_and_guest_tracks() {
    let _g = lock();
    tg_obs::trace::shutdown();
    tg_obs::trace::init_default();
    let r = run("racy_tasks.c", RACY_TASKS);
    assert!(r.n_reports() > 0, "the workload must report races");
    let trace = tg_obs::trace::export_chrome_json();
    tg_obs::trace::shutdown();

    let s = tg_obs::trace::validate_chrome_trace(&trace).expect("well-formed trace");
    assert!(s.begins > 0 && s.begins == s.ends, "balanced spans: {s:?}");
    assert!(s.pids.contains(&u64::from(tg_obs::trace::PID_HOST)), "host track present");
    assert!(s.pids.contains(&u64::from(tg_obs::trace::PID_GUEST)), "guest track present");
    // Host pipeline phases.
    for phase in ["recording", "translate", "lift", "instrument", "analysis", "report"] {
        assert!(s.names.contains(phase), "missing host phase span `{phase}`: {:?}", s.names);
    }
    // Guest task-segment timeline from the runtime's client requests.
    assert!(s.names.contains("parallel"), "missing guest parallel span: {:?}", s.names);
    assert!(
        s.names.iter().any(|n| n.starts_with("task ") || n.starts_with("implicit task")),
        "missing guest task spans: {:?}",
        s.names
    );
    // Closing segments sample the bytes of their interval trees.
    assert!(s.counters > 0, "no counter samples: {s:?}");
    assert!(s.names.contains("closed_bytes"), "missing closed_bytes counter: {:?}", s.names);
}

/// A traced `tgrind warm` fans its ahead-of-time compile across the
/// pool: the trace names one timeline track per worker and carries the
/// `compile` spans the workers emit.
#[test]
fn traced_async_compile_run_names_worker_tracks() {
    let _g = lock();
    let m = guest_rt::build_single("racy_tasks.c", RACY_TASKS).expect("compiles");
    let dir = std::env::temp_dir().join(format!("tg-obs-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hash = tg_cache::module_hash(&m);
    let mut cache = tg_cache::DiskCodeCache::open(&dir, hash, 0).expect("cache opens");
    tg_obs::trace::shutdown();
    tg_obs::trace::init_default();
    let stats = tg_engine::Session::new().warm_module_with(
        &m,
        hash,
        taskgrind::tool::RecordOptions::default(),
        &mut cache,
        2,
    );
    let trace = tg_obs::trace::export_chrome_json();
    tg_obs::trace::shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(stats.threads, 2, "both workers must spawn");
    assert!(stats.precompiled > 0, "warm must precompile blocks: {stats:?}");
    let s = tg_obs::trace::validate_chrome_trace(&trace).expect("well-formed trace");
    assert!(s.names.contains("compile"), "missing compile spans: {:?}", s.names);
    // Track names arrive as thread-metadata events, which the validator
    // skips when collecting span names — assert them on the raw JSON.
    for worker in ["warm.worker0", "warm.worker1"] {
        assert!(
            trace.contains(&format!("\"{worker}\"")),
            "missing worker track `{worker}` in exported trace"
        );
    }
}

/// With the ring disabled (the default), the hooks stay cold: nothing
/// is buffered and the exporter emits an empty-but-valid trace.
#[test]
fn disabled_tracing_buffers_nothing() {
    let _g = lock();
    tg_obs::trace::shutdown();
    let _ = run("ordered_deps.c", ORDERED_DEPS);
    assert!(!tg_obs::trace::enabled());
    assert_eq!(tg_obs::trace::buffered(), 0);
    let trace = tg_obs::trace::export_chrome_json();
    let s = tg_obs::trace::validate_chrome_trace(&trace).expect("empty trace is valid");
    assert_eq!(s.begins, 0);
    assert_eq!(s.instants, 0);
}
