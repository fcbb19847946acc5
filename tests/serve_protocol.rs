//! Integration tests for the `tgrind serve` wire protocol: concurrent
//! job parity with one-shot runs, structured errors for bad guests,
//! bounded-queue admission control, and cross-job compile reuse through
//! a shared code cache.

use std::path::PathBuf;
use tg_engine::serve::{Client, ServeOptions, Server};
use tg_engine::{Program, RunRequest, Session};
use tg_obs::json::JsonValue;

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
    int a = 40;
    printf("val=%d\n", a + 2);
    return 0;
}
"#;

const BROKEN: &str = "int main(void { return 0; }";

/// A slow guest: a long serial loop keeps one worker busy while the
/// queue-full test submits behind it.
const SLOW: &str = r#"
int main(void) {
    int acc = 0;
    for (int i = 0; i < 400000; i++) acc += i;
    printf("acc=%d\n", acc);
    return 0;
}
"#;

/// A guest write of 2^62 bytes, which once aborted the whole daemon on
/// the host allocation.
const OVERSIZED_WRITE: &str = r#"
int main(void) {
    char *s = "x";
    __sys(1, 1, s, 4611686018427387904);
    return 0;
}
"#;

const DIVIDE_BY_ZERO: &str = "int main(void) { int z = 0; return 5 / z; }";

/// A short socket path under the workspace `target/` directory (Unix
/// socket paths are length-limited, so no deep tempdirs).
fn sock(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/serve-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// JSON-encode an inline-source run request with extra fields spliced in.
fn run_line(name: &str, text: &str, extra: &str) -> String {
    format!(
        "{{\"op\":\"run\",\"source\":{{\"name\":\"{}\",\"text\":\"{}\"}},\"threads\":2{}{extra}}}",
        tg_obs::json::escape(name),
        tg_obs::json::escape(text),
        if extra.is_empty() { "" } else { "," },
    )
}

/// Read protocol lines until a terminal `result`/`error`/`pong`/`bye`
/// line arrives; returns (statuses, terminal).
fn drive(client: &mut Client) -> (Vec<JsonValue>, JsonValue) {
    let mut statuses = Vec::new();
    loop {
        let line = client.recv().expect("socket read").expect("connection closed early");
        let doc = tg_obs::json::parse(&line).expect("daemon emitted invalid JSON");
        let ty = doc.get("type").and_then(JsonValue::as_str).unwrap_or("").to_string();
        match ty.as_str() {
            "status" => statuses.push(doc),
            _ => return (statuses, doc),
        }
    }
}

fn submit(path: &std::path::Path, line: &str) -> Client {
    let mut c = Client::connect(path).expect("connect");
    c.send(line).expect("send");
    c
}

fn str_field<'j>(doc: &'j JsonValue, key: &str) -> &'j str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("missing {key}: {doc:?}"))
}

fn u64_field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or_else(|| panic!("missing {key}: {doc:?}"))
}

#[test]
fn concurrent_jobs_match_one_shot_and_bad_guests_fail_structured() {
    let path = sock("parity.sock");
    let server = Server::start(&path, ServeOptions::default()).expect("start server");

    // Three concurrent submissions: broken source, racy, clean.
    let mut broken = submit(&path, &run_line("broken.c", BROKEN, ""));
    let mut racy = submit(&path, &run_line("racy.c", RACY, ""));
    let mut clean = submit(&path, &run_line("clean.c", CLEAN, ""));

    let (_, berr) = drive(&mut broken);
    assert_eq!(str_field(&berr, "type"), "error");
    assert_eq!(str_field(&berr, "reason"), "build_failed");
    assert!(str_field(&berr, "message").contains("broken.c:1"));

    let (rstat, rres) = drive(&mut racy);
    let (_, cres) = drive(&mut clean);
    assert_eq!(str_field(&rres, "type"), "result");
    assert_eq!(str_field(&cres, "type"), "result");

    // Every admitted job streams queued -> running -> loaded statuses,
    // in that order, before its result.
    let states: Vec<&str> = rstat.iter().map(|s| str_field(s, "state")).collect();
    assert_eq!(states, ["queued", "running", "loaded"], "status order");

    // Byte-identical to in-process one-shot runs of the same requests.
    let session = Session::new();
    let one_shot = |name: &str, text: &str| {
        session
            .run(&RunRequest {
                program: Program::Source { name: name.into(), text: text.into() },
                threads: 2,
                ..RunRequest::default()
            })
            .expect("one-shot run")
    };
    let r1 = one_shot("racy.c", RACY);
    assert_eq!(str_field(&rres, "stdout"), r1.stdout);
    assert_eq!(str_field(&rres, "report"), r1.report);
    assert_eq!(u64_field(&rres, "exit"), u64::from(r1.exit));
    assert_eq!(u64_field(&rres, "reports"), r1.n_reports as u64);
    assert!(r1.n_reports > 0);

    let c1 = one_shot("clean.c", CLEAN);
    assert_eq!(str_field(&cres, "stdout"), c1.stdout);
    assert_eq!(str_field(&cres, "stdout"), "val=42\n");
    assert_eq!(str_field(&cres, "report"), "");
    assert_eq!(u64_field(&cres, "exit"), 0);

    // Ping reflects the three submissions (2 completed, 1 failed).
    let mut ping = submit(&path, "{\"op\":\"ping\"}");
    let (_, pong) = drive(&mut ping);
    assert_eq!(str_field(&pong, "type"), "pong");
    assert_eq!(u64_field(&pong, "submitted"), 3);
    assert_eq!(u64_field(&pong, "completed"), 2);
    assert_eq!(u64_field(&pong, "failed"), 1);

    server.stop();
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

/// A guest fault ends only its own job: the oversized write comes back
/// as a result with the exit status of any other faulting guest, and the
/// same daemon then completes the next job.
#[test]
fn faulting_guest_write_leaves_the_daemon_serving() {
    let path = sock("fault.sock");
    let server = Server::start(&path, ServeOptions::default()).expect("start server");
    let session = Session::new();
    let one_shot = |name: &str, text: &str| {
        session
            .run(&RunRequest {
                program: Program::Source { name: name.into(), text: text.into() },
                threads: 2,
                ..RunRequest::default()
            })
            .expect("one-shot run")
    };

    let mut c = submit(&path, &run_line("write.c", OVERSIZED_WRITE, ""));
    let (_, res) = drive(&mut c);
    assert_eq!(str_field(&res, "type"), "result", "{res:?}");
    assert_eq!(str_field(&res, "stdout"), "");
    let faulted = one_shot("div.c", DIVIDE_BY_ZERO);
    assert_eq!(u64_field(&res, "exit"), u64::from(faulted.exit));
    assert_eq!(u64_field(&res, "exit"), u64::from(one_shot("write.c", OVERSIZED_WRITE).exit));

    let mut c = submit(&path, &run_line("clean.c", CLEAN, ""));
    let (_, res) = drive(&mut c);
    assert_eq!(str_field(&res, "type"), "result");
    assert_eq!(str_field(&res, "stdout"), "val=42\n");

    let mut ping = submit(&path, "{\"op\":\"ping\"}");
    let (_, pong) = drive(&mut ping);
    assert_eq!(u64_field(&pong, "completed"), 2);
    server.stop();
}

#[test]
fn full_queue_rejects_with_structured_error() {
    let path = sock("backpressure.sock");
    let opts = ServeOptions { workers: 1, queue_cap: 1, ..ServeOptions::default() };
    let server = Server::start(&path, opts).expect("start server");

    // Job 1 occupies the single worker; wait for its `running` status so
    // the admission state is deterministic before submitting more.
    let mut slow = submit(&path, &run_line("slow.c", SLOW, ""));
    loop {
        let line = slow.recv().expect("read").expect("closed");
        if line.contains("\"state\":\"running\"") {
            break;
        }
    }

    // Job 2 fills the single queue slot; job 3 must be rejected.
    let mut queued = submit(&path, &run_line("clean.c", CLEAN, ""));
    let line = queued.recv().expect("read").expect("closed");
    assert!(line.contains("\"state\":\"queued\""), "expected queued ack, got: {line}");

    let mut rejected = submit(&path, &run_line("clean2.c", CLEAN, ""));
    let (_, err) = drive(&mut rejected);
    assert_eq!(str_field(&err, "type"), "error");
    assert_eq!(str_field(&err, "reason"), "queue_full");

    // The admitted jobs still complete normally after the rejection.
    let (_, sres) = drive(&mut slow);
    assert_eq!(str_field(&sres, "type"), "result");
    assert_eq!(str_field(&sres, "stdout"), "acc=79999800000\n");
    let (_, qres) = drive(&mut queued);
    assert_eq!(str_field(&qres, "type"), "result");

    server.stop();
}

#[test]
fn second_job_on_same_binary_reuses_compiles() {
    let path = sock("reuse.sock");
    let server = Server::start(&path, ServeOptions::default()).expect("start server");
    let cache_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/serve-test/reuse-cc");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let extra =
        format!("\"code_cache\":\"{}\"", tg_obs::json::escape(&cache_dir.display().to_string()));

    let mut first = submit(&path, &run_line("racy.c", RACY, &extra));
    let (_, res1) = drive(&mut first);
    assert_eq!(str_field(&res1, "type"), "result");
    let m1 = res1.get("metrics").expect("metrics");
    let translations1 = u64_field(m1, "vm.translations");
    assert!(translations1 > 0, "cold job must translate blocks");

    let mut second = submit(&path, &run_line("racy.c", RACY, &extra));
    let (stat2, res2) = drive(&mut second);
    assert_eq!(str_field(&res2, "type"), "result");

    // The module build is memoized across jobs.
    let loaded: Vec<_> = stat2.iter().filter(|s| str_field(s, "state") == "loaded").collect();
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0].get("memoized").map(|v| matches!(v, JsonValue::Bool(true))), Some(true));

    // Job 2 compiles (almost) nothing: every block the cold job stored
    // comes back from the shared disk cache.
    let m2 = res2.get("metrics").expect("metrics");
    let translations2 = u64_field(m2, "vm.translations");
    let hits = u64_field(m2, "cache.hits");
    let misses = u64_field(m2, "cache.misses");
    assert!(
        translations2 * 10 <= translations1,
        "warm job must skip >=90% of compiles: cold={translations1} warm={translations2}"
    );
    assert!(hits > 0);
    assert!(
        hits * 100 >= (hits + misses) * 90,
        "warm job cache hit rate must be >=90%: hits={hits} misses={misses}"
    );

    // Identical analysis output either way.
    assert_eq!(str_field(&res1, "report"), str_field(&res2, "report"));
    assert_eq!(u64_field(&res1, "reports"), u64_field(&res2, "reports"));

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// An unsynchronized two-thread write on a global: the confirmation
/// replay can flip it, so a `confirm_races` job reports a verdict.
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

#[test]
fn confirm_races_forwards_per_job() {
    let path = sock("confirm.sock");
    let server = Server::start(&path, ServeOptions::default()).expect("start server");

    // Job 1 opts into confirmation; job 2 (same guest) does not.
    let mut on = submit(
        &path,
        &run_line("flip.c", FLIPPABLE, "\"confirm_races\":true,\"confirm_budget\":4"),
    );
    let (_, ron) = drive(&mut on);
    assert_eq!(str_field(&ron, "type"), "result");
    assert!(
        str_field(&ron, "summary").contains("== confirm:"),
        "confirm job must render the confirm summary line: {}",
        str_field(&ron, "summary")
    );
    assert!(str_field(&ron, "report").contains("confirmed under replay schedule"));
    let metrics = ron.get("metrics").expect("metrics");
    assert!(u64_field(metrics, "confirm.replays") > 0);
    assert!(u64_field(metrics, "confirm.confirmed") > 0);

    let mut off = submit(&path, &run_line("flip.c", FLIPPABLE, ""));
    let (_, roff) = drive(&mut off);
    assert_eq!(str_field(&roff, "type"), "result");
    assert!(!str_field(&roff, "summary").contains("== confirm:"), "confirm stays opt-in");
    assert!(!str_field(&roff, "report").contains("confirmed"));
    assert_eq!(u64_field(&ron, "reports"), u64_field(&roff, "reports"));

    server.stop();
}

/// `tgrind submit` must refuse flags it cannot forward with the same
/// structured `bad_request` line the daemon itself emits, instead of
/// the historical warn-and-exit-0.
#[test]
fn submit_rejects_unforwardable_flags_with_structured_echo() {
    let args = ["submit", "--socket=/tmp/x.sock", "--dot=g.dot", "--trace-out=t.json", "p.c"];
    let o = tg_cli::engine::parse_args(args.iter().map(|s| s.to_string()));
    let bad = tg_cli::engine::unforwardable_flags(&o);
    assert_eq!(bad, ["--trace-out", "--dot"]);
    // The echo reuses the daemon's error_line renderer, so it parses as
    // the same structured error a serve-side rejection produces.
    for flag in bad {
        let line = tg_engine::serve::error_line(
            None,
            "bad_request",
            &format!("{flag} is not forwarded to the daemon; drop it or run one-shot"),
        );
        let doc = tg_obs::json::parse(&line).expect("echo is valid JSON");
        assert_eq!(str_field(&doc, "type"), "error");
        assert_eq!(str_field(&doc, "reason"), "bad_request");
        assert!(str_field(&doc, "message").contains(flag));
    }
    // Forwardable requests (confirm included) stay clean.
    let args = ["submit", "--socket=/tmp/x.sock", "--confirm-races", "p.c"];
    let o = tg_cli::engine::parse_args(args.iter().map(|s| s.to_string()));
    assert!(tg_cli::engine::unforwardable_flags(&o).is_empty());
}

#[test]
fn per_job_globals_and_unknown_fields_are_rejected() {
    let path = sock("badreq.sock");
    let server = Server::start(&path, ServeOptions::default()).expect("start server");

    for (line, want) in [
        ("{\"op\":\"run\",\"program\":\"p.c\",\"metrics_json\":\"m.json\"}", "daemon-global"),
        ("{\"op\":\"run\",\"program\":\"p.c\",\"wat\":1}", "unknown request field"),
        // The reference engines are test oracles, not per-job knobs.
        ("{\"op\":\"run\",\"program\":\"p.c\",\"chaining\":false}", "unknown request field"),
        ("{\"op\":\"run\",\"program\":\"p.c\",\"sweep\":false}", "unknown request field"),
        ("{\"op\":\"run\",\"program\":\"p.c\",\"bulk\":false}", "unknown request field"),
        ("{\"op\":\"run\",\"program\":\"p.c\",\"fuse\":true}", "unknown request field"),
        // Analysis always runs once, after recording.
        ("{\"op\":\"run\",\"program\":\"p.c\",\"streaming\":true}", "unknown request field"),
        ("{\"op\":\"run\",\"program\":\"p.c\",\"max_live_segments\":4}", "unknown request field"),
        // Not a per-job knob: an absurd worker count must be refused,
        // not allocated.
        (
            "{\"op\":\"run\",\"program\":\"p.c\",\"compile_threads\":2199023255552}",
            "unknown request field",
        ),
        // The sweep runs on one thread.
        (
            "{\"op\":\"run\",\"program\":\"p.c\",\"analysis_threads\":2199023255552}",
            "unknown request field",
        ),
        // Runs never run the lockset pass; only `tgrind lint` does.
        (
            "{\"op\":\"run\",\"program\":\"p.c\",\"static_concurrency\":true}",
            "unknown request field",
        ),
        ("{\"op\":\"run\"}", "missing \\\"program\\\""),
        ("not json", "invalid JSON"),
    ] {
        let mut c = submit(&path, line);
        let (_, err) = drive(&mut c);
        assert_eq!(str_field(&err, "type"), "error", "for request {line}");
        assert_eq!(str_field(&err, "reason"), "bad_request", "for request {line}");
        let msg = str_field(&err, "message");
        let want_plain = want.replace("\\\"", "\"");
        assert!(msg.contains(&want_plain), "for request {line}: message {msg:?}");
    }

    // The daemon survived every rejected request: a valid job still runs.
    let mut c = submit(&path, &run_line("clean.c", CLEAN, ""));
    let (_, res) = drive(&mut c);
    assert_eq!(str_field(&res, "type"), "result");
    assert_eq!(str_field(&res, "stdout"), "val=42\n");

    // A shutdown op answers `bye` and stops the daemon.
    let mut c = submit(&path, "{\"op\":\"shutdown\"}");
    let (_, bye) = drive(&mut c);
    assert_eq!(str_field(&bye, "type"), "bye");
    server.join();
    assert!(!path.exists());
}
