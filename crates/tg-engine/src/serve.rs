//! `tgrind serve` — a persistent analysis daemon over the session API.
//!
//! One [`Server`] owns one [`Session`]: an acceptor thread takes
//! connections on a Unix socket, parses one line-delimited JSON request
//! per connection, and enqueues analysis jobs on a bounded
//! [`grindcore::CompilePool`]. The pool's `sync_channel` bound *is* the
//! admission-control rule: when the queue is full, `try_send` hands the
//! job back and the client receives a structured `queue_full` error
//! instead of unbounded latency.
//!
//! Protocol (one request per connection, newline-terminated JSON):
//!
//! ```text
//! -> {"op":"run","source":{"name":"p.c","text":"..."},"tool":"taskgrind","threads":2}
//! <- {"type":"status","job":1,"state":"queued","queue_depth":0}
//! <- {"type":"status","job":1,"state":"running","worker":0}
//! <- {"type":"status","job":1,"state":"loaded","module_hash":"91ab...","memoized":true}
//! <- {"type":"result","job":1,"exit":0,"deadlock":false,"reports":0,
//!     "stdout":"...","report":"...","summary":"...","warnings":[],
//!     "metrics":{...}}            <- the --metrics-json registry, compact
//! ```
//!
//! Errors are `{"type":"error","reason":"queue_full"|"bad_request"|
//! "read_failed"|"build_failed"|...,"message":"..."}`. `{"op":"ping"}`
//! returns daemon statistics; `{"op":"shutdown"}` stops the daemon
//! after in-flight jobs finish.
//!
//! A job that panics is answered with reason `internal_error` and
//! counted in the `ping` reply's `panics`; its worker catches the
//! unwind and takes the next job, and the [`Session`] recovers its
//! locks from the poisoning, so later jobs run as usual.
//!
//! Per-job knobs are a whitelist of the CLI's run flags, each
//! overriding one field of the daemon's baseline [`EngineConfig`].
//! `trace_out`/`metrics_json` are deliberately *not* per-job: they are
//! file destinations owned by the daemon process, so requests naming
//! them are rejected as `bad_request` rather than silently racing other
//! jobs. Any other field is rejected as unknown.

use crate::config::EngineConfig;
use crate::session::{EngineError, Program, RunOutcome, RunRequest, Session};
use grindcore::CompilePool;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tg_obs::json::{escape, JsonValue};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Concurrent analysis workers (min 1).
    pub workers: usize,
    /// Bounded job-queue capacity (min 1); a full queue rejects
    /// submissions with `queue_full`.
    pub queue_cap: usize,
    /// Baseline engine configuration jobs inherit (per-job whitelisted
    /// knobs override it).
    pub engine: EngineConfig,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { workers: 2, queue_cap: 8, engine: EngineConfig::default() }
    }
}

/// How a worker runs a job: [`Session::run`], or a stand-in in tests.
type RunFn = fn(&Session, &RunRequest) -> Result<RunOutcome, EngineError>;

/// Daemon-wide shared state.
struct Shared {
    session: Session,
    engine: EngineConfig,
    run: RunFn,
    stop: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    /// Jobs answered with an error line, panicked ones included.
    failed: AtomicU64,
    /// Jobs that panicked (answered `internal_error`).
    panics: AtomicU64,
}

/// One admitted analysis job. The stream is shared with the acceptor
/// (which writes the `queued` ack) behind a mutex so concurrent
/// protocol lines never interleave mid-line.
struct Job {
    id: u64,
    stream: Arc<Mutex<UnixStream>>,
    req: RunRequest,
}

/// A running `tgrind serve` daemon. Dropping (or calling
/// [`Server::stop`]) shuts it down: the acceptor exits, queued jobs
/// drain, workers join, and the socket file is removed.
pub struct Server {
    path: PathBuf,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// A parsed client request.
enum Op {
    Run(Box<RunRequest>),
    Ping,
    Shutdown,
}

/// Write one newline-terminated protocol line, ignoring client
/// disconnects (the job still completes; only the report is lost). One
/// `write_all` per line plus the mutex keeps concurrently-written lines
/// (acceptor ack vs. worker status) from interleaving mid-line.
fn send(stream: &Mutex<UnixStream>, line: &str) {
    if let Ok(mut s) = stream.lock() {
        write_line(&mut s, line);
    }
}

/// [`send`] on a stream whose lock the caller already holds.
fn write_line(s: &mut UnixStream, line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = s.write_all(buf.as_bytes());
}

/// Render a structured error line. Public so `tgrind submit` can echo
/// client-side rejections (unforwardable flags) in the exact format the
/// daemon uses for its own `bad_request` responses.
pub fn error_line(job: Option<u64>, reason: &str, message: &str) -> String {
    match job {
        Some(id) => format!(
            "{{\"type\":\"error\",\"job\":{id},\"reason\":\"{}\",\"message\":\"{}\"}}",
            escape(reason),
            escape(message)
        ),
        None => format!(
            "{{\"type\":\"error\",\"reason\":\"{}\",\"message\":\"{}\"}}",
            escape(reason),
            escape(message)
        ),
    }
}

/// The machine-readable reason slug for an [`EngineError`].
fn error_reason(e: &EngineError) -> &'static str {
    match e {
        EngineError::Read { .. } => "read_failed",
        EngineError::Build(_) => "build_failed",
        EngineError::UnknownTool(_) => "unknown_tool",
        EngineError::CacheOpen { .. } => "cache_open_failed",
        EngineError::CacheFlush { .. } => "cache_flush_failed",
    }
}

/// Render the final result line for a completed run.
fn result_line(id: u64, tool: &str, o: &RunOutcome) -> String {
    let mut warnings = String::from("[");
    for (i, w) in o.warnings.iter().enumerate() {
        if i > 0 {
            warnings.push(',');
        }
        warnings.push('"');
        warnings.push_str(&escape(w));
        warnings.push('"');
    }
    warnings.push(']');
    format!(
        "{{\"type\":\"result\",\"job\":{id},\"tool\":\"{}\",\"exit\":{},\"deadlock\":{},\"reports\":{},\"stdout\":\"{}\",\"report\":\"{}\",\"summary\":\"{}\",\"warnings\":{},\"metrics\":{}}}",
        escape(tool),
        o.exit,
        o.deadlock,
        o.n_reports,
        escape(&o.stdout),
        escape(&o.report),
        escape(&o.summary),
        warnings,
        o.registry.to_json_compact(),
    )
}

fn as_bool(v: &JsonValue) -> Option<bool> {
    match v {
        JsonValue::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Parse and validate one request line against the per-job whitelist.
fn parse_request(line: &str, defaults: &EngineConfig) -> Result<Op, String> {
    let doc = tg_obs::json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = doc.as_object().ok_or("request must be a JSON object")?;
    let op = doc.get("op").and_then(JsonValue::as_str).ok_or("missing \"op\"")?;
    match op {
        "ping" => return Ok(Op::Ping),
        "shutdown" => return Ok(Op::Shutdown),
        "run" => {}
        other => return Err(format!("unknown op \"{other}\"")),
    }
    let mut req = RunRequest { engine: defaults.clone(), ..RunRequest::default() };
    // The daemon owns these: tracing/metrics destinations are files of
    // the serve process, and per-job changes would race other jobs.
    req.engine.trace_out = None;
    req.engine.metrics_json = None;
    let mut program = None;
    let need_bool = |k: &str, v: &JsonValue| {
        as_bool(v).ok_or_else(|| format!("field \"{k}\" must be a boolean"))
    };
    let need_u64 = |k: &str, v: &JsonValue| {
        v.as_u64().ok_or_else(|| format!("field \"{k}\" must be a number"))
    };
    let need_str = |k: &str, v: &JsonValue| {
        v.as_str().map(str::to_string).ok_or_else(|| format!("field \"{k}\" must be a string"))
    };
    for (key, value) in obj {
        match key.as_str() {
            "op" => {}
            "program" => program = Some(Program::Path(need_str(key, value)?)),
            "source" => {
                let name = value
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("\"source\" needs a string \"name\"")?;
                let text = value
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .ok_or("\"source\" needs a string \"text\"")?;
                program = Some(Program::Source { name: name.into(), text: text.into() });
            }
            "tool" => req.tool = need_str(key, value)?,
            "threads" => req.threads = need_u64(key, value)?,
            "seed" => req.seed = need_u64(key, value)?,
            "random_sched" => req.random_sched = need_bool(key, value)?,
            "no_ignore" => req.no_ignore = need_bool(key, value)?,
            "keep_free" => req.keep_free = need_bool(key, value)?,
            "no_suppress" => req.no_suppress = need_bool(key, value)?,
            "cache_blocks" => req.cache_blocks = Some(need_u64(key, value)? as usize),
            "confirm_races" => req.confirm_races = need_bool(key, value)?,
            "confirm_budget" => req.confirm_budget = need_u64(key, value)? as usize,
            "guest_args" => {
                let arr = value.as_array().ok_or("\"guest_args\" must be an array")?;
                req.guest_args = arr
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or("\"guest_args\" must be an array of strings")?;
            }
            "static_filter" => req.engine.static_filter = need_bool(key, value)?,
            "self_profile" => req.engine.self_profile = need_bool(key, value)?,
            "code_cache" => req.engine.code_cache = Some(need_str(key, value)?),
            "no_code_cache" => {
                if need_bool(key, value)? {
                    req.engine.code_cache = None;
                }
            }
            "trace_out" | "metrics_json" => {
                return Err(format!("field \"{key}\" is daemon-global, not per-job"));
            }
            other => return Err(format!("unknown request field \"{other}\"")),
        }
    }
    req.program = program.ok_or("missing \"program\" or \"source\"")?;
    Ok(Op::Run(Box::new(req)))
}

/// Run one admitted job on a worker thread, streaming status then the
/// result (or a structured error) on the job's stream. A panic in the
/// job is caught here, so the worker survives it.
fn serve_job(shared: &Shared, worker: usize, job: Job) {
    send(
        &job.stream,
        &format!(
            "{{\"type\":\"status\",\"job\":{},\"state\":\"running\",\"worker\":{worker}}}",
            job.id
        ),
    );
    let run = catch_unwind(AssertUnwindSafe(|| {
        let tsan = matches!(job.req.tool.as_str(), "archer" | "tasksan");
        if let Ok((loaded, memoized)) = shared.session.module(&job.req.program, tsan) {
            let h = loaded.content_hash();
            send(
                &job.stream,
                &format!(
                    "{{\"type\":\"status\",\"job\":{},\"state\":\"loaded\",\"module_hash\":\"{h:016x}\",\"memoized\":{memoized}}}",
                    job.id
                ),
            );
        }
        (shared.run)(&shared.session, &job.req)
    }));
    match run {
        Ok(Ok(outcome)) => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            send(&job.stream, &result_line(job.id, &job.req.tool, &outcome));
        }
        Ok(Err(e)) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            send(&job.stream, &error_line(Some(job.id), error_reason(&e), &e.to_string()));
        }
        Err(payload) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            shared.panics.fetch_add(1, Ordering::Relaxed);
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            send(
                &job.stream,
                &error_line(Some(job.id), "internal_error", &format!("job panicked: {what}")),
            );
        }
    }
}

/// Daemon statistics for `{"op":"ping"}`.
fn pong(shared: &Shared) -> String {
    format!(
        "{{\"type\":\"pong\",\"submitted\":{},\"completed\":{},\"rejected\":{},\"failed\":{},\"panics\":{},\"runs\":{}}}",
        shared.submitted.load(Ordering::Relaxed),
        shared.completed.load(Ordering::Relaxed),
        shared.rejected.load(Ordering::Relaxed),
        shared.failed.load(Ordering::Relaxed),
        shared.panics.load(Ordering::Relaxed),
        shared.session.runs_completed(),
    )
}

/// Handle one accepted connection on the acceptor thread: read the one
/// request line, answer control ops inline, enqueue run jobs.
fn handle_conn(
    shared: &Arc<Shared>,
    pool: &CompilePool<Job>,
    stream: UnixStream,
    next_id: &mut u64,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_side) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_side);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let out = Arc::new(Mutex::new(stream));
    match parse_request(line, &shared.engine) {
        Err(msg) => send(&out, &error_line(None, "bad_request", &msg)),
        Ok(Op::Ping) => send(&out, &pong(shared)),
        Ok(Op::Shutdown) => {
            send(&out, "{\"type\":\"bye\"}");
            shared.stop.store(true, Ordering::SeqCst);
        }
        Ok(Op::Run(req)) => {
            let id = *next_id;
            *next_id += 1;
            shared.submitted.fetch_add(1, Ordering::Relaxed);
            // The stream stays shared with the worker; the `queued` ack
            // goes out only after successful admission. Holding the
            // stream lock from before `try_send` until the ack is written
            // keeps a fast worker's `running` line from overtaking it.
            let Ok(mut stream) = out.lock() else { return };
            let job = Job { id, stream: Arc::clone(&out), req: *req };
            match pool.try_send(job) {
                Ok(()) => write_line(
                    &mut stream,
                    &format!(
                        "{{\"type\":\"status\",\"job\":{id},\"state\":\"queued\",\"queue_depth\":{}}}",
                        pool.queue_depth()
                    ),
                ),
                Err(_) => {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    write_line(
                        &mut stream,
                        &error_line(Some(id), "queue_full", "admission queue is full; retry later"),
                    );
                }
            }
        }
    }
}

impl Server {
    /// Bind `path` (replacing any stale socket file) and start the
    /// acceptor + `opts.workers` analysis workers.
    pub fn start(path: &Path, opts: ServeOptions) -> std::io::Result<Server> {
        Server::start_with(path, opts, Session::run)
    }

    /// [`Server::start`] with workers that run each job through `run`.
    fn start_with(path: &Path, opts: ServeOptions, run: RunFn) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let shared = Arc::new(Shared {
            session: Session::new(),
            engine: opts.engine.clone(),
            run,
            stop: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let pool_shared = shared.clone();
        let pool: CompilePool<Job> =
            CompilePool::new(opts.workers.max(1), opts.queue_cap.max(1), "serve", move |i| {
                let shared = pool_shared.clone();
                move |job: Job| serve_job(&shared, i, job)
            });
        let accept_shared = shared.clone();
        let acceptor =
            std::thread::Builder::new().name("serve.accept".into()).spawn(move || {
                // The pool lives on this thread: dropping it at the end
                // drains queued jobs and joins the workers.
                let pool = pool;
                let mut next_id: u64 = 1;
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        handle_conn(&accept_shared, &pool, stream, &mut next_id);
                    }
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
            })?;
        Ok(Server { path: path.to_path_buf(), shared, acceptor: Some(acceptor) })
    }

    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &Path {
        &self.path
    }

    /// Block until the daemon stops (a client sent `{"op":"shutdown"}`).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }

    /// Stop the daemon: in-flight and queued jobs finish, then workers
    /// and the acceptor exit and the socket file is removed.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(h) = self.acceptor.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = UnixStream::connect(&self.path);
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A minimal protocol client: one request per connection, line-at-a-time
/// responses. Used by `tgrind submit`, the integration tests and the
/// serve bench.
pub struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connect to a daemon socket.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Send one newline-terminated request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Receive the next response line; `None` on EOF (request done).
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }
}

/// One-shot helper: connect, send `line`, and collect every response
/// line until the daemon closes the connection.
pub fn request(path: &Path, line: &str) -> std::io::Result<Vec<String>> {
    let mut client = Client::connect(path)?;
    client.send(line)?;
    let mut out = Vec::new();
    while let Some(l) = client.recv()? {
        out.push(l);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_whitelist_rejects_global_and_unknown_fields() {
        let eng = EngineConfig::default();
        let r = parse_request(
            r#"{"op":"run","source":{"name":"a.c","text":"x"},"trace_out":"t.json"}"#,
            &eng,
        );
        assert!(r.is_err(), "trace_out is daemon-global");
        for field in ["wat", "chaining", "sweep", "bulk", "fuse", "static_concurrency"] {
            let line =
                format!(r#"{{"op":"run","source":{{"name":"a.c","text":"x"}},"{field}":true}}"#);
            match parse_request(&line, &eng) {
                Err(msg) => assert!(msg.contains("unknown request field"), "{field}: {msg}"),
                Ok(_) => panic!("unknown field {field} must be rejected"),
            }
        }
        let r = parse_request(r#"{"op":"run","tool":"taskgrind"}"#, &eng);
        assert!(r.is_err(), "a program is required");
        let r = parse_request(
            r#"{"op":"run","source":{"name":"a.c","text":"int main(void){return 0;}"},"threads":2,"static_filter":false}"#,
            &eng,
        );
        match r {
            Ok(Op::Run(req)) => {
                assert_eq!(req.threads, 2);
                assert!(!req.engine.static_filter);
                assert!(req.engine.trace_out.is_none(), "trace stays daemon-owned");
            }
            _ => panic!("well-formed run request must parse"),
        }
    }

    #[test]
    fn confirm_knobs_are_per_job() {
        let eng = EngineConfig::default();
        let r = parse_request(
            r#"{"op":"run","source":{"name":"a.c","text":"x"},"confirm_races":true,"confirm_budget":4}"#,
            &eng,
        );
        match r {
            Ok(Op::Run(req)) => {
                assert!(req.confirm_races);
                assert_eq!(req.confirm_budget, 4);
            }
            _ => panic!("confirm knobs must pass the whitelist"),
        }
        let r = parse_request(
            r#"{"op":"run","source":{"name":"a.c","text":"x"},"confirm_races":3}"#,
            &eng,
        );
        assert!(r.is_err(), "confirm_races must be a boolean");
    }

    /// Runs each job, then panics on the first one while it holds every
    /// session lock and its disk cache's lock.
    fn panic_after_first_run(s: &Session, req: &RunRequest) -> Result<RunOutcome, EngineError> {
        static PANICKED: AtomicBool = AtomicBool::new(false);
        let out = s.run(req);
        if !PANICKED.swap(true, Ordering::SeqCst) {
            s.panic_holding_locks();
        }
        out
    }

    #[test]
    fn a_panicking_job_keeps_its_worker_and_fails_no_later_job() {
        let dir = std::env::temp_dir().join(format!("tg-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let cache = dir.join("cache");
        // one worker: a worker lost to the panic would leave the second
        // job queued forever (the client read times out)
        let opts = ServeOptions { workers: 1, queue_cap: 2, engine: EngineConfig::default() };
        let server = Server::start_with(&sock, opts, panic_after_first_run).unwrap();
        let ask = |line: &str| {
            let mut c = Client::connect(&sock).unwrap();
            c.stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            c.send(line).unwrap();
            let mut out = Vec::new();
            while let Some(l) = c.recv().unwrap() {
                out.push(l);
            }
            out
        };
        let src = "int x;\nint main(void) {\n#pragma omp parallel\n{ x = x + 1; }\nreturn 0;\n}\n";
        let run = format!(
            r#"{{"op":"run","source":{{"name":"race.c","text":"{}"}},"threads":2,"code_cache":"{}"}}"#,
            escape(src),
            escape(&cache.to_string_lossy())
        );

        let first = ask(&run);
        let last = first.last().expect("an answer");
        assert!(last.contains(r#""type":"error","job":1,"reason":"internal_error""#), "{first:?}");
        assert!(last.contains("job panicked: injected panic"), "{last}");
        assert!(server.shared.session.any_lock_poisoned(), "the panic poisoned the session");

        let second = ask(&run);
        let last = second.last().expect("an answer");
        assert!(last.starts_with(r#"{"type":"result","job":2"#), "{second:?}");
        assert!(last.contains(r#""exit":1"#) && last.contains(r#""reports":1"#), "{last}");

        let pong = ask(r#"{"op":"ping"}"#);
        for field in [r#""completed":1"#, r#""failed":1"#, r#""panics":1"#] {
            assert!(pong[0].contains(field), "{field} in {}", pong[0]);
        }
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_ops_parse() {
        let eng = EngineConfig::default();
        assert!(matches!(parse_request(r#"{"op":"ping"}"#, &eng), Ok(Op::Ping)));
        assert!(matches!(parse_request(r#"{"op":"shutdown"}"#, &eng), Ok(Op::Shutdown)));
        assert!(parse_request("not json", &eng).is_err());
        assert!(parse_request(r#"{"op":"dance"}"#, &eng).is_err());
    }
}
