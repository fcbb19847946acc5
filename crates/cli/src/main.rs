//! tgrind — compile a minic program and run it under an analysis tool.
//!
//! ```text
//! tgrind [options] <program.c> [-- <guest args>...]
//! tgrind lint [--lint-json=<file>] <program.c>
//!                        static analysis only: CFG stats, lock findings
//!                        (deadlock cycles, double locks, lock leaks);
//!                        exits non-zero when there are findings
//! tgrind warm --code-cache=<dir> <program.c>
//!                        precompile the whole statically recoverable
//!                        CFG into the persistent code cache
//! tgrind serve --socket=<path> [--serve-workers=N] [--serve-queue=N]
//!                        persistent analysis daemon: line-delimited
//!                        JSON jobs over a Unix socket, bounded queue
//!                        admission control, shared caches across jobs
//! tgrind submit --socket=<path> [run options] <program.c> [-- args...]
//!                        send one job to a running daemon; status
//!                        lines stream to stderr, the verdict renders
//!                        exactly like a local run
//!
//!   --tool=<taskgrind|archer|tasksan|romp|none>   (default: taskgrind)
//!   --threads=<n>        OMP_NUM_THREADS analog    (default: 1)
//!   --seed=<n>           scheduler seed            (default: 42)
//!   --random-sched       random scheduling policy
//!   --no-ignore-list     record runtime-internal accesses too
//!   --keep-free          do not replace the allocator (IV-B off)
//!   --no-static-filter   do not prune instrumentation with static facts
//!   --lint-json=<file>   (lint mode) dump the lint registry as JSON
//!   --cache-blocks=<n>   translation-cache capacity in superblocks
//!   --no-suppress        disable all analysis-time suppression
//!   --suppressions=<f>   Valgrind-style report suppression file
//!   --confirm-races      replay each surviving candidate race under
//!                        adversarial schedules from a CoW snapshot and
//!                        annotate reports confirmed/unconfirmed
//!   --confirm-budget=<n> replay attempts per candidate pair (default 16)
//!   --code-cache=<dir>   persistent on-disk cache of compiled blocks
//!                        and static facts
//!   --trace-out=<file>   write a Chrome-trace/Perfetto JSON timeline
//!   --metrics-json=<file>    dump the metrics registry as JSON
//!   --self-profile       sample executed-op budget per guest function
//!   --dot=<file>         write the segment graph as Graphviz DOT
//!   --disasm             dump the compiled guest binary and exit
//! ```
//!
//! This binary is a thin adapter: every engine decision lives in
//! [`tg_engine`] (guest load, run lifecycle, serve daemon). The CLI
//! parses flags straight into an [`EngineConfig`], reads the program
//! file, hands a [`RunRequest`] to a [`Session`], and writes the
//! outcome's strings to the historical destinations with the historical
//! exit codes.

use std::path::Path;
use std::process::ExitCode;
use tg_cli::engine::{parse_args, usage, EngineConfig, Opts};
use tg_engine::serve::{Client, ServeOptions, Server};
use tg_engine::{EngineError, Program, RunRequest, Session};
use tg_obs::json::{escape, JsonValue};

/// Write `text` to `path`, reporting (but not aborting on) failure.
fn write_artifact(what: &str, path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("tgrind: cannot write {what} {path}: {e}");
    }
}

/// Flush the run's trace snapshot to `--trace-out` and the registry to
/// `--metrics-json`, when requested.
fn write_observability(eng: &EngineConfig, out: &tg_engine::RunOutcome) {
    if let Some(path) = &eng.trace_out {
        if let Some(trace) = &out.trace_json {
            write_artifact("trace", path, trace);
        }
    }
    if let Some(path) = &eng.metrics_json {
        write_artifact("metrics", path, &out.registry.to_json());
    }
}

/// Report an engine error the way the one-shot CLI always has.
fn fail(e: &EngineError) -> ExitCode {
    eprintln!("tgrind: {e}");
    ExitCode::from(e.exit_code())
}

/// `tgrind serve`: run the daemon until a client sends `shutdown`.
fn serve_main(o: &Opts) -> ExitCode {
    let Some(sock) = &o.socket else {
        eprintln!("tgrind serve: --socket=PATH required");
        return ExitCode::from(2);
    };
    let opts = ServeOptions {
        workers: o.serve_workers.max(1),
        queue_cap: o.serve_queue.max(1),
        engine: o.engine.clone(),
    };
    let (workers, queue) = (opts.workers, opts.queue_cap);
    match Server::start(Path::new(sock), opts) {
        Ok(server) => {
            eprintln!("== serve: listening on {sock} | {workers} worker(s), queue {queue}");
            server.join();
            eprintln!("== serve: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tgrind serve: cannot bind {sock}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Serialize the run flags into one protocol request line. The source
/// text ships inline so the daemon never depends on client-side paths.
fn submit_request(o: &Opts, name: &str, text: &str) -> String {
    let eng = &o.engine;
    let mut req = format!(
        "{{\"op\":\"run\",\"source\":{{\"name\":\"{}\",\"text\":\"{}\"}},\"tool\":\"{}\"",
        escape(name),
        escape(text),
        escape(&o.tool)
    );
    req.push_str(&format!(",\"threads\":{},\"seed\":{}", o.threads, o.seed));
    req.push_str(&format!(
        ",\"random_sched\":{},\"no_ignore\":{},\"keep_free\":{},\"no_suppress\":{}",
        o.random, o.no_ignore, o.keep_free, o.no_suppress
    ));
    if o.confirm_races {
        req.push_str(&format!(",\"confirm_races\":true,\"confirm_budget\":{}", o.confirm_budget));
    }
    req.push_str(&format!(
        ",\"static_filter\":{},\"self_profile\":{}",
        eng.static_filter, eng.self_profile
    ));
    if let Some(n) = o.cache_blocks {
        req.push_str(&format!(",\"cache_blocks\":{n}"));
    }
    if let Some(dir) = &eng.code_cache {
        req.push_str(&format!(",\"code_cache\":\"{}\"", escape(dir)));
    }
    if !o.guest_args.is_empty() {
        req.push_str(",\"guest_args\":[");
        for (i, a) in o.guest_args.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            req.push_str(&format!("\"{}\"", escape(a)));
        }
        req.push(']');
    }
    req.push('}');
    req
}

fn json_bool(v: Option<&JsonValue>) -> bool {
    matches!(v, Some(JsonValue::Bool(true)))
}

/// `tgrind submit`: one job against a running daemon, rendered like a
/// local run (status lines go to stderr with a `== serve:` prefix).
fn submit_main(o: &Opts, name: &str, text: &str) -> ExitCode {
    let Some(sock) = &o.socket else {
        eprintln!("tgrind submit: --socket=PATH required");
        return ExitCode::from(2);
    };
    // Flags the daemon cannot honor per-job are a hard error, echoed in
    // the daemon's own structured format: silently dropping them would
    // change run semantics behind the user's back.
    let bad = tg_cli::engine::unforwardable_flags(o);
    if !bad.is_empty() {
        for flag in &bad {
            eprintln!(
                "tgrind submit: {}",
                tg_engine::serve::error_line(
                    None,
                    "bad_request",
                    &format!("{flag} is not forwarded to the daemon; drop it or run one-shot"),
                )
            );
        }
        return ExitCode::from(2);
    }
    let mut client = match Client::connect(Path::new(sock)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tgrind submit: cannot connect to {sock}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = client.send(&submit_request(o, name, text)) {
        eprintln!("tgrind submit: cannot send request: {e}");
        return ExitCode::from(2);
    }
    loop {
        let line = match client.recv() {
            Ok(Some(l)) => l,
            Ok(None) => {
                eprintln!("tgrind submit: connection closed without a result");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("tgrind submit: read error: {e}");
                return ExitCode::from(2);
            }
        };
        let Ok(doc) = tg_obs::json::parse(&line) else { continue };
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("status") => eprintln!("== serve: {line}"),
            Some("error") => {
                let reason = doc.get("reason").and_then(JsonValue::as_str).unwrap_or("error");
                let message = doc.get("message").and_then(JsonValue::as_str).unwrap_or("");
                eprintln!("tgrind: {message}");
                return ExitCode::from(if reason == "build_failed" { 1 } else { 2 });
            }
            Some("result") => {
                print!("{}", doc.get("stdout").and_then(JsonValue::as_str).unwrap_or(""));
                eprint!("{}", doc.get("report").and_then(JsonValue::as_str).unwrap_or(""));
                eprint!("{}", doc.get("summary").and_then(JsonValue::as_str).unwrap_or(""));
                if let Some(warnings) = doc.get("warnings").and_then(JsonValue::as_array) {
                    for w in warnings {
                        if let Some(w) = w.as_str() {
                            eprintln!("{w}");
                        }
                    }
                }
                let exit = doc.get("exit").and_then(JsonValue::as_u64).unwrap_or(0) as u8;
                if json_bool(doc.get("deadlock")) && exit == 3 {
                    eprintln!("== guest deadlocked");
                }
                return ExitCode::from(exit);
            }
            _ => {}
        }
    }
}

fn main() -> ExitCode {
    let o = parse_args(std::env::args().skip(1));
    let eng = &o.engine;
    if o.serve {
        return serve_main(&o);
    }
    // Read the program up front: a missing file beats every later
    // diagnostic (historical CLI ordering), and the engine then builds
    // from the in-memory text.
    let text = match std::fs::read_to_string(&o.program) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tgrind: cannot read {}: {e}", o.program);
            return ExitCode::from(2);
        }
    };
    if o.submit {
        return submit_main(&o, &o.program, &text);
    }
    let program = Program::Source { name: o.program.clone(), text };
    let session = Session::new();

    if o.disasm {
        return match session.module(&program, false) {
            Ok((m, _)) => {
                println!("{}", tga::asm::disassemble_all(&m.module.code, m.module.code_base));
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }

    if o.lint {
        return match session.lint(&program) {
            Ok(out) => {
                print!("{}", out.report);
                if let Some(path) = &o.lint_json {
                    write_artifact("lint json", path, &out.registry.to_json());
                }
                ExitCode::from(if out.findings > 0 { 1 } else { 0 })
            }
            Err(e) => fail(&e),
        };
    }

    // The suppression file is CLI surface: parsed here, handed to the
    // engine pre-parsed.
    let suppressions = match &o.suppressions {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("tgrind: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match taskgrind::suppressions::Suppressions::parse(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("tgrind: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => Default::default(),
    };

    let req = RunRequest {
        program,
        tool: o.tool.clone(),
        threads: o.threads,
        seed: o.seed,
        random_sched: o.random,
        no_ignore: o.no_ignore,
        keep_free: o.keep_free,
        cache_blocks: o.cache_blocks,
        no_suppress: o.no_suppress,
        confirm_races: o.confirm_races,
        confirm_budget: o.confirm_budget,
        suppressions,
        want_dot: o.dot.is_some(),
        guest_args: o.guest_args.clone(),
        engine: eng.clone(),
        ..RunRequest::default()
    };

    if o.warm {
        if eng.code_cache.is_none() {
            eprintln!("tgrind warm: no cache directory (pass --code-cache=DIR)");
            return ExitCode::from(2);
        }
        if o.tool != "taskgrind" {
            eprintln!("tgrind warm: only the taskgrind tool is cacheable (got `{}`)", o.tool);
            return ExitCode::from(2);
        }
        return match session.warm(&req) {
            Ok(out) => {
                let stats = out.stats;
                eprintln!(
                    "== warm: {} block(s) precompiled, {} already cached, {} unliftable | {} worker(s), {:.0} blocks/s | facts {} | {}",
                    stats.precompiled,
                    stats.already_cached,
                    stats.skipped,
                    stats.threads,
                    stats.blocks_per_sec,
                    if stats.facts_stored { "stored" } else { "reused" },
                    out.cache_path.display(),
                );
                ExitCode::SUCCESS
            }
            Err(e @ EngineError::CacheFlush { .. }) => {
                eprintln!("tgrind warm: {e}");
                ExitCode::from(2)
            }
            Err(e) => fail(&e),
        };
    }

    match session.run(&req) {
        Ok(out) => {
            print!("{}", out.stdout);
            if let Some(path) = &o.dot {
                if let Some(dot) = &out.dot {
                    if let Err(e) = std::fs::write(path, dot) {
                        eprintln!("tgrind: cannot write {path}: {e}");
                    }
                }
            }
            eprint!("{}", out.report);
            eprint!("{}", out.summary);
            write_observability(eng, &out);
            for w in &out.warnings {
                eprintln!("{w}");
            }
            if out.deadlock && out.exit == 3 {
                eprintln!("== guest deadlocked");
            }
            ExitCode::from(out.exit)
        }
        Err(EngineError::UnknownTool(tool)) => {
            eprintln!("unknown tool `{tool}`");
            usage()
        }
        Err(e) => fail(&e),
    }
}
