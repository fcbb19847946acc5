//! Command-line options for `tgrind`.
//!
//! This module only *parses*: engine flags land straight in the
//! [`EngineConfig`] of [`Opts::engine`], which the run hands to the
//! engine unchanged. The engine's knob declaration [`FLAGS`] and table
//! renderer are re-exported here so the README rot-proofing test keeps
//! its import path.

pub use tg_engine::config::{render_flag_table, EngineConfig, FLAGS};

/// Parsed command-line options (see `tgrind --help`).
pub struct Opts {
    pub lint: bool,
    pub warm: bool,
    /// `tgrind serve`: run the persistent analysis daemon.
    pub serve: bool,
    /// `tgrind submit`: send one job to a running daemon.
    pub submit: bool,
    /// `--socket=PATH` for serve/submit.
    pub socket: Option<String>,
    /// `--serve-workers=N` concurrent analysis workers (serve).
    pub serve_workers: usize,
    /// `--serve-queue=N` bounded admission-queue capacity (serve).
    pub serve_queue: usize,
    pub tool: String,
    pub threads: u64,
    pub seed: u64,
    pub random: bool,
    pub no_ignore: bool,
    pub keep_free: bool,
    pub lint_json: Option<String>,
    pub cache_blocks: Option<usize>,
    pub no_suppress: bool,
    /// `--confirm-races`: replay surviving candidates under adversarial
    /// schedules and annotate reports with confirmed/unconfirmed verdicts.
    pub confirm_races: bool,
    /// `--confirm-budget=N` replay attempts per candidate pair.
    pub confirm_budget: usize,
    pub suppressions: Option<String>,
    pub dot: Option<String>,
    pub disasm: bool,
    pub program: String,
    pub guest_args: Vec<String>,
    /// The engine knobs declared in [`FLAGS`].
    pub engine: EngineConfig,
}

/// Flags the one-shot CLI accepts but `tgrind submit` cannot forward to
/// a daemon: tracing/metrics destinations are daemon-global (the serve
/// whitelist rejects them per-job), and suppression/DOT output are
/// client-side file surfaces. Returns the offending flag names so
/// `submit` can reject the invocation with a structured `bad_request`
/// echo instead of silently changing run semantics.
pub fn unforwardable_flags(o: &Opts) -> Vec<&'static str> {
    let mut bad = Vec::new();
    for (flag, set) in [
        ("--trace-out", o.engine.trace_out.is_some()),
        ("--metrics-json", o.engine.metrics_json.is_some()),
        ("--suppressions", o.suppressions.is_some()),
        ("--dot", o.dot.is_some()),
    ] {
        if set {
            bad.push(flag);
        }
    }
    bad
}

/// Print the usage banner and exit with status 2.
pub fn usage() -> ! {
    eprintln!("usage: tgrind [--tool=taskgrind|archer|tasksan|romp|none] [--threads=N] [--seed=N]");
    eprintln!(
        "              [--random-sched] [--no-ignore-list] [--keep-free] [--no-static-filter]"
    );
    eprintln!("              [--cache-blocks=N] [--no-suppress] [--confirm-races]");
    eprintln!("              [--confirm-budget=N] [--code-cache=DIR]");
    eprintln!("              [--trace-out=FILE] [--metrics-json=FILE] [--self-profile]");
    eprintln!("              [--dot=FILE] [--disasm]");
    eprintln!("              <program.c> [-- args...]");
    eprintln!("       tgrind lint [--lint-json=FILE] <program.c>");
    eprintln!("       tgrind warm --code-cache=DIR <program.c>   (precompile the whole CFG)");
    eprintln!("       tgrind serve --socket=PATH [--serve-workers=N] [--serve-queue=N]");
    eprintln!("                    (persistent analysis daemon; line-delimited JSON protocol)");
    eprintln!("       tgrind submit --socket=PATH [run options] <program.c> [-- args...]");
    std::process::exit(2)
}

/// Parse the process arguments (without the program name).
pub fn parse_args(args: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        lint: false,
        warm: false,
        serve: false,
        submit: false,
        socket: None,
        serve_workers: 2,
        serve_queue: 8,
        tool: "taskgrind".into(),
        threads: 1,
        seed: 42,
        random: false,
        no_ignore: false,
        keep_free: false,
        lint_json: None,
        cache_blocks: None,
        no_suppress: false,
        confirm_races: false,
        confirm_budget: 16,
        suppressions: None,
        dot: None,
        disasm: false,
        program: String::new(),
        guest_args: Vec::new(),
        engine: EngineConfig::default(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--" {
            o.guest_args.extend(args.by_ref());
            break;
        } else if let Some(v) = a.strip_prefix("--tool=") {
            o.tool = v.to_string();
        } else if let Some(v) = a.strip_prefix("--threads=") {
            o.threads = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--seed=") {
            o.seed = v.parse().unwrap_or_else(|_| usage());
        } else if a == "--random-sched" {
            o.random = true;
        } else if a == "--no-ignore-list" {
            o.no_ignore = true;
        } else if a == "--keep-free" {
            o.keep_free = true;
        } else if a == "--no-static-filter" {
            o.engine.static_filter = false;
        } else if let Some(v) = a.strip_prefix("--lint-json=") {
            o.lint_json = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--cache-blocks=") {
            o.cache_blocks = Some(v.parse().unwrap_or_else(|_| usage()));
        } else if a == "--no-suppress" {
            o.no_suppress = true;
        } else if a == "--confirm-races" {
            o.confirm_races = true;
        } else if let Some(v) = a.strip_prefix("--confirm-budget=") {
            o.confirm_budget = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--code-cache=") {
            o.engine.code_cache = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--suppressions=") {
            o.suppressions = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            o.engine.trace_out = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--metrics-json=") {
            o.engine.metrics_json = Some(v.to_string());
        } else if a == "--self-profile" {
            o.engine.self_profile = true;
        } else if let Some(v) = a.strip_prefix("--socket=") {
            o.socket = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--serve-workers=") {
            o.serve_workers = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--serve-queue=") {
            o.serve_queue = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--dot=") {
            o.dot = Some(v.to_string());
        } else if a == "--disasm" {
            o.disasm = true;
        } else if a.starts_with("--") {
            eprintln!("unknown option {a}");
            usage();
        } else if a == "lint" && !o.lint && !o.warm && !o.serve && !o.submit && o.program.is_empty()
        {
            o.lint = true;
        } else if a == "warm" && !o.warm && !o.lint && !o.serve && !o.submit && o.program.is_empty()
        {
            o.warm = true;
        } else if a == "serve"
            && !o.warm
            && !o.lint
            && !o.serve
            && !o.submit
            && o.program.is_empty()
        {
            o.serve = true;
        } else if a == "submit"
            && !o.warm
            && !o.lint
            && !o.serve
            && !o.submit
            && o.program.is_empty()
        {
            o.submit = true;
        } else if o.program.is_empty() {
            o.program = a;
        } else {
            usage();
        }
    }
    if o.program.is_empty() && !o.serve {
        usage();
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn engine_flags_parse_into_engine_config() {
        let eng = opts(&["p.c"]).engine;
        assert_eq!(eng.describe(), EngineConfig::default().describe(), "no flag, no change");
        let eng = opts(&["--no-static-filter", "p.c"]).engine;
        assert!(!eng.static_filter);
    }

    #[test]
    fn observability_flags_parse() {
        let eng = opts(&[
            "--trace-out=/tmp/t.json",
            "--metrics-json=/tmp/m.json",
            "--self-profile",
            "p.c",
        ])
        .engine;
        assert_eq!(eng.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(eng.metrics_json.as_deref(), Some("/tmp/m.json"));
        assert!(eng.self_profile);
    }

    #[test]
    fn code_cache_flags_parse() {
        let o = opts(&["--code-cache=/tmp/tgc", "p.c"]);
        assert_eq!(o.engine.code_cache.as_deref(), Some("/tmp/tgc"));
        let o = opts(&["warm", "p.c"]);
        assert!(o.warm);
        assert_eq!(o.program, "p.c");
    }

    #[test]
    fn serve_flags_parse() {
        let o = opts(&["serve", "--socket=/tmp/tg.sock", "--serve-workers=4", "--serve-queue=2"]);
        assert!(o.serve);
        assert_eq!(o.socket.as_deref(), Some("/tmp/tg.sock"));
        assert_eq!(o.serve_workers, 4);
        assert_eq!(o.serve_queue, 2);
        assert!(o.program.is_empty(), "serve needs no program argument");
        let o = opts(&["submit", "--socket=/tmp/tg.sock", "--threads=2", "p.c"]);
        assert!(o.submit);
        assert_eq!(o.program, "p.c");
        assert_eq!(o.threads, 2);
    }

    #[test]
    fn confirm_flags_parse() {
        let o = opts(&["p.c"]);
        assert!(!o.confirm_races, "confirmation replay is opt-in");
        assert_eq!(o.confirm_budget, 16);
        let o = opts(&["--confirm-races", "--confirm-budget=3", "p.c"]);
        assert!(o.confirm_races);
        assert_eq!(o.confirm_budget, 3);
    }

    #[test]
    fn unforwardable_submit_flags_are_detected() {
        let o = opts(&["submit", "--socket=/tmp/s", "p.c"]);
        assert!(unforwardable_flags(&o).is_empty());
        let o = opts(&["submit", "--socket=/tmp/s", "--dot=g.dot", "--metrics-json=m", "p.c"]);
        assert_eq!(unforwardable_flags(&o), ["--metrics-json", "--dot"]);
        // Confirmation flags, by contrast, forward fine.
        let o = opts(&["submit", "--socket=/tmp/s", "--confirm-races", "p.c"]);
        assert!(unforwardable_flags(&o).is_empty());
    }
}
