//! Command-line options for `tgrind`.
//!
//! This module only *parses*; resolution (precedence **explicit flag >
//! environment variable > default**) lives in
//! [`tg_engine::config::EngineConfig::resolve`], which consumes the
//! [`ConfigOverrides`] produced by [`Opts::overrides`]. The engine's
//! knob declaration [`FLAGS`] and table renderer are re-exported here
//! so the README rot-proofing test keeps its import path.

pub use tg_engine::config::{
    render_flag_table, resolve_thread_count, ConfigOverrides, EngineConfig, FlagSpec, FLAGS,
};

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
    pub no_static_filter: bool,
    pub no_static_concurrency: bool,
    pub lint_json: Option<String>,
    pub no_chaining: bool,
    pub cache_blocks: Option<usize>,
    pub no_suppress: bool,
    pub analysis_threads: usize,
    pub no_sweep: bool,
    pub no_bulk: bool,
    pub no_fuse: bool,
    /// `--confirm-races`: replay surviving candidates under adversarial
    /// schedules and annotate reports with confirmed/unconfirmed verdicts.
    pub confirm_races: bool,
    /// `--confirm-budget=N` replay attempts per candidate pair.
    pub confirm_budget: usize,
    pub code_cache: Option<String>,
    pub no_code_cache: bool,
    pub streaming: bool,
    pub no_streaming: bool,
    pub max_live_segments: usize,
    pub suppressions: Option<String>,
    pub trace_out: Option<String>,
    pub metrics_json: Option<String>,
    pub self_profile: bool,
    pub dot: Option<String>,
    pub disasm: bool,
    pub program: String,
    pub guest_args: Vec<String>,
}

impl Opts {
    /// Map the parsed flags onto the engine's override set — the half
    /// of the options [`EngineConfig::resolve`] consumes.
    pub fn overrides(&self) -> ConfigOverrides {
        ConfigOverrides {
            no_chaining: self.no_chaining,
            no_sweep: self.no_sweep,
            no_bulk: self.no_bulk,
            no_fuse: self.no_fuse,
            code_cache: self.code_cache.clone(),
            no_code_cache: self.no_code_cache,
            no_static_filter: self.no_static_filter,
            no_static_concurrency: self.no_static_concurrency,
            streaming: if self.streaming {
                Some(true)
            } else if self.no_streaming {
                Some(false)
            } else {
                None
            },
            max_live_segments: self.max_live_segments,
            trace_out: self.trace_out.clone(),
            metrics_json: self.metrics_json.clone(),
            self_profile: self.self_profile,
        }
    }
}

/// Flags the one-shot CLI accepts but `tgrind submit` cannot forward to
/// a daemon: tracing/metrics destinations and `fuse` are daemon-global
/// (the serve whitelist rejects them per-job), and suppression/DOT
/// output are client-side file surfaces. Returns the offending flag
/// names so `submit` can reject the invocation with a structured
/// `bad_request` echo instead of silently changing run semantics.
pub fn unforwardable_flags(o: &Opts, eng: &EngineConfig) -> Vec<&'static str> {
    let mut bad = Vec::new();
    for (flag, set) in [
        ("--trace-out", eng.trace_out.is_some()),
        ("--metrics-json", eng.metrics_json.is_some()),
        ("--no-fuse", !eng.fuse),
        ("--suppressions", o.suppressions.is_some()),
        ("--dot", o.dot.is_some()),
    ] {
        if set {
            bad.push(flag);
        }
    }
    bad
}

/// Parse a `--*-threads=N` flag value and resolve the 0=auto
/// convention; exits with usage on a malformed count.
pub fn parse_thread_count(v: &str) -> usize {
    resolve_thread_count(v.parse().unwrap_or_else(|_| usage()))
}

/// Print the usage banner and exit with status 2.
pub fn usage() -> ! {
    eprintln!("usage: tgrind [--tool=taskgrind|archer|tasksan|romp|none] [--threads=N] [--seed=N]");
    eprintln!(
        "              [--random-sched] [--no-ignore-list] [--keep-free] [--no-static-filter]"
    );
    eprintln!("              [--no-static-concurrency]");
    eprintln!("              [--no-chaining] [--cache-blocks=N] [--no-suppress]");
    eprintln!("              [--analysis-threads=N] [--no-sweep]");
    eprintln!("              [--no-bulk] [--no-fuse]");
    eprintln!("              [--confirm-races] [--confirm-budget=N]");
    eprintln!("              [--code-cache=DIR] [--no-code-cache]");
    eprintln!("              [--streaming|--no-streaming] [--max-live-segments=N]");
    eprintln!("              [--trace-out=FILE] [--metrics-json=FILE] [--self-profile]");
    eprintln!("              [--dot=FILE] [--disasm]");
    eprintln!("              <program.c> [-- args...]");
    eprintln!("       tgrind lint [--lint-json=FILE] <program.c>");
    eprintln!("       tgrind warm --code-cache=DIR <program.c>   (precompile the whole CFG)");
    eprintln!("       tgrind serve --socket=PATH [--serve-workers=N] [--serve-queue=N]");
    eprintln!("                    (persistent analysis daemon; line-delimited JSON protocol)");
    eprintln!("       tgrind submit --socket=PATH [run options] <program.c> [-- args...]");
    eprintln!("       env: TG_NO_BULK, TG_NO_FUSE, TG_CODE_CACHE,");
    eprintln!("            TG_STREAMING, TG_TRACE_OUT, TG_METRICS_JSON, TG_SELF_PROFILE");
    eprintln!("            (flags win over env)");
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
        no_static_filter: false,
        no_static_concurrency: false,
        lint_json: None,
        no_chaining: false,
        cache_blocks: None,
        no_suppress: false,
        analysis_threads: 0,
        no_sweep: false,
        no_bulk: false,
        no_fuse: false,
        confirm_races: false,
        confirm_budget: 16,
        code_cache: None,
        no_code_cache: false,
        streaming: false,
        no_streaming: false,
        max_live_segments: 0,
        suppressions: None,
        trace_out: None,
        metrics_json: None,
        self_profile: false,
        dot: None,
        disasm: false,
        program: String::new(),
        guest_args: Vec::new(),
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
            o.no_static_filter = true;
        } else if a == "--no-static-concurrency" {
            o.no_static_concurrency = true;
        } else if let Some(v) = a.strip_prefix("--lint-json=") {
            o.lint_json = Some(v.to_string());
        } else if a == "--no-chaining" {
            o.no_chaining = true;
        } else if let Some(v) = a.strip_prefix("--cache-blocks=") {
            o.cache_blocks = Some(v.parse().unwrap_or_else(|_| usage()));
        } else if a == "--no-suppress" {
            o.no_suppress = true;
        } else if let Some(v) =
            a.strip_prefix("--analysis-threads=").or_else(|| a.strip_prefix("--parallel-analysis="))
        {
            o.analysis_threads = parse_thread_count(v);
        } else if a == "--no-sweep" {
            o.no_sweep = true;
        } else if a == "--no-bulk" {
            o.no_bulk = true;
        } else if a == "--no-fuse" {
            o.no_fuse = true;
        } else if a == "--confirm-races" {
            o.confirm_races = true;
        } else if let Some(v) = a.strip_prefix("--confirm-budget=") {
            o.confirm_budget = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--code-cache=") {
            o.code_cache = Some(v.to_string());
        } else if a == "--no-code-cache" {
            o.no_code_cache = true;
        } else if a == "--streaming" {
            o.streaming = true;
        } else if a == "--no-streaming" {
            o.no_streaming = true;
        } else if let Some(v) = a.strip_prefix("--max-live-segments=") {
            o.max_live_segments = v.parse().unwrap_or_else(|_| usage());
        } else if let Some(v) = a.strip_prefix("--suppressions=") {
            o.suppressions = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            o.trace_out = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--metrics-json=") {
            o.metrics_json = Some(v.to_string());
        } else if a == "--self-profile" {
            o.self_profile = true;
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

    fn resolve(args: &[&str]) -> EngineConfig {
        EngineConfig::resolve(&opts(args).overrides())
    }

    #[test]
    fn declared_flags_match_engine_config_knobs() {
        let eng = resolve(&["p.c"]);
        let declared: Vec<&str> = FLAGS.iter().map(|f| f.knob).collect();
        let described: Vec<&str> = eng.describe().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            declared, described,
            "FLAGS and EngineConfig::describe must list the same knobs in the same order"
        );
    }

    #[test]
    fn observability_flags_parse_and_resolve() {
        let eng = resolve(&[
            "--trace-out=/tmp/t.json",
            "--metrics-json=/tmp/m.json",
            "--self-profile",
            "p.c",
        ]);
        assert_eq!(eng.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(eng.metrics_json.as_deref(), Some("/tmp/m.json"));
        assert!(eng.self_profile);
        let eng = resolve(&["p.c"]);
        assert!(eng.trace_out.is_none() || std::env::var_os("TG_TRACE_OUT").is_some());
        assert!(!eng.self_profile || std::env::var_os("TG_SELF_PROFILE").is_some());
    }

    #[test]
    fn code_cache_flags_parse_and_resolve() {
        let eng = resolve(&["--code-cache=/tmp/tgc", "p.c"]);
        assert_eq!(eng.code_cache.as_deref(), Some("/tmp/tgc"));
        // --no-code-cache wins over the directory flag and the env var.
        let eng = resolve(&["--code-cache=/tmp/tgc", "--no-code-cache", "p.c"]);
        assert!(eng.code_cache.is_none());
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
    fn fingerprint_tracks_translation_knobs_only() {
        let base = resolve(&["p.c"]);
        let fp = base.translation_fingerprint(&[]);
        let nofuse = resolve(&["--no-fuse", "p.c"]);
        assert_ne!(fp, nofuse.translation_fingerprint(&[]), "fuse must be keyed");
        let noconc = resolve(&["--no-static-concurrency", "p.c"]);
        assert_ne!(fp, noconc.translation_fingerprint(&[]), "static_concurrency must be keyed");
        let streaming = resolve(&["--streaming", "p.c"]);
        assert_eq!(
            fp,
            streaming.translation_fingerprint(&[]),
            "analysis-side knobs must not invalidate cached code"
        );
        assert_ne!(fp, base.translation_fingerprint(&["tool=archer".into()]));
        assert_ne!(
            base.translation_fingerprint(&["ab".into()]),
            base.translation_fingerprint(&["a".into(), "b".into()]),
            "extra parts must be delimited"
        );
    }

    #[test]
    fn analysis_threads_parse_and_resolve() {
        // 0 means auto: one worker per available core.
        let o = opts(&["--analysis-threads=0", "p.c"]);
        assert_eq!(o.analysis_threads, resolve_thread_count(0));
        let o = opts(&["--analysis-threads=3", "p.c"]);
        assert_eq!(o.analysis_threads, 3);
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
        let eng = EngineConfig::resolve(&o.overrides());
        assert!(unforwardable_flags(&o, &eng).is_empty());
        let o = opts(&["submit", "--socket=/tmp/s", "--dot=g.dot", "--no-fuse", "p.c"]);
        let eng = EngineConfig::resolve(&o.overrides());
        let bad = unforwardable_flags(&o, &eng);
        assert!(bad.contains(&"--dot") && bad.contains(&"--no-fuse"), "{bad:?}");
        // Confirmation flags, by contrast, forward fine.
        let o = opts(&["submit", "--socket=/tmp/s", "--confirm-races", "p.c"]);
        let eng = EngineConfig::resolve(&o.overrides());
        assert!(unforwardable_flags(&o, &eng).is_empty());
    }

    #[test]
    fn flag_table_renders_every_declared_knob() {
        let table = render_flag_table();
        for f in FLAGS {
            assert!(table.contains(f.knob), "table missing knob {}", f.knob);
            assert!(table.contains(f.flag), "table missing flag {}", f.flag);
        }
    }
}
