//! The engine session: load guests, run analysis tools, and share
//! read-only state (modules, static facts, disk code caches) across
//! runs in one process.
//!
//! A [`Session`] is the in-process equivalent of invoking `tgrind`
//! repeatedly: each [`Session::run`] resolves a [`RunRequest`] into a
//! [`RunOutcome`] carrying the guest's stdout, the rendered race
//! report, the `==` summary and the full metrics registry — the CLI
//! (and the serve daemon) only decide *where* those strings go. Nothing
//! here writes to stdout/stderr, touches process exit codes, or leaks
//! state between runs: every run gets a fresh registry and VM, and the
//! global trace ring is drained and disabled before the outcome is
//! returned.
//!
//! Sharing is keyed so it can never change verdicts:
//! * compiled **modules** are memoized by a *source key*, a hash of
//!   `(source name, source text, tsan)` — compilation is pure;
//! * **static facts** are memoized by `(source key, scope key)`. A
//!   run's and warm's facts ([`taskgrind::run_facts`]) are a pure
//!   function of the module and the run's ignore and instrument lists,
//!   which decide the functions the run-path analysis reads from the
//!   runtime summary, so their scope key is a hash of those lists; a
//!   default run and a `--no-ignore-list` run never share facts. Lint's
//!   whole-module facts with the concurrency pass have a key of their
//!   own. Keying by `concurrency` alone would hand a `--no-ignore-list`
//!   run the default run's run-path facts, which leave the runtime
//!   unclassified;
//! * **disk code caches** are shared by `(dir, module hash, config
//!   fingerprint)` — the same key that already isolates incompatible
//!   configurations on disk. The module hash ([`tg_cache::module_hash`])
//!   re-encodes the whole module, so it is computed once per memoized
//!   module and only when a cache or a status line needs it. Concurrent
//!   jobs see one in-memory container behind a mutex
//!   (`SharedDiskCache`), so the second job on a warmed module compiles
//!   ~0 blocks.

use crate::config::EngineConfig;
use crate::warm::{self, WarmStats};
use grindcore::{CachedTranslation, CodeCache, CodeCacheHandle, CodeCacheStats};
use grindcore::{ExecMode, SchedPolicy, VmConfig};
use minicc::SourceFile;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use taskgrind::analysis::{resolve_threads, SuppressOptions};
use taskgrind::suppressions::Suppressions;
use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig};
use tg_baselines::{archer::run_archer, romp::run_romp, tasksan::run_tasksan};
use tg_cache::DiskCodeCache;
use tg_obs::Registry;
use tga::module::Module;
use tga_analysis::StaticFacts;

/// A guest program to analyze: either a path to a minic source file
/// (read at load time) or the source text itself (the serve protocol
/// ships sources inline so the daemon never depends on client paths).
#[derive(Clone, Debug)]
pub enum Program {
    /// Read and compile the file at this path.
    Path(String),
    /// Compile this source text under the given display name (used in
    /// diagnostics and report `file:line` anchors).
    Source {
        /// Display name, conventionally the original path.
        name: String,
        /// The minic source text.
        text: String,
    },
}

/// Why a run could not produce an outcome. Carries enough structure for
/// the CLI to reproduce its historical exit codes and messages, and for
/// the serve protocol to report a machine-readable reason.
#[derive(Debug)]
pub enum EngineError {
    /// The program file could not be read (CLI exit 2).
    Read {
        /// The path that failed.
        path: String,
        /// The I/O error text.
        message: String,
    },
    /// The guest failed to compile (CLI exit 1).
    Build(String),
    /// The requested tool name is not one of
    /// `taskgrind|archer|tasksan|romp|none` (CLI: usage, exit 2).
    UnknownTool(String),
    /// The persistent code cache could not be opened where the caller
    /// required it (warm; CLI exit 2).
    CacheOpen {
        /// The cache directory.
        dir: String,
        /// The I/O error text.
        message: String,
    },
    /// The warmed cache container could not be written (CLI exit 2).
    CacheFlush {
        /// The container file path.
        path: PathBuf,
        /// The I/O error text.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Read { path, message } => write!(f, "cannot read {path}: {message}"),
            EngineError::Build(msg) => write!(f, "{msg}"),
            EngineError::UnknownTool(tool) => write!(f, "unknown tool `{tool}`"),
            EngineError::CacheOpen { dir, message } => {
                write!(f, "cannot open code cache {dir}: {message}")
            }
            EngineError::CacheFlush { path, message } => {
                write!(f, "cannot write {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The process exit code the CLI historically used for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            EngineError::Build(_) => 1,
            _ => 2,
        }
    }
}

/// Everything one analysis run needs, as plain data.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The guest program.
    pub program: Program,
    /// Tool name: `taskgrind`, `archer`, `tasksan`, `romp` or `none`.
    pub tool: String,
    /// Guest thread count (`OMP_NUM_THREADS` analog).
    pub threads: u64,
    /// Scheduler seed.
    pub seed: u64,
    /// Random scheduling policy instead of round-robin.
    pub random_sched: bool,
    /// Record runtime-internal accesses too (`--no-ignore-list`).
    pub no_ignore: bool,
    /// Do not replace the allocator (`--keep-free`).
    pub keep_free: bool,
    /// Translation-cache capacity override (`--cache-blocks`).
    pub cache_blocks: Option<usize>,
    /// Disable all analysis-time suppression (`--no-suppress`).
    pub no_suppress: bool,
    /// Unread: the sweep runs on one thread. Kept only because
    /// `tgbench` reads this field.
    #[doc(hidden)]
    pub analysis_threads: usize,
    /// Pre-parsed report suppressions (`--suppressions`).
    pub suppressions: Suppressions,
    /// Render the segment graph as Graphviz DOT into the outcome.
    pub want_dot: bool,
    /// Replay candidate races under adversarial schedules and attach
    /// confirmed/unconfirmed verdicts (`--confirm-races`).
    pub confirm_races: bool,
    /// Total adversarial replays across all candidates
    /// (`--confirm-budget`).
    pub confirm_budget: usize,
    /// Guest argv.
    pub guest_args: Vec<String>,
    /// The engine configuration.
    pub engine: EngineConfig,
}

impl Default for RunRequest {
    fn default() -> RunRequest {
        RunRequest {
            program: Program::Source { name: "main.c".into(), text: String::new() },
            tool: "taskgrind".into(),
            threads: 1,
            seed: 42,
            random_sched: false,
            no_ignore: false,
            keep_free: false,
            cache_blocks: None,
            no_suppress: false,
            analysis_threads: 0,
            suppressions: Suppressions::default(),
            want_dot: false,
            confirm_races: false,
            confirm_budget: 16,
            guest_args: Vec::new(),
            engine: EngineConfig::default(),
        }
    }
}

/// The complete result of one run: every byte the CLI prints, separated
/// by destination, plus the machine-readable registry.
#[derive(Debug)]
pub struct RunOutcome {
    /// The guest's stdout (CLI: stdout, verbatim).
    pub stdout: String,
    /// Rendered race reports, newline-terminated (CLI: stderr). Empty
    /// for `tool=none`.
    pub report: String,
    /// The `==` summary block, including the self-profile when enabled
    /// (CLI: stderr).
    pub summary: String,
    /// The full metrics registry for this run.
    pub registry: Registry,
    /// Whether the registry is wired for this tool (`taskgrind` and
    /// `none`; the baselines publish nothing, matching the one-shot
    /// CLI, which never wrote observability artifacts for them).
    pub metrics_wired: bool,
    /// The drained Chrome-trace JSON, when `trace_out` was requested.
    pub trace_json: Option<String>,
    /// The segment graph as Graphviz DOT, when requested.
    pub dot: Option<String>,
    /// Non-fatal warnings (cache open/flush failures), pre-formatted
    /// exactly as the CLI printed them (CLI: stderr).
    pub warnings: Vec<String>,
    /// The guest deadlocked (taskgrind: CLI exit 3 + a trailer line).
    pub deadlock: bool,
    /// The process exit code the one-shot CLI maps this outcome to.
    pub exit: u8,
    /// Distinct race reports.
    pub n_reports: usize,
    /// Segment pairs the confirmation replays reproduced (0 unless
    /// `confirm_races` was requested).
    pub confirmed_races: u64,
    /// Segment pairs left unconfirmed by the replays (0 unless
    /// `confirm_races` was requested).
    pub unconfirmed_races: u64,
}

/// What [`Session::warm`] did.
#[derive(Debug)]
pub struct WarmOutcome {
    /// Per-block precompile statistics.
    pub stats: WarmStats,
    /// The on-disk container the blocks were flushed to.
    pub cache_path: PathBuf,
}

/// What [`Session::lint`] produced.
#[derive(Debug)]
pub struct LintOutcome {
    /// The human-readable report (the `lint.report` registry entry).
    pub report: String,
    /// The full lint registry (`--lint-json` serializes this).
    pub registry: Registry,
    /// Number of findings (non-zero = CLI exit 1).
    pub findings: u64,
}

/// How static facts were obtained for a run.
struct FactsOutcome {
    facts: Arc<StaticFacts>,
    /// Serialized facts were written to the attached disk cache.
    stored: bool,
}

/// Lock `m` even if a job panicked while holding it: the serve daemon
/// survives job panics, so a poisoned lock must not fail the jobs after
/// one. Every mutex here guards a memo map or a disk cache, and both
/// change by whole entries (an insert, a removal, a replaced facts blob),
/// so a panic leaves them as consistent as a finished job does.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe view of a shared [`DiskCodeCache`], handed to each run
/// as its private `CodeCache`. Each call adds the container's stats
/// delta it caused, taken under the lock the call holds, to the view's
/// own counters, so a run's `cache.*` registry entries count its own
/// hits and misses exactly, even while other jobs use the container.
struct SharedDiskCache {
    inner: Arc<Mutex<DiskCodeCache>>,
    own: CodeCacheStats,
}

impl SharedDiskCache {
    fn new(inner: Arc<Mutex<DiskCodeCache>>) -> SharedDiskCache {
        let enabled = lock(&inner).stats().enabled;
        SharedDiskCache { inner, own: CodeCacheStats { enabled, ..Default::default() } }
    }

    /// Run `f` on the container and count the stats it moved as ours.
    fn with<R>(&mut self, f: impl FnOnce(&mut DiskCodeCache) -> R) -> R {
        let mut c = lock(&self.inner);
        let before = c.stats();
        let r = f(&mut c);
        let after = c.stats();
        let own = &mut self.own;
        own.hits += after.hits - before.hits;
        own.misses += after.misses - before.misses;
        own.bytes_loaded += after.bytes_loaded - before.bytes_loaded;
        own.bytes_stored += after.bytes_stored - before.bytes_stored;
        own.load_nanos += after.load_nanos - before.load_nanos;
        own.store_nanos += after.store_nanos - before.store_nanos;
        own.invalidations += after.invalidations - before.invalidations;
        r
    }
}

impl CodeCache for SharedDiskCache {
    fn load(&mut self, pc: u64) -> Option<CachedTranslation> {
        self.with(|c| c.load(pc))
    }

    fn store(&mut self, pc: u64, end: u64, block: &grindcore::flat::FlatBlock) {
        self.with(|c| c.store(pc, end, block))
    }

    fn invalidate_range(&mut self, lo: u64, hi: u64) {
        self.with(|c| c.invalidate_range(lo, hi))
    }

    fn load_facts(&mut self) -> Option<Vec<u8>> {
        self.with(|c| c.load_facts())
    }

    fn has_facts(&self) -> bool {
        lock(&self.inner).has_facts()
    }

    fn store_facts(&mut self, bytes: &[u8]) {
        self.with(|c| c.store_facts(bytes))
    }

    fn stats(&self) -> CodeCacheStats {
        self.own
    }
}

/// Render the top of the self-profile (`profile.*` registry entries)
/// when `--self-profile` was given.
pub fn render_profile(reg: &Registry) -> String {
    let mut rows: Vec<(&str, u64)> = reg
        .iter()
        .filter_map(|(k, v)| {
            let name = k.strip_prefix("profile.")?;
            match v {
                tg_obs::Value::U64(n) => Some((name, *n)),
                _ => None,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = rows.iter().map(|r| r.1).sum();
    let mut out = String::new();
    if total == 0 {
        return out;
    }
    out.push_str("== self-profile (sampled ops per guest function):\n");
    for (name, ops) in rows.iter().take(10) {
        out.push_str(&format!(
            "     {:>6.2}%  {:>12}  {}\n",
            100.0 * *ops as f64 / total as f64,
            ops,
            name
        ));
    }
    out
}

/// The recording options shared by warm and the taskgrind run path.
/// Factored so both sides instrument identically — a warmed block must
/// be byte-for-byte what the cold translation pipeline produces.
fn record_options(req: &RunRequest) -> RecordOptions {
    RecordOptions {
        ignore_list: if req.no_ignore {
            Vec::new()
        } else {
            taskgrind::tool::default_ignore_list()
        },
        replace_allocator: !req.keep_free,
        static_filter: req.engine.static_filter,
        ..Default::default()
    }
}

/// Key of memoized static facts: the module's source key, and the
/// facts' scope key — lint's (`None`), or a run's from [`scope_key`].
type FactsKey = (u64, Option<u64>);

/// The scope key of a run's facts in the session memo: a hash of its
/// ignore and instrument lists, which decide the functions
/// [`taskgrind::run_facts`] reads from the runtime summary.
fn scope_key(record: &RecordOptions) -> u64 {
    use grindcore::wire::fold64;
    let mut h = fold64(0, b"run");
    for list in [&record.ignore_list, &record.instrument_list] {
        for p in list {
            h = fold64(fold64(h, p.as_bytes()), &[0]);
        }
        h = fold64(h, &[1]);
    }
    h
}

/// Key of one shared disk-cache handle: `(dir, module hash, config
/// fingerprint)`.
type CacheKey = (String, u64, u64);

/// A compiled module as the session memoizes it.
#[derive(Debug)]
pub struct LoadedModule {
    /// The compiled module.
    pub module: Arc<Module>,
    /// The memo key: a hash of the source name, text and `tsan`.
    pub source_key: u64,
    content_hash: OnceLock<u64>,
}

impl LoadedModule {
    /// [`tg_cache::module_hash`] of the module, computed on first use.
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| tg_cache::module_hash(&self.module))
    }
}

/// A long-lived engine instance: memoized modules, static facts and
/// shared disk caches, plus the run lifecycle. Thread-safe — the serve
/// daemon calls [`Session::run`] from many workers on one `Arc<Session>`.
#[derive(Default)]
pub struct Session {
    /// Compiled modules by source key.
    modules: Mutex<HashMap<u64, Arc<LoadedModule>>>,
    /// Static facts by [`FactsKey`].
    facts: Mutex<HashMap<FactsKey, Arc<StaticFacts>>>,
    /// Open disk caches by [`CacheKey`].
    caches: Mutex<HashMap<CacheKey, Arc<Mutex<DiskCodeCache>>>>,
    runs: AtomicU64,
}

impl Session {
    /// Create an empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// Completed calls to [`Session::run`] so far.
    pub fn runs_completed(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Load (and memoize) the module for `program`. Returns the module
    /// and whether it came from the in-session memo.
    pub fn module(
        &self,
        program: &Program,
        tsan: bool,
    ) -> Result<(Arc<LoadedModule>, bool), EngineError> {
        use grindcore::wire::fold64;
        let (name, text) = match program {
            Program::Path(p) => {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| EngineError::Read { path: p.clone(), message: e.to_string() })?;
                (p.clone(), text)
            }
            Program::Source { name, text } => (name.clone(), text.clone()),
        };
        let mut h = fold64(0, name.as_bytes());
        h = fold64(h, text.as_bytes());
        h = fold64(h, &[tsan as u8]);
        if let Some(m) = lock(&self.modules).get(&h) {
            return Ok((m.clone(), true));
        }
        let file = SourceFile::new(name, text);
        let r = if tsan {
            guest_rt::build_program_tsan(std::slice::from_ref(&file))
        } else {
            guest_rt::build_program(std::slice::from_ref(&file))
        };
        let module = Arc::new(r.map_err(|e| EngineError::Build(e.to_string()))?);
        let m = Arc::new(LoadedModule { module, source_key: h, content_hash: OnceLock::new() });
        lock(&self.modules).insert(h, m.clone());
        Ok((m, false))
    }

    /// Resolve static facts for `module`: session memo, then the
    /// attached disk cache, then a fresh analysis (stored back into the
    /// cache when one is attached — and on a memo hit over a factless
    /// cache, the memoized copy is persisted so the container stays
    /// complete for future processes). `key` names `module` in the memo.
    /// Runs and warm pass their recording options and their cache, and
    /// get [`taskgrind::run_facts`]; lint passes `None` and no cache, and
    /// gets the whole-module analysis with the concurrency pass. A disk
    /// container's configuration fingerprint includes the ignore-list
    /// toggle, so its copy always holds facts of the run's own scope.
    fn facts_for(
        &self,
        module: &Module,
        key: u64,
        record: Option<&RecordOptions>,
        mut cache: Option<&mut dyn CodeCache>,
    ) -> FactsOutcome {
        let key = (key, record.map(scope_key));
        if let Some(f) = lock(&self.facts).get(&key).cloned() {
            let mut stored = false;
            if let Some(c) = cache.as_deref_mut() {
                if !c.has_facts() {
                    c.store_facts(&f.to_bytes());
                    stored = true;
                }
            }
            return FactsOutcome { facts: f, stored };
        }
        if let Some(c) = cache.as_deref_mut() {
            if let Some(f) = c.load_facts().and_then(|bytes| StaticFacts::from_bytes(&bytes).ok()) {
                let f = Arc::new(f);
                lock(&self.facts).insert(key, f.clone());
                return FactsOutcome { facts: f, stored: false };
            }
        }
        let f = match record {
            Some(record) => taskgrind::run_facts(module, record),
            None => tga_analysis::analyze_with(module, &tga_analysis::AnalyzeOpts::default()),
        };
        let mut stored = false;
        if let Some(c) = cache {
            c.store_facts(&f.to_bytes());
            stored = true;
        }
        let f = Arc::new(f);
        lock(&self.facts).insert(key, f.clone());
        FactsOutcome { facts: f, stored }
    }

    /// Open (or reuse) the shared disk cache for `(dir, module, config)`.
    /// The fingerprint folds in everything instrumentation-shaping that
    /// is *not* already an [`EngineConfig`] translation knob: the tool
    /// name and the two `RecordOptions` toggles.
    fn shared_cache(
        &self,
        dir: &str,
        module_hash: u64,
        req: &RunRequest,
    ) -> Result<Arc<Mutex<DiskCodeCache>>, String> {
        let parts = vec![
            format!("tool={}", req.tool),
            format!("ignore={}", !req.no_ignore),
            format!("allocator={}", !req.keep_free),
        ];
        let fp = req.engine.translation_fingerprint(&parts);
        let key = (dir.to_string(), module_hash, fp);
        let mut map = lock(&self.caches);
        if let Some(c) = map.get(&key) {
            return Ok(c.clone());
        }
        match DiskCodeCache::open(Path::new(dir), module_hash, fp) {
            Ok(c) => {
                let c = Arc::new(Mutex::new(c));
                map.insert(key, c.clone());
                Ok(c)
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Drain and disable the global trace ring, returning the run's
    /// timeline when tracing was active for this run.
    fn finish_trace(&self, traced: bool) -> Option<String> {
        if !traced {
            return None;
        }
        let json = tg_obs::trace::export_chrome_json();
        tg_obs::trace::shutdown();
        Some(json)
    }

    /// Run one analysis job to completion. Thread-safe; every run gets
    /// a fresh registry and VM, so job N+1 never observes job N's
    /// metrics.
    pub fn run(&self, req: &RunRequest) -> Result<RunOutcome, EngineError> {
        let eng = &req.engine;
        let tool = req.tool.as_str();
        if !matches!(tool, "taskgrind" | "none" | "archer" | "tasksan" | "romp") {
            return Err(EngineError::UnknownTool(req.tool.clone()));
        }
        let traced = eng.trace_out.is_some();
        if traced {
            // `init_default` discards any prior ring contents, so a
            // crashed or aborted earlier run cannot bleed events into
            // this one.
            tg_obs::trace::init_default();
        }
        let tsan = matches!(tool, "archer" | "tasksan");
        let (loaded, _) = match self.module(&req.program, tsan) {
            Ok(v) => v,
            Err(e) => {
                self.finish_trace(traced);
                return Err(e);
            }
        };
        let module = loaded.module.clone();
        let vm = VmConfig {
            nthreads: req.threads,
            seed: req.seed,
            sched: if req.random_sched { SchedPolicy::Random } else { SchedPolicy::RoundRobin },
            cache_blocks: req.cache_blocks.unwrap_or_else(|| VmConfig::default().cache_blocks),
            self_profile: eng.self_profile,
            ..Default::default()
        };
        let guest_args: Vec<&str> = req.guest_args.iter().map(|s| s.as_str()).collect();

        let outcome = match tool {
            "none" => {
                let r =
                    grindcore::Vm::new((*module).clone(), Box::new(grindcore::tool::NulTool), vm)
                        .run(ExecMode::Fast, &guest_args);
                let mut summary = format!(
                    "== tgrind(none): {} instrs, exit {:?}, deadlock={}\n",
                    r.metrics.instrs, r.exit_code, r.deadlock
                );
                let mut registry = Registry::new();
                r.metrics.publish(&mut registry);
                eng.publish(&mut registry);
                summary.push_str(&render_profile(&registry));
                RunOutcome {
                    stdout: r.stdout_str(),
                    report: String::new(),
                    summary,
                    registry,
                    metrics_wired: true,
                    trace_json: self.finish_trace(traced),
                    dot: None,
                    warnings: Vec::new(),
                    deadlock: r.deadlock,
                    exit: 0,
                    n_reports: 0,
                    confirmed_races: 0,
                    unconfirmed_races: 0,
                }
            }
            "archer" | "tasksan" | "romp" => {
                let r = match tool {
                    "archer" => run_archer(&module, &guest_args, &vm),
                    "tasksan" => run_tasksan(&module, &guest_args, &vm),
                    _ => run_romp(&module, &guest_args, &vm),
                };
                let mut report = String::new();
                for rep in &r.reports {
                    report.push_str(rep);
                    report.push('\n');
                }
                let summary = match tool {
                    "archer" => {
                        format!("== archer: {} report(s) in {:.3}s\n", r.n_reports, r.time_secs)
                    }
                    "tasksan" => {
                        format!(
                            "== tasksanitizer: {} report(s) in {:.3}s\n",
                            r.n_reports, r.time_secs
                        )
                    }
                    _ => format!(
                        "== romp: {} report(s), segv={} in {:.3}s\n",
                        r.n_reports, r.segv, r.time_secs
                    ),
                };
                let failed = r.n_reports > 0 || (tool == "romp" && r.segv);
                self.finish_trace(traced);
                RunOutcome {
                    stdout: r.run.stdout_str(),
                    report,
                    summary,
                    registry: Registry::new(),
                    metrics_wired: false,
                    trace_json: None,
                    dot: None,
                    warnings: Vec::new(),
                    deadlock: r.run.deadlock,
                    exit: if failed { 1 } else { 0 },
                    n_reports: r.n_reports,
                    confirmed_races: 0,
                    unconfirmed_races: 0,
                }
            }
            _ => {
                // taskgrind
                let mut warnings = Vec::new();
                let shared = match &eng.code_cache {
                    Some(dir) => match self.shared_cache(dir, loaded.content_hash(), req) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            warnings.push(format!("tgrind: cannot open code cache {dir}: {e}"));
                            None
                        }
                    },
                    None => None,
                };
                let handle = shared.as_ref().map(|arc| {
                    CodeCacheHandle::new(Rc::new(RefCell::new(SharedDiskCache::new(arc.clone()))))
                });
                let mut record = record_options(req);
                if record.static_filter && record.static_facts.is_none() {
                    let (key, rec) = (loaded.source_key, Some(&record));
                    let fo = match &handle {
                        Some(h) => self.facts_for(&module, key, rec, Some(&mut *h.borrow_mut())),
                        None => self.facts_for(&module, key, rec, None),
                    };
                    record.static_facts = Some(fo.facts);
                }
                let cfg = TaskgrindConfig {
                    vm,
                    record,
                    code_cache: handle,
                    suppress: if req.no_suppress {
                        SuppressOptions {
                            tls: false,
                            stack: false,
                            locks: false,
                            mutexinoutset: false,
                            ..Default::default()
                        }
                    } else {
                        SuppressOptions::default()
                    },
                    sweep: true,
                    suppressions: req.suppressions.clone(),
                    confirm: req.confirm_races,
                    confirm_budget: req.confirm_budget,
                    ..TaskgrindConfig::default()
                };
                let r = check_module(&module, &guest_args, &cfg);
                let dot = if req.want_dot { Some(r.graph.to_dot()) } else { None };
                let report = r.render_all();
                let mut registry = Registry::new();
                taskgrind::metrics::publish(&r, &mut registry);
                eng.publish(&mut registry);
                let mut summary = taskgrind::metrics::render_summary(&registry);
                summary.push_str(&render_profile(&registry));
                if let Some(arc) = &shared {
                    let mut cache = lock(arc);
                    if let Err(e) = cache.flush() {
                        warnings.push(format!(
                            "tgrind: cannot write code cache {}: {e}",
                            cache.path().display()
                        ));
                    }
                }
                let deadlock = r.run.deadlock;
                let n_reports = r.n_reports();
                let (confirmed_races, unconfirmed_races) =
                    r.confirm.as_ref().map(|c| (c.confirmed, c.unconfirmed)).unwrap_or((0, 0));
                RunOutcome {
                    stdout: r.run.stdout_str(),
                    report,
                    summary,
                    registry,
                    metrics_wired: true,
                    trace_json: self.finish_trace(traced),
                    dot,
                    warnings,
                    deadlock,
                    exit: if deadlock {
                        3
                    } else if n_reports > 0 {
                        1
                    } else {
                        0
                    },
                    n_reports,
                    confirmed_races,
                    unconfirmed_races,
                }
            }
        };
        self.runs.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Precompile the whole statically recoverable CFG of the request's
    /// program into the shared persistent cache (`tgrind warm`), with
    /// one compile worker per host core.
    pub fn warm(&self, req: &RunRequest) -> Result<WarmOutcome, EngineError> {
        let dir = req.engine.code_cache.clone().ok_or_else(|| EngineError::CacheOpen {
            dir: String::new(),
            message: "no cache directory".into(),
        })?;
        let (loaded, _) = self.module(&req.program, false)?;
        let shared = self
            .shared_cache(&dir, loaded.content_hash(), req)
            .map_err(|e| EngineError::CacheOpen { dir: dir.clone(), message: e })?;
        let mut cache = lock(&shared);
        let stats = self.warm_module_with(
            &loaded.module,
            loaded.source_key,
            record_options(req),
            &mut cache,
            resolve_threads(0),
        );
        if let Err(e) = cache.flush() {
            return Err(EngineError::CacheFlush {
                path: cache.path().to_path_buf(),
                message: e.to_string(),
            });
        }
        Ok(WarmOutcome { stats, cache_path: cache.path().to_path_buf() })
    }

    /// Warm `module` into a concrete cache the caller manages (tests and
    /// the differential harness key caches their own way). Resolves the
    /// static facts through the session memo + `cache` first, exactly
    /// like the run path, then precompiles every static block start.
    /// `key` names `module` in the session's facts memo: the
    /// [`LoadedModule::source_key`] of a module the session loaded, or
    /// any value unique to the module, such as its content hash.
    pub fn warm_module_with(
        &self,
        module: &Module,
        key: u64,
        record: RecordOptions,
        cache: &mut DiskCodeCache,
        threads: usize,
    ) -> WarmStats {
        let mut record = record;
        let mut facts_stored = false;
        if record.static_filter && record.static_facts.is_none() {
            let fo = self.facts_for(module, key, Some(&record), Some(cache));
            facts_stored = fo.stored;
            record.static_facts = Some(fo.facts);
        }
        let mut stats = warm::warm_module(module, record, cache, threads);
        stats.facts_stored = facts_stored;
        stats
    }

    /// Static analysis only (`tgrind lint`): publish the verdict table,
    /// lock findings included, into a fresh registry and return the
    /// rendered report.
    pub fn lint(&self, program: &Program) -> Result<LintOutcome, EngineError> {
        let (loaded, _) = self.module(program, false)?;
        let fo = self.facts_for(&loaded.module, loaded.source_key, None, None);
        let mut registry = Registry::new();
        crate::lint::publish(&fo.facts, &mut registry);
        Ok(LintOutcome {
            report: registry.str("lint.report").to_string(),
            findings: registry.u64("lint.findings"),
            registry,
        })
    }
}

#[cfg(test)]
impl Session {
    /// Panic while holding every session lock and every open disk
    /// cache's lock, leaving them poisoned the way a job that panics
    /// inside one would.
    pub(crate) fn panic_holding_locks(&self) -> ! {
        let _modules = lock(&self.modules);
        let _facts = lock(&self.facts);
        let caches = lock(&self.caches);
        let _held: Vec<_> = caches.values().map(|c| lock(c)).collect();
        panic!("injected panic holding every session lock");
    }

    /// Whether any session lock is poisoned.
    pub(crate) fn any_lock_poisoned(&self) -> bool {
        self.modules.is_poisoned()
            || self.facts.is_poisoned()
            || self.caches.is_poisoned()
            || lock(&self.caches).values().any(|c| c.is_poisoned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two views of one container, the way two serve jobs share it: each
    /// counts only the traffic it made, even when the other view was busy
    /// after it was created.
    #[test]
    fn shared_cache_views_count_their_own_traffic() {
        let dir = std::env::temp_dir().join(format!("tg-shared-view-{}", std::process::id()));
        let inner = Arc::new(Mutex::new(DiskCodeCache::open(&dir, 1, 1).expect("cache opens")));
        let mut first = SharedDiskCache::new(inner.clone());
        let mut second = SharedDiskCache::new(inner.clone());
        for pc in 0..400u64 {
            assert!(second.load(pc * 8).is_none());
        }
        second.store_facts(b"facts");
        assert!(first.load(0x1000).is_none());
        assert_eq!(first.load_facts().as_deref(), Some(&b"facts"[..]));

        let (a, b) = (first.stats(), second.stats());
        assert!(a.enabled && b.enabled);
        assert_eq!((a.misses, b.misses), (1, 400));
        assert_eq!((a.bytes_stored, b.bytes_stored), (0, 5));
        assert_eq!((a.bytes_loaded, b.bytes_loaded), (5, 0));
        // the container still sees everyone's traffic
        assert_eq!(inner.lock().unwrap().stats().misses, 401);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
