//! Trace mode: the workload's jobs split layer by layer, timed from
//! outside the program.
//!
//! Each traced job runs `taskgrind::check_module`'s steps one by one from
//! this file, with the configuration `Session::run` resolves for the
//! request, and records a span around every call into a layer. The same
//! request also runs untraced through `Session::run` and through a
//! daemon. The traced path must reproduce the rendered report of both and
//! every counter of the untraced run, and its layer self-times must cover
//! its wall time to within ±5%. After the job the guest runs three more
//! times — interpreter, DBI with a no-op tool, DBI with an access
//! counter — which split recording into translation and dispatch (nul −
//! fast), callbacks (count − nul) and segment-graph construction with
//! access ingestion (record − count).

use crate::client::{self, DaemonJob};
use crate::e2e::{self, SERVE_CLIENTS};
use crate::Outcome;
use grindcore::tool::{CountTool, NulTool};
use grindcore::{ExecMode, SchedPolicy, Tool, Vm, VmConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use taskgrind::analysis::{self, SuppressOptions};
use taskgrind::reach::Reachability;
use taskgrind::tool::{default_ignore_list, RecordOptions, TaskgrindTool};
use taskgrind::{confirm, report, TaskgrindConfig};
use tg_obs::Registry;
use tga::module::Module;
use tgbench::jobs::{distinct_jobs, Job, JobStream, Workload};
use tgbench::stats::median;

/// One timed interval, in seconds since the run's epoch.
struct Span {
    name: &'static str,
    job: u64,
    tid: u32,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans of one client thread, kept in memory until the run ends.
struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder { epoch, tid, spans: Vec::new(), open: Vec::new() }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    fn push(
        &mut self,
        name: &'static str,
        job: u64,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name, job, tid: self.tid, start, end, parent });
        self.spans.len() - 1
    }

    fn begin(&mut self, name: &'static str, job: u64) -> usize {
        let start = self.at(Instant::now());
        let id = self.push(name, job, start, f64::NAN, self.open.last().copied());
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end = self.at(Instant::now());
    }

    /// Drop every span from `mark` on (a job that failed midway).
    fn rewind(&mut self, mark: usize) {
        self.spans.truncate(mark);
        self.open.clear();
    }

    /// A daemon job as three spans: the client-side job, the wait for a
    /// worker (send → `running`) and the service (`running` → `result`).
    fn daemon(&mut self, d: &DaemonJob, job: u64) {
        let sent = self.at(d.sent);
        let root = self.push("tg_engine.job", job, sent, sent + d.latency, None);
        self.push("tg_engine.queue_wait", job, sent, sent + d.queue_wait, Some(root));
        self.push("tg_engine.service", job, sent + d.queue_wait, sent + d.latency, Some(root));
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Every span's self time: its duration minus the part its children
    /// cover (children of one span never overlap).
    fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                out[p] -= self.duration(i);
            }
        }
        out
    }
}

/// What the traced path produced for one job.
struct Traced {
    module: Module,
    vm: VmConfig,
    root: usize,
    report: String,
    counters: Registry,
}

/// The Taskgrind configuration `Session::run` resolves for `job`.
fn taskgrind_config(job: &Job) -> Result<TaskgrindConfig, String> {
    let req = e2e::request(job, "taskgrind");
    let eng = &req.engine;
    if !eng.static_filter || !eng.sweep || eng.streaming || eng.code_cache.is_some() {
        return Err("the traced path covers the default engine configuration only".into());
    }
    Ok(TaskgrindConfig {
        vm: VmConfig {
            nthreads: req.threads,
            seed: req.seed,
            sched: SchedPolicy::RoundRobin,
            chaining: eng.chaining,
            compile_threads: eng.compile_threads,
            self_profile: eng.self_profile,
            ..VmConfig::default()
        },
        record: RecordOptions {
            ignore_list: default_ignore_list(),
            replace_allocator: true,
            static_filter: eng.static_filter,
            static_concurrency: eng.static_concurrency,
            bulk_ingest: eng.bulk,
            ..RecordOptions::default()
        },
        suppress: SuppressOptions { static_proof: eng.static_concurrency, ..Default::default() },
        analysis_threads: req.analysis_threads,
        sweep: eng.sweep,
        streaming: eng.streaming,
        max_live_segments: eng.max_live_segments,
        suppressions: req.suppressions.clone(),
        code_cache: None,
        confirm: req.confirm_races,
        confirm_budget: req.confirm_budget,
    })
}

/// Run one Taskgrind job layer by layer under spans.
fn traced_job(job: &Job, rec: &mut Recorder, id: u64) -> Result<Traced, String> {
    let mut cfg = taskgrind_config(job)?;
    let args: Vec<&str> = job.args.iter().map(String::as_str).collect();
    let root = rec.begin("taskgrind.job", id);

    let s = rec.begin("minicc.build", id);
    let module = guest_rt::build_program(&[minicc::SourceFile::new(job.name, job.source)])
        .map_err(|e| format!("{}: {e}", job.label))?;
    rec.end(s);

    let s = rec.begin("tga_analysis.analyze", id);
    let opts = tga_analysis::AnalyzeOpts { concurrency: cfg.record.static_concurrency };
    cfg.record.static_facts = Some(Arc::new(tga_analysis::analyze_with(&module, &opts)));
    rec.end(s);

    let s = rec.begin("taskgrind.record", id);
    let tool = TaskgrindTool::new(cfg.record.clone());
    let state = tool.state();
    let run = Vm::new(module.clone(), Box::new(tool), cfg.vm.clone()).run(ExecMode::Dbi, &args);
    rec.end(s);
    if run.error.is_some() || run.deadlock {
        return Err(format!("{}: recording run failed: {:?}", job.label, run.error));
    }

    let s = rec.begin("taskgrind.finalize", id);
    let mut recording = std::rc::Rc::try_unwrap(state)
        .map_err(|_| "recording state still shared after the VM dropped")?
        .into_inner();
    recording.blocks.sort_by_key(|b| b.base);
    let module_arc = recording.module.take().unwrap_or_else(|| Arc::new(module.clone()));
    let (graph, _) = std::mem::take(&mut recording.builder).finalize_with_stats();
    rec.end(s);

    let s = rec.begin("taskgrind.reach", id);
    let reach = Reachability::compute(&graph);
    rec.end(s);

    let s = rec.begin("taskgrind.sweep", id);
    let threads = analysis::resolve_threads(cfg.analysis_threads);
    let found = analysis::run_sweep(&graph, &reach, &cfg.suppress, threads);
    rec.end(s);

    let s = rec.begin("taskgrind.report", id);
    let blocks = &recording.blocks;
    let grouped =
        report::summarize(&graph, &module_arc, blocks, &found.candidates, &cfg.record.ignore_list);
    let (mut reports, _) = cfg.suppressions.apply(grouped);
    rec.end(s);

    let s = rec.begin("taskgrind.confirm", id);
    let confirmed = cfg.confirm.then(|| {
        let (verdicts, stats) =
            confirm::confirm_candidates(&module, &args, &cfg, &graph, &found.candidates);
        let c = &found.candidates;
        report::attach_verdicts(&mut reports, &graph, &module_arc, blocks, c, &verdicts);
        stats
    });
    rec.end(s);

    let s = rec.begin("taskgrind.report", id);
    let rendered: Vec<String> = reports.iter().map(report::render_taskgrind).collect();
    let rendered = rendered.join("\n");
    rec.end(s);
    rec.end(root);

    let mut c = Registry::new();
    let m = &run.metrics;
    for (key, v) in [
        ("vm.instrs", m.instrs),
        ("vm.translations", m.translations),
        ("dispatch.chain_hits", m.dispatch.chain_hits),
        ("dispatch.probes", m.dispatch.probes),
        ("filter.sites_pruned", recording.sites_pruned),
        ("filter.sites_instrumented", recording.sites_instrumented),
        ("filter.accesses_recorded", recording.accesses_recorded),
        ("taskgrind.segments", graph.n_nodes() as u64),
        ("taskgrind.candidates", found.candidates.len() as u64),
        ("taskgrind.reports", reports.len() as u64),
        ("analysis.pairs_checked", found.pairs_checked),
        ("analysis.raw_ranges", found.raw_ranges),
        ("analysis.suppressed_locks", found.suppressed_locks),
        ("analysis.suppressed_mutex", found.suppressed_mutex),
        ("analysis.suppressed_tls", found.suppressed_tls),
        ("analysis.suppressed_stack", found.suppressed_stack),
        ("analysis.suppressed_static", found.suppressed_static),
    ] {
        c.set_u64(key, v);
    }
    if let Some(st) = confirmed {
        c.set_u64("confirm.pairs", st.pairs);
        c.set_u64("confirm.replays", st.replays);
        c.set_u64("confirm.confirmed", st.confirmed);
    }
    Ok(Traced { module, vm: cfg.vm, root, report: rendered, counters: c })
}

/// The E9 split: the same guest under the interpreter, DBI with a no-op
/// tool, and DBI with an access-counting tool.
fn probes(t: &Traced, job: &Job, rec: &mut Recorder, id: u64) -> Result<(), String> {
    let args: Vec<&str> = job.args.iter().map(String::as_str).collect();
    type NewTool = fn() -> Box<dyn Tool>;
    let runs: [(&'static str, NewTool, ExecMode); 3] = [
        ("grindcore.fast", || Box::new(NulTool), ExecMode::Fast),
        ("grindcore.dbi_nul", || Box::new(NulTool), ExecMode::Dbi),
        ("grindcore.dbi_count", || Box::new(CountTool::default()), ExecMode::Dbi),
    ];
    for (name, tool, mode) in runs {
        let s = rec.begin(name, id);
        let r = Vm::new(t.module.clone(), tool(), t.vm.clone()).run(mode, &args);
        rec.end(s);
        if !r.ok() {
            return Err(format!("{}: {name} run failed: {:?}", job.label, r.error));
        }
    }
    Ok(())
}

/// Per-job results of one traced job.
struct TraceSample {
    daemon: DaemonJob,
    untraced_s: f64,
    traced_s: f64,
    unattributed: f64,
    counters: Registry,
}

/// Daemon reference, untraced reference, traced path and probes for one
/// job, with the decomposition checks.
fn trace_one(
    job: &Job,
    id: u64,
    sock: &Path,
    cache: Option<&Path>,
    rec: &mut Recorder,
) -> Result<TraceSample, String> {
    let daemon = client::submit(sock, &client::request_line(job, "taskgrind", cache))
        .map_err(|e| format!("{}: daemon: {e}", job.label))?;
    rec.daemon(&daemon, id);
    let (untraced_s, untraced) = e2e::one_shot(job, "taskgrind")?;
    let t = traced_job(job, rec, id)?;
    probes(&t, job, rec, id)?;

    let daemon_report = daemon.field(&["report"]).and_then(|v| v.as_str());
    if daemon_report.is_none() {
        return Err(format!("{}: daemon error {:?}", job.label, daemon.error));
    }
    if t.report != untraced.report || Some(t.report.as_str()) != daemon_report {
        return Err(format!(
            "{}: traced report differs from Session::run or the daemon",
            job.label
        ));
    }
    for (key, v) in t.counters.iter() {
        let want = untraced.registry.u64(key);
        if *v != tg_obs::Value::U64(want) {
            return Err(format!("{}: traced {key} = {v:?}, Session::run has {want}", job.label));
        }
    }
    if (t.counters.u64("taskgrind.reports") > 0) != job.expect_reports() {
        return Err(format!("{}: pinned verdict differs", job.label));
    }
    let traced_s = rec.duration(t.root);
    let covered: f64 = rec.spans[t.root..]
        .iter()
        .filter(|s| s.parent == Some(t.root))
        .map(|s| s.end - s.start)
        .sum();
    let unattributed = 1.0 - covered / traced_s;
    if unattributed.abs() > 0.05 {
        return Err(format!(
            "{}: layer self-times leave {:.1}% of the job unattributed",
            job.label,
            unattributed * 100.0
        ));
    }
    Ok(TraceSample { daemon, untraced_s, traced_s, unattributed, counters: t.counters })
}

/// `serve_warm`'s second client: keeps the daemon's queue as busy as the
/// end-to-end loop does while the first client traces.
fn load_client(
    sock: &Path,
    cache: &Path,
    stream: JobStream,
    t0: Instant,
    seconds: f64,
    rec: &mut Recorder,
) -> (Vec<DaemonJob>, Vec<String>) {
    let (mut done, mut errors) = (Vec::new(), Vec::new());
    for (id, job) in (1_000_000u64..).zip(stream) {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        match client::submit(sock, &client::request_line(&job, "taskgrind", Some(cache))) {
            Ok(d) if d.error.is_none() => {
                rec.daemon(&d, id);
                done.push(d);
            }
            Ok(d) => errors.push(format!("{}: daemon error {:?}", job.label, d.error)),
            Err(e) => errors.push(format!("{}: {e}", job.label)),
        }
    }
    (done, errors)
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The spans as a Chrome trace (open it in Perfetto or
/// chrome://tracing): one event per span, with its job id, span id and
/// parent span id in `args`.
fn trace_json(recs: &[&Recorder]) -> String {
    let mut events = Vec::new();
    let mut base = 0;
    for r in recs {
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| (p + base).to_string());
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{},\"span\":{},\"parent\":{parent}}}}}",
                s.name,
                s.tid,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.job,
                i + base,
            ));
        }
        base += r.spans.len();
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Layer spans reported as mean self time per traced job.
const JOB_LAYERS: [&str; 11] = [
    "minicc.build",
    "tga_analysis.analyze",
    "taskgrind.record",
    "taskgrind.finalize",
    "taskgrind.reach",
    "taskgrind.sweep",
    "taskgrind.report",
    "taskgrind.confirm",
    "grindcore.fast",
    "grindcore.dbi_nul",
    "grindcore.dbi_count",
];
/// Daemon spans reported as mean self time per daemon job.
const DAEMON_LAYERS: [&str; 2] = ["tg_engine.queue_wait", "tg_engine.service"];

/// Trace a workload's jobs for `seconds` (at least one job).
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = e2e::run_dir(w)?;
    let serve = w == Workload::ServeWarm;
    let epoch = Instant::now();
    // serve_warm traces against its warm two-worker daemon; the batch
    // workloads against a one-worker daemon that runs their jobs cold.
    let server = if serve {
        e2e::start_daemon(&dir, SERVE_CLIENTS, &distinct_jobs(w))?
    } else {
        e2e::start_daemon(&dir, 1, &[])?
    };
    let sock = server.socket().to_path_buf();
    let cache_dir = dir.join("cache");
    let cache = serve.then_some(cache_dir.as_path());
    let mut main = Recorder::new(epoch, 0);
    let mut load = Recorder::new(epoch, 1);
    let (mut samples, mut errors, mut attempted) = (Vec::new(), Vec::new(), 0u64);
    let t0 = Instant::now();
    let loaded = std::thread::scope(|s| {
        let load_thread = cache.map(|c| {
            let stream = JobStream::new(w, seed.wrapping_add(1));
            let (sock, rec) = (&sock, &mut load);
            s.spawn(move || load_client(sock, c, stream, t0, seconds, rec))
        });
        for (id, job) in (1u64..).zip(JobStream::new(w, seed)) {
            if id > 1 && t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
            attempted += 1;
            let mark = main.spans.len();
            match trace_one(&job, id, &sock, cache, &mut main) {
                Ok(t) => samples.push(t),
                Err(e) => {
                    main.rewind(mark);
                    errors.push(e);
                }
            }
        }
        load_thread.map(|h| h.join().expect("load client panicked"))
    });
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let mut daemon: Vec<&DaemonJob> = samples.iter().map(|t| &t.daemon).collect();
    if let Some((done, errs)) = &loaded {
        daemon.extend(done);
        attempted += (done.len() + errs.len()) as u64;
        errors.extend(errs.iter().cloned());
    }
    let path = Path::new("target/tgbench").join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, trace_json(&[&main, &load]))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut self_s: BTreeMap<&str, f64> = BTreeMap::new();
    for rec in [&main, &load] {
        for (span, t) in rec.spans.iter().zip(rec.self_times()) {
            *self_s.entry(span.name).or_default() += t;
        }
    }
    let n = samples.len().max(1) as f64;
    let sum = |key: &str| samples.iter().map(|t| t.counters.u64(key)).sum::<u64>();
    let per_job = |key: &str| sum(key) as f64 / n;
    let daemon_sum = |key: &str| daemon.iter().map(|d| d.metric(key)).sum::<u64>();
    let daemon_frac = |f: fn(&DaemonJob) -> bool| {
        frac(daemon.iter().filter(|d| f(d)).count() as u64, daemon.len() as u64)
    };
    let mean_self = |layer: &str, jobs: usize| {
        let total = self_s.get(layer).copied().unwrap_or(0.0);
        (format!("{layer}_s"), total / jobs.max(1) as f64, "s")
    };
    let mut metrics: Vec<(String, f64, &'static str)> =
        JOB_LAYERS.iter().map(|l| mean_self(l, samples.len())).collect();
    metrics.extend(DAEMON_LAYERS.iter().map(|l| mean_self(l, daemon.len())));
    let hits = daemon_sum("cache.hits");
    let warm: Vec<f64> = samples.iter().map(|t| t.untraced_s / t.daemon.latency).collect();
    let overhead: Vec<f64> = samples.iter().map(|t| t.traced_s / t.untraced_s).collect();
    let chain_hits = sum("dispatch.chain_hits");
    let pruned = sum("filter.sites_pruned");
    let counts: [(&str, f64, &'static str); 22] = [
        ("grindcore.instrs", per_job("vm.instrs"), "count"),
        ("grindcore.translations", per_job("vm.translations"), "count"),
        ("dispatch.chain_hit_frac", frac(chain_hits, chain_hits + sum("dispatch.probes")), "frac"),
        (
            "tga_analysis.prune_frac",
            frac(pruned, pruned + sum("filter.sites_instrumented")),
            "frac",
        ),
        ("taskgrind.accesses_recorded", per_job("filter.accesses_recorded"), "count"),
        ("taskgrind.segments", per_job("taskgrind.segments"), "count"),
        ("analysis.pairs_checked", per_job("analysis.pairs_checked"), "count"),
        ("analysis.raw_ranges", per_job("analysis.raw_ranges"), "count"),
        (
            "analysis.candidate_frac",
            frac(sum("taskgrind.candidates"), sum("analysis.raw_ranges")),
            "frac",
        ),
        ("analysis.suppressed_locks", per_job("analysis.suppressed_locks"), "count"),
        ("analysis.suppressed_mutex", per_job("analysis.suppressed_mutex"), "count"),
        ("analysis.suppressed_tls", per_job("analysis.suppressed_tls"), "count"),
        ("analysis.suppressed_stack", per_job("analysis.suppressed_stack"), "count"),
        ("analysis.suppressed_static", per_job("analysis.suppressed_static"), "count"),
        ("taskgrind.reports", per_job("taskgrind.reports"), "count"),
        ("confirm.replays", per_job("confirm.replays"), "count"),
        ("confirm.confirm_frac", frac(sum("confirm.confirmed"), sum("confirm.pairs")), "frac"),
        ("cache.hit_frac", frac(hits, hits + daemon_sum("cache.misses")), "frac"),
        ("tg_engine.module_memo_hits", daemon_frac(|d| d.memoized), "1/job"),
        ("tg_engine.status_out_of_order", daemon_frac(|d| d.out_of_order), "1/job"),
        ("tg_engine.warm_speedup_x", median(&warm), "x"),
        ("tgbench.trace_overhead_x", median(&overhead), "x"),
    ];
    metrics.extend(counts.into_iter().map(|(k, v, u)| (k.to_string(), v, u)));
    let worst = samples.iter().map(|t| t.unattributed.abs()).fold(0.0, f64::max);
    let mut notes = vec![format!(
        "traced jobs {}, daemon jobs {}, failed {} of {}; trace {}; worst unattributed share {:.2}%",
        samples.len(),
        daemon.len(),
        errors.len(),
        attempted,
        path.display(),
        worst * 100.0,
    )];
    notes.extend(errors.iter().take(10).map(|e| format!("FAILED {e}")));
    Ok(Outcome { attempted, failed: errors.len() as u64, metrics, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(Instant::now(), 0);
        let root = r.push("job", 1, 0.0, 10.0, None);
        let a = r.push("a", 1, 1.0, 4.0, Some(root));
        r.push("a.inner", 1, 2.0, 3.0, Some(a));
        r.push("b", 1, 5.0, 9.0, Some(root));
        assert_eq!(r.self_times(), vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn trace_is_json_with_global_span_ids() {
        let epoch = Instant::now();
        let mut first = Recorder::new(epoch, 0);
        first.push("x", 1, 0.0, 1.0, None);
        let mut second = Recorder::new(epoch, 1);
        let root = second.push("job", 2, 0.0, 2.0, None);
        second.push("y", 2, 0.5, 1.5, Some(root));
        let doc = tg_obs::json::parse(&trace_json(&[&first, &second])).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("span").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(events[2].get("dur").and_then(|v| v.as_f64()), Some(1e6));
    }
}
