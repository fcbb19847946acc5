//! End-to-end mode: the paper's overhead ratio, job latency, throughput
//! and memory, measured with tracing off.
//!
//! Every sample pairs a Taskgrind job with a `tool=none` job on the same
//! input, both as a user would run them: one-shot jobs in fresh sessions
//! for the batch workloads, warm jobs through a daemon for `serve_warm`.
//! The ratio of the pair cancels most of the drift of a shared host.

use crate::client::{self, DaemonJob};
use crate::Outcome;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tg_engine::serve::{ServeOptions, Server};
use tg_engine::{Program, RunOutcome, RunRequest, Session};
use tgbench::jobs::{distinct_jobs, Job, JobStream, Workload};
use tgbench::stats::{beyond_p90, geomean, median, paired_ratios, quantile};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop clients of `serve_warm`, and the daemon's workers.
pub const SERVE_CLIENTS: usize = 2;

/// The in-process request for `job` under `tool`, with the default
/// engine configuration.
pub fn request(job: &Job, tool: &str) -> RunRequest {
    RunRequest {
        program: Program::Source { name: job.name.into(), text: job.source.into() },
        tool: tool.into(),
        threads: job.threads,
        guest_args: job.args.clone(),
        confirm_races: job.confirm && tool == "taskgrind",
        ..RunRequest::default()
    }
}

/// The parts of a job's result the benchmark checks and measures, from
/// either an in-process outcome or a daemon result line.
struct JobResult {
    reports: u64,
    deadlock: bool,
    stdout: String,
    footprint: u64,
    peak_tool_bytes: u64,
    translation_bytes: u64,
}

impl From<&RunOutcome> for JobResult {
    fn from(o: &RunOutcome) -> JobResult {
        JobResult {
            reports: o.n_reports as u64,
            deadlock: o.deadlock,
            stdout: o.stdout.clone(),
            footprint: o.registry.u64("vm.guest_footprint"),
            peak_tool_bytes: o.registry.u64("stream.peak_tool_bytes"),
            translation_bytes: o.registry.u64("vm.translation_bytes"),
        }
    }
}

impl TryFrom<&DaemonJob> for JobResult {
    type Error = String;

    fn try_from(d: &DaemonJob) -> Result<JobResult, String> {
        if let Some(reason) = &d.error {
            return Err(format!("daemon error {reason}"));
        }
        Ok(JobResult {
            reports: d
                .field(&["reports"])
                .and_then(|v| v.as_u64())
                .ok_or("result without reports")?,
            deadlock: d.field(&["deadlock"]) != Some(&tg_obs::json::JsonValue::Bool(false)),
            stdout: d.field(&["stdout"]).and_then(|v| v.as_str()).unwrap_or_default().to_string(),
            footprint: d.metric("vm.guest_footprint"),
            peak_tool_bytes: d.metric("stream.peak_tool_bytes"),
            translation_bytes: d.metric("vm.translation_bytes"),
        })
    }
}

/// One paired measurement.
struct Sample {
    label: String,
    job_s: f64,
    none_s: f64,
    mem_x: f64,
    out_of_order: u64,
}

/// Checks every pair of a run. Each job runs under a fixed scheduler
/// seed, so its guest output must repeat exactly: the first pair of a
/// label pins both outputs for the rest of the run. (Taskgrind and `none`
/// may print differently: DBI and the interpreter slice threads at
/// different points, which a threadprivate program can observe.)
#[derive(Default)]
struct Checker {
    outputs: Mutex<HashMap<String, (String, String)>>,
}

impl Checker {
    /// Check a Taskgrind/none pair against the pinned verdict and earlier
    /// pairs of the same job; return the Table II memory ratio: (guest +
    /// tool + translation bytes of the Taskgrind job) / guest bytes of the
    /// `none` job.
    fn check(&self, job: &Job, tg: &JobResult, none: &JobResult) -> Result<f64, String> {
        if tg.deadlock || none.deadlock {
            return Err(format!("{}: guest deadlocked", job.label));
        }
        if (tg.reports > 0) != job.expect_reports() {
            return Err(format!("{}: {} report(s), pinned verdict differs", job.label, tg.reports));
        }
        let mut outputs = self.outputs.lock().expect("output lock poisoned");
        let pinned = outputs
            .entry(job.label.clone())
            .or_insert_with(|| (tg.stdout.clone(), none.stdout.clone()));
        if (&pinned.0, &pinned.1) != (&tg.stdout, &none.stdout) {
            return Err(format!("{}: guest stdout changed between runs of the job", job.label));
        }
        if none.footprint == 0 {
            return Err(format!("{}: none job published no guest footprint", job.label));
        }
        let tool = tg.footprint + tg.peak_tool_bytes + tg.translation_bytes;
        Ok(tool as f64 / none.footprint as f64)
    }
}

/// Run one job one-shot in a fresh session; return its wall time.
pub fn one_shot(job: &Job, tool: &str) -> Result<(f64, RunOutcome), String> {
    let req = request(job, tool);
    let t0 = Instant::now();
    let out = Session::new().run(&req).map_err(|e| format!("{}: {e}", job.label))?;
    Ok((t0.elapsed().as_secs_f64(), out))
}

fn batch_pair(job: &Job, checker: &Checker) -> Result<Sample, String> {
    let (job_s, tg) = one_shot(job, "taskgrind")?;
    let (none_s, none) = one_shot(job, "none")?;
    let mem_x = checker.check(job, &(&tg).into(), &(&none).into())?;
    Ok(Sample { label: job.label.clone(), job_s, none_s, mem_x, out_of_order: 0 })
}

fn daemon_pair(sock: &Path, cache: &Path, job: &Job, checker: &Checker) -> Result<Sample, String> {
    let submit = |tool| {
        client::submit(sock, &client::request_line(job, tool, Some(cache)))
            .map_err(|e| format!("{}: {e}", job.label))
    };
    let tg = submit("taskgrind")?;
    let none = submit("none")?;
    let err = |e: String| format!("{}: {e}", job.label);
    let (tg_result, none_result) = (JobResult::try_from(&tg), JobResult::try_from(&none));
    let mem_x = checker.check(job, &tg_result.map_err(err)?, &none_result.map_err(err)?)?;
    Ok(Sample {
        label: job.label.clone(),
        job_s: tg.latency,
        none_s: none.latency,
        mem_x,
        out_of_order: tg.out_of_order as u64 + none.out_of_order as u64,
    })
}

/// A fresh directory for one run's files, inside the checkout.
pub fn run_dir(w: Workload) -> Result<PathBuf, String> {
    let dir = PathBuf::from(format!("target/tgbench/{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Start a daemon with `workers` workers on `dir/daemon.sock` and push the
/// Taskgrind job of every request in `cold_pass` through it once, from as
/// many clients as workers, so the code cache and the session memo fill.
pub fn start_daemon(dir: &Path, workers: usize, cold_pass: &[Job]) -> Result<Server, String> {
    let opts = ServeOptions { workers, queue_cap: 8, ..ServeOptions::default() };
    let server = Server::start(&dir.join("daemon.sock"), opts)
        .map_err(|e| format!("cannot start daemon: {e}"))?;
    let (sock, cache) = (server.socket(), dir.join("cache"));
    let next = AtomicUsize::new(0);
    let client = || -> Result<(), String> {
        while let Some(job) = cold_pass.get(next.fetch_add(1, Ordering::Relaxed)) {
            let line = client::request_line(job, "taskgrind", Some(&cache));
            let d = client::submit(sock, &line).map_err(|e| format!("{}: {e}", job.label))?;
            let r = JobResult::try_from(&d).map_err(|e| format!("{}: {e}", job.label))?;
            if (r.reports > 0) != job.expect_reports() {
                return Err(format!(
                    "{}: {} report(s), pinned verdict differs",
                    job.label, r.reports
                ));
            }
        }
        Ok(())
    };
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..workers).map(|_| s.spawn(client)).collect();
        clients.into_iter().try_for_each(|c| c.join().expect("cold-pass client panicked"))
    })?;
    Ok(server)
}

/// Batch set-up: build every distinct guest, compute its static facts,
/// and run one warm-up sample of the first job.
fn batch_setup(distinct: &[Job], checker: &Checker) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut built: Vec<&str> = Vec::new();
    for job in distinct {
        if built.contains(&job.name) {
            continue;
        }
        built.push(job.name);
        let m = guest_rt::build_program(&[minicc::SourceFile::new(job.name, job.source)])
            .map_err(|e| format!("{}: {e}", job.label))?;
        let opts = tga_analysis::AnalyzeOpts { concurrency: true };
        std::hint::black_box(tga_analysis::analyze_with(&m, &opts));
    }
    batch_pair(&distinct[0], checker)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Measure a workload end to end for `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let distinct = distinct_jobs(w);
    let mut stream = JobStream::new(w, seed);
    let checker = Checker::default();
    let mut setups = Vec::new();
    let mut notes = Vec::new();
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let record = |r: Result<Sample, String>| match r {
        Ok(s) => samples.lock().expect("sample lock poisoned").push(s),
        Err(e) => errors.lock().expect("error lock poisoned").push(e),
    };
    let elapsed;
    if w == Workload::ServeWarm {
        let dir = run_dir(w)?;
        let mut server = None;
        for _ in 0..SETUPS {
            drop(server.take());
            let _ = std::fs::remove_dir_all(dir.join("cache"));
            let t0 = Instant::now();
            server = Some(start_daemon(&dir, SERVE_CLIENTS, &distinct)?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let server = server.expect("at least one set-up");
        let (sock, cache) = (server.socket().to_path_buf(), dir.join("cache"));
        let stream = Mutex::new(stream);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..SERVE_CLIENTS {
                s.spawn(|| {
                    while t0.elapsed().as_secs_f64() < seconds {
                        let job = stream.lock().expect("stream lock poisoned").next();
                        let job = job.expect("job streams are endless");
                        record(daemon_pair(&sock, &cache, &job, &checker));
                    }
                });
            }
        });
        elapsed = t0.elapsed().as_secs_f64();
        server.stop();
        notes.push(warm_speedup(&distinct, &samples.lock().expect("sample lock poisoned"))?);
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        for _ in 0..SETUPS {
            setups.push(batch_setup(&distinct, &checker)?);
        }
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            let job = stream.next().expect("job streams are endless");
            record(batch_pair(&job, &checker));
        }
        elapsed = t0.elapsed().as_secs_f64();
    }

    let samples = samples.into_inner().expect("sample lock poisoned");
    let errors = errors.into_inner().expect("error lock poisoned");
    let attempted = (samples.len() + errors.len()) as u64;
    let job_s: Vec<f64> = samples.iter().map(|s| s.job_s).collect();
    let none_s: Vec<f64> = samples.iter().map(|s| s.none_s).collect();
    let ratios = paired_ratios(&job_s, &none_s);
    // Jobs differ in scale by orders of magnitude, so each job's median
    // enters a geometric mean with equal weight: the result then does not
    // depend on where the run's last round happened to stop.
    let mut by_job: BTreeMap<&str, Vec<&Sample>> = BTreeMap::new();
    for s in &samples {
        by_job.entry(&s.label).or_default().push(s);
    }
    let per_job = |f: fn(&Sample) -> f64| -> f64 {
        let medians: Vec<f64> =
            by_job.values().map(|v| median(&v.iter().map(|s| f(s)).collect::<Vec<_>>())).collect();
        geomean(&medians)
    };
    notes.push(format!(
        "samples {} over {} jobs, failed {} of {} ({:.4}), status_out_of_order {}",
        samples.len(),
        by_job.len(),
        errors.len(),
        attempted,
        errors.len() as f64 / attempted.max(1) as f64,
        samples.iter().map(|s| s.out_of_order).sum::<u64>(),
    ));
    // Absolute times follow the host's load, which on a shared machine
    // swings them by tens of percent; they are reported without a bound.
    notes.push(format!(
        "job_s_p50 {:.6} s (per-job medians, geometric mean); pooled job_s p50 {:.6} s, \
         p90 {:.6} s ({} beyond); overhead_x p90 has {} beyond; jobs_per_s {:.3}; peak_rss_mb {:.1}",
        per_job(|s| s.job_s),
        median(&job_s),
        quantile(&job_s, 0.9),
        beyond_p90(&job_s),
        beyond_p90(&ratios),
        samples.len() as f64 / elapsed,
        crate::peak_rss_mb(),
    ));
    notes.extend(errors.iter().take(10).map(|e| format!("FAILED {e}")));
    Ok(Outcome {
        attempted,
        failed: errors.len() as u64,
        metrics: [
            ("setup_s", median(&setups), "s"),
            ("overhead_x", per_job(|s| s.job_s / s.none_s), "x"),
            ("overhead_x_p90", quantile(&ratios, 0.9), "x"),
            ("mem_overhead_x", per_job(|s| s.mem_x), "x"),
        ]
        .into_iter()
        .map(|(k, v, u)| (k.to_string(), v, u))
        .collect(),
        notes,
    })
}

/// `serve_warm` only: the median over requests of a cold one-shot
/// `Session::run` divided by the median warm daemon latency of the same
/// request.
fn warm_speedup(distinct: &[Job], samples: &[Sample]) -> Result<String, String> {
    let mut ratios = Vec::new();
    for job in distinct {
        let warm: Vec<f64> =
            samples.iter().filter(|s| s.label == job.label).map(|s| s.job_s).collect();
        if !warm.is_empty() {
            ratios.push(one_shot(job, "taskgrind")?.0 / median(&warm));
        }
    }
    Ok(format!("warm_speedup_x {:.4} x (over {} requests)", median(&ratios), ratios.len()))
}
