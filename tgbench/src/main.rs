//! `tgbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload for a fixed time and prints human-readable lines,
//! then, as the last line, one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":{"value":..,"unit":".."}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See README.md for the workloads and metrics.

mod client;
mod e2e;
mod layers;

use std::process::ExitCode;
use tgbench::jobs::Workload;

/// What one run measured.
pub struct Outcome {
    /// Samples (end to end) or traced and daemon jobs (trace) attempted.
    pub attempted: u64,
    /// Attempts that errored, deadlocked, were rejected or gave a wrong
    /// verdict, report or counter.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: tgbench --workload <lulesh_table2|bots_tasks|corpus_triage|serve_warm> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: Workload::LuleshTable2, seed: 1, seconds: 30.0, trace: false };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// `TG_*` variables reconfigure the engine (`EngineConfig::resolve`,
/// `RecordOptions::default`) or its outputs behind the benchmark's back.
fn tg_variables() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TG_"))
        .collect();
    vars.sort();
    vars
}

/// The checked-out commit, read from `.git` without running git.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(&format!(" {r}")))?;
            line.split(' ').next().map(str::to_string)
        }),
    });
    rev.unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

fn result_line(o: &Outcome) -> String {
    let finite = o.metrics.iter().all(|m| m.1.is_finite());
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { format!("{v}") } else { "0".into() };
            format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0 && o.attempted > 0 && finite,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let vars = tg_variables();
    if !vars.is_empty() {
        eprintln!("tgbench: refusing to run with {} set: they change the engine", vars.join(", "));
        return ExitCode::from(2);
    }
    let engine = tg_engine::EngineConfig::default();
    let knobs: Vec<String> = engine.describe().iter().map(|(k, v)| format!("{k}={v}")).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "tgbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("host: nproc={nproc} revision={}", git_revision());
    println!("engine: {}", knobs.join(" "));

    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tgbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (k, v, u) in &outcome.metrics {
        println!("{k} {v} {u}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_parses() {
        let a = parse_args(&argv("--workload serve_warm --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::ServeWarm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert!(parse_args(&argv("--seed 7")).is_err(), "workload is required");
        assert!(parse_args(&argv("--workload hit")).is_err());
        assert!(parse_args(&argv("--workload bots_tasks --trace 2")).is_err());
        assert!(parse_args(&argv("--workload bots_tasks --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload bots_tasks --seed")).is_err());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("a_s".into(), 0.000125, "s"), ("b_x".into(), 2.0, "x")],
            notes: Vec::new(),
        };
        let doc = tg_obs::json::parse(&result_line(&o)).unwrap();
        assert_eq!(doc.get("correct"), Some(&tg_obs::json::JsonValue::Bool(true)));
        let a = doc.get("metrics").and_then(|m| m.get("a_s")).unwrap();
        assert_eq!(a.get("value").and_then(|v| v.as_f64()), Some(0.000125));
        assert_eq!(a.get("unit").and_then(|v| v.as_str()), Some("s"));
        let failed = Outcome { failed: 1, ..o };
        assert!(result_line(&failed).starts_with("{\"correct\":false"));
    }
}
