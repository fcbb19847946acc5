//! A `tgrind serve` client that tolerates status lines in any order.
//!
//! The daemon writes the `queued` acknowledgement only after handing the
//! job to a worker, so on a warm job it can arrive after `running` or even
//! after `result`. The client therefore reads to end of stream, takes the
//! `result` (or `error`) line wherever it lands, and reports a late
//! `queued` as out of order instead of failing.

use std::io;
use std::path::Path;
use std::time::Instant;
use tg_engine::serve::Client;
use tg_obs::json::{self, escape, JsonValue};
use tgbench::jobs::Job;

/// What one daemon job returned, with client-side timings in seconds
/// since `sent`.
pub struct DaemonJob {
    /// When the request was sent.
    pub sent: Instant,
    /// Send → `running` status.
    pub queue_wait: f64,
    /// Send → `result` (or `error`) line.
    pub latency: f64,
    /// The parsed `result` line; `None` when the daemon answered with an
    /// error.
    pub result: Option<JsonValue>,
    /// The error reason (`queue_full`, `build_failed`, ...), if any.
    pub error: Option<String>,
    /// The `loaded` status reported a memoized module build.
    pub memoized: bool,
    /// A `queued` status arrived after another status or the result.
    pub out_of_order: bool,
}

impl DaemonJob {
    /// An unsigned metric of the result's registry (0 when absent).
    pub fn metric(&self, key: &str) -> u64 {
        self.field(&["metrics", key]).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    /// A nested field of the result line.
    pub fn field(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(self.result.as_ref()?, |v, k| v.get(k))
    }
}

/// The serve request line for `job` under `tool`, sharing compiled code
/// through `code_cache` when given.
pub fn request_line(job: &Job, tool: &str, code_cache: Option<&Path>) -> String {
    let args: Vec<String> = job.args.iter().map(|a| format!("\"{}\"", escape(a))).collect();
    let mut line = format!(
        "{{\"op\":\"run\",\"source\":{{\"name\":\"{}\",\"text\":\"{}\"}},\"tool\":\"{tool}\",\"threads\":{},\"guest_args\":[{}]",
        escape(job.name),
        escape(job.source),
        job.threads,
        args.join(","),
    );
    if job.confirm && tool == "taskgrind" {
        line.push_str(",\"confirm_races\":true");
    }
    if let Some(dir) = code_cache {
        line.push_str(&format!(",\"code_cache\":\"{}\"", escape(&dir.display().to_string())));
    }
    line.push('}');
    line
}

/// Submit one request and read its whole response stream.
pub fn submit(sock: &Path, line: &str) -> io::Result<DaemonJob> {
    let sent = Instant::now();
    let mut client = Client::connect(sock)?;
    client.send(line)?;
    let mut job = DaemonJob {
        sent,
        queue_wait: f64::NAN,
        latency: f64::NAN,
        result: None,
        error: None,
        memoized: false,
        out_of_order: false,
    };
    let mut seen = false;
    while let Some(reply) = client.recv()? {
        let now = sent.elapsed().as_secs_f64();
        let doc = json::parse(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        match (
            doc.get("type").and_then(JsonValue::as_str),
            doc.get("state").and_then(JsonValue::as_str),
        ) {
            (Some("status"), Some("queued")) => job.out_of_order |= seen,
            (Some("status"), Some("running")) => job.queue_wait = now,
            (Some("status"), Some("loaded")) => {
                job.memoized = doc.get("memoized") == Some(&JsonValue::Bool(true));
            }
            (Some("result"), _) => {
                job.latency = now;
                job.result = Some(doc);
            }
            (Some("error"), _) => {
                job.latency = now;
                let reason = doc.get("reason").and_then(JsonValue::as_str).unwrap_or("unknown");
                job.error = Some(reason.to_string());
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected daemon line: {reply}"),
                ))
            }
        }
        seen = true;
    }
    if job.latency.is_nan() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no result or error line"));
    }
    // A rejected job never reaches a worker: it waited the whole time.
    if job.queue_wait.is_nan() {
        job.queue_wait = job.latency;
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_and_carry_every_knob() {
        let job = tgbench::jobs::distinct_jobs(tgbench::jobs::Workload::CorpusTriage)
            .into_iter()
            .next()
            .unwrap();
        let line = request_line(&job, "taskgrind", Some(Path::new("target/c \"q\"")));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("threads").and_then(JsonValue::as_u64), Some(job.threads));
        assert_eq!(doc.get("confirm_races"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("code_cache").and_then(JsonValue::as_str), Some("target/c \"q\""));
        let text = doc.get("source").and_then(|s| s.get("text")).and_then(JsonValue::as_str);
        assert_eq!(text, Some(job.source));
        let none = json::parse(&request_line(&job, "none", None)).unwrap();
        assert_eq!(none.get("confirm_races"), None, "none jobs never confirm");
        assert_eq!(none.get("code_cache"), None);
    }
}
