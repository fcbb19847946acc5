//! Global span tracer with a bounded ring-buffer sink and Chrome-trace
//! export.
//!
//! The tracer is process-global and **off by default**: every hook first
//! calls [`enabled`], a single relaxed atomic load, and does nothing when
//! tracing has not been [`init`]ialized — so instrumented hot paths cost
//! one predictable branch. When enabled, events go into a bounded
//! `VecDeque` ring (oldest events are dropped on overflow) guarded by a
//! mutex; the hooked phases are coarse (translations, scheduler slices,
//! tool callbacks, analysis phases), never per-instruction or per-memory-access.
//!
//! Two tracks are modelled as Chrome-trace *processes*:
//!
//! * [`PID_HOST`] — the DBI engine itself: translation sub-phases
//!   (lift/instrument/compile/fuse), dispatch slices, tool callbacks,
//!   graph finalize, analysis, report generation.
//! * [`PID_GUEST`] — the guest's task-segment timeline: one Chrome *thread*
//!   per guest thread carrying begin/end spans for parallel regions,
//!   implicit tasks and explicit tasks, instants for create/spawn/
//!   taskwait/barrier, and a dedicated track for the closed-segment byte
//!   counter.
//!
//! Export ([`export_chrome_json`]) merges, sorts by timestamp, repairs
//! truncated span nesting (unmatched `E` events at the start of a ring
//! that overflowed are dropped; unclosed `B` events are closed at the
//! final timestamp), and emits `{"traceEvents": [...]}` JSON loadable in
//! Perfetto or `chrome://tracing`.

use crate::json::{escape, JsonValue};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Chrome-trace process id for host (engine) phase spans.
pub const PID_HOST: u32 = 1;
/// Chrome-trace process id for the guest task-segment timeline.
pub const PID_GUEST: u32 = 2;
/// Synthetic guest-side thread id carrying the closed-segment byte
/// counter (`closed_bytes`).
pub const TID_RETIRE: u32 = 999;
/// Synthetic guest-side thread id carrying confirm-replay instants
/// (snapshots, adversarial attempts, verdicts).
pub const TID_CONFIRM: u32 = 998;

/// One recorded trace event (Chrome-trace phases `B`, `E`, `i`, `C`).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    seq: u64,
    /// Microseconds since [`init`].
    pub ts_us: u64,
    /// Chrome-trace phase: `B` begin span, `E` end span, `i` instant,
    /// `C` counter sample.
    pub ph: char,
    /// Event name (span/instant/counter label).
    pub name: Cow<'static, str>,
    /// Chrome-trace process id ([`PID_HOST`] or [`PID_GUEST`]).
    pub pid: u32,
    /// Track id within the process (host thread or guest thread).
    pub tid: u32,
    /// Numeric payload rendered into the Chrome `args` object.
    pub args: Vec<(&'static str, u64)>,
}

struct TraceState {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    seq: u64,
    /// `(pid, tid) -> track name` metadata, kept out of the ring so it
    /// survives overflow.
    thread_names: BTreeMap<(u32, u32), String>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<TraceState>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_HOST_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static HOST_TID: u32 = NEXT_HOST_TID.fetch_add(1, Ordering::Relaxed);
}

/// Default ring capacity used by [`init_default`]: enough for every
/// translation and scheduler slice of the bundled examples.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Is tracing currently enabled? One relaxed atomic load; every hook in
/// the engine gates on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable tracing with a ring buffer holding at most `capacity` events.
/// Any previously buffered events are discarded.
pub fn init(capacity: usize) {
    let _ = EPOCH.set(Instant::now());
    let mut st = STATE.lock().unwrap();
    *st = Some(TraceState {
        ring: VecDeque::with_capacity(capacity.min(1 << 20)),
        cap: capacity.max(16),
        dropped: 0,
        seq: 0,
        thread_names: BTreeMap::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Enable tracing with [`DEFAULT_CAPACITY`].
pub fn init_default() {
    init(DEFAULT_CAPACITY);
}

/// Disable tracing and discard all buffered events.
pub fn shutdown() {
    ENABLED.store(false, Ordering::SeqCst);
    *STATE.lock().unwrap() = None;
}

/// Number of events dropped so far due to ring overflow.
pub fn dropped() -> u64 {
    STATE.lock().unwrap().as_ref().map_or(0, |s| s.dropped)
}

/// Number of events currently buffered.
pub fn buffered() -> usize {
    STATE.lock().unwrap().as_ref().map_or(0, |s| s.ring.len())
}

fn now_us() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_micros() as u64)
}

/// The stable small-integer track id of the calling host thread.
pub fn host_tid() -> u32 {
    HOST_TID.with(|t| *t)
}

fn push(ph: char, name: Cow<'static, str>, pid: u32, tid: u32, args: Vec<(&'static str, u64)>) {
    let ts_us = now_us();
    let mut guard = STATE.lock().unwrap();
    if let Some(st) = guard.as_mut() {
        if st.ring.len() >= st.cap {
            st.ring.pop_front();
            st.dropped += 1;
        }
        let seq = st.seq;
        st.seq += 1;
        st.ring.push_back(TraceEvent { seq, ts_us, ph, name, pid, tid, args });
    }
}

/// Name a track (a `(pid, tid)` pair) in the exported trace. Metadata is
/// stored outside the ring, so it survives overflow; renaming overwrites.
pub fn name_track(pid: u32, tid: u32, name: &str) {
    if !enabled() {
        return;
    }
    let mut guard = STATE.lock().unwrap();
    if let Some(st) = guard.as_mut() {
        st.thread_names.insert((pid, tid), name.to_string());
    }
}

/// RAII span: records `B` on construction and `E` on drop. Inert when
/// tracing is disabled.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    live: bool,
    pid: u32,
    tid: u32,
}

impl SpanGuard {
    /// A guard that records nothing.
    pub fn inactive() -> SpanGuard {
        SpanGuard { live: false, pid: 0, tid: 0 }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            push('E', Cow::Borrowed(""), self.pid, self.tid, Vec::new());
        }
    }
}

/// Open a span on an explicit track. Prefer [`host_span`] for engine
/// phases.
pub fn span(name: impl Into<Cow<'static, str>>, pid: u32, tid: u32) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive();
    }
    push('B', name.into(), pid, tid, Vec::new());
    SpanGuard { live: true, pid, tid }
}

/// Open a span on the calling host thread's track.
pub fn host_span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive();
    }
    span(name, PID_HOST, host_tid())
}

/// Open a span on the calling host thread's track, attaching numeric
/// args to the begin event.
pub fn host_span_args(
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, u64)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive();
    }
    let (pid, tid) = (PID_HOST, host_tid());
    push('B', name.into(), pid, tid, args);
    SpanGuard { live: true, pid, tid }
}

/// Record an explicit span begin (for spans whose begin and end are seen
/// at different call sites, e.g. guest task segments).
pub fn begin(name: impl Into<Cow<'static, str>>, pid: u32, tid: u32) {
    if enabled() {
        push('B', name.into(), pid, tid, Vec::new());
    }
}

/// Record an explicit span end, closing the innermost open span of the
/// track.
pub fn end(pid: u32, tid: u32) {
    if enabled() {
        push('E', Cow::Borrowed(""), pid, tid, Vec::new());
    }
}

/// Record a thread-scoped instant event with numeric args.
pub fn instant(
    name: impl Into<Cow<'static, str>>,
    pid: u32,
    tid: u32,
    args: Vec<(&'static str, u64)>,
) {
    if enabled() {
        push('i', name.into(), pid, tid, args);
    }
}

/// Record a counter sample (rendered by Perfetto as a value-over-time
/// track).
pub fn counter(name: &'static str, pid: u32, tid: u32, value: u64) {
    if enabled() {
        push('C', Cow::Borrowed(name), pid, tid, vec![("value", value)]);
    }
}

/// Drain the ring and render a Chrome-trace JSON document.
///
/// The export pass makes the document well-formed regardless of ring
/// overflow: events are sorted by `(ts, seq)`, an `E` with no matching
/// open `B` on its track (its begin was evicted) is dropped, and every
/// still-open `B` is closed at the final observed timestamp. Metadata
/// (`M`) events name the host/guest processes and any track registered
/// via [`name_track`].
pub fn export_chrome_json() -> String {
    let (mut events, thread_names, dropped) = {
        let mut guard = STATE.lock().unwrap();
        match guard.as_mut() {
            Some(st) => (
                std::mem::take(&mut st.ring).into_iter().collect::<Vec<_>>(),
                std::mem::take(&mut st.thread_names),
                st.dropped,
            ),
            None => (Vec::new(), BTreeMap::new(), 0),
        }
    };
    events.sort_by_key(|e| (e.ts_us, e.seq));
    let max_ts = events.last().map_or(0, |e| e.ts_us);

    // Repair span nesting per track.
    let mut stacks: BTreeMap<(u32, u32), Vec<Cow<'static, str>>> = BTreeMap::new();
    let mut repaired: Vec<TraceEvent> = Vec::with_capacity(events.len());
    for ev in events {
        let track = (ev.pid, ev.tid);
        match ev.ph {
            'B' => {
                stacks.entry(track).or_default().push(ev.name.clone());
                repaired.push(ev);
            }
            'E' => {
                let stack = stacks.entry(track).or_default();
                // When the matching B fell off the ring, drop the orphan E.
                if let Some(open_name) = stack.pop() {
                    let mut ev = ev;
                    if ev.name.is_empty() {
                        ev.name = open_name;
                    }
                    repaired.push(ev);
                }
            }
            _ => repaired.push(ev),
        }
    }
    // Close spans whose E was never recorded (truncated run).
    let mut seq = repaired.last().map_or(0, |e| e.seq) + 1;
    for ((pid, tid), stack) in &mut stacks {
        while let Some(name) = stack.pop() {
            repaired.push(TraceEvent {
                seq,
                ts_us: max_ts,
                ph: 'E',
                name,
                pid: *pid,
                tid: *tid,
                args: Vec::new(),
            });
            seq += 1;
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut meta = |out: &mut String, pid: u32, tid: Option<u32>, key: &str, name: &str| {
        let sep = if std::mem::take(&mut first) { "" } else { ",\n" };
        let tid = tid.unwrap_or(0);
        let _ = write!(
            out,
            "{sep}{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{key}\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    };
    meta(&mut out, PID_HOST, None, "process_name", "taskgrind host");
    meta(&mut out, PID_GUEST, None, "process_name", "guest");
    for ((pid, tid), name) in &thread_names {
        meta(&mut out, *pid, Some(*tid), "thread_name", name);
    }
    for ev in &repaired {
        let sep = if std::mem::take(&mut first) { "" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}{{\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{},\"name\":\"{}\"",
            ev.ph,
            ev.ts_us,
            ev.pid,
            ev.tid,
            escape(&ev.name)
        );
        if ev.ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                let _ = write!(out, "{comma}\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push('}');
    }
    let _ = write!(out, "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":{dropped}}}\n");
    out
}

/// Aggregate facts about a validated Chrome trace (see
/// [`validate_chrome_trace`]).
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total non-metadata events.
    pub events: usize,
    /// Number of `B` span-begin events.
    pub begins: usize,
    /// Number of `E` span-end events.
    pub ends: usize,
    /// Number of `i` instant events.
    pub instants: usize,
    /// Number of `C` counter samples.
    pub counters: usize,
    /// Distinct event names seen (excluding metadata).
    pub names: BTreeSet<String>,
    /// Distinct process ids seen.
    pub pids: BTreeSet<u64>,
}

/// Parse and structurally validate a Chrome-trace JSON document:
/// `traceEvents` must be an array of objects carrying `ph`/`pid`/`tid`,
/// timestamps must be monotone non-decreasing per `(pid, tid)` track, and
/// `B`/`E` events must pair up (depth never negative, zero at the end of
/// every track). Returns aggregate counts for further assertions.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = crate::json::parse(text)?;
    let events =
        doc.get("traceEvents").and_then(JsonValue::as_array).ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary::default();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid =
            ev.get("pid").and_then(JsonValue::as_u64).ok_or_else(|| format!("event {i}: pid"))?;
        let tid =
            ev.get("tid").and_then(JsonValue::as_u64).ok_or_else(|| format!("event {i}: tid"))?;
        if ph == "M" {
            continue;
        }
        let ts =
            ev.get("ts").and_then(JsonValue::as_f64).ok_or_else(|| format!("event {i}: ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!("event {i}: ts regressed on track {track:?}"));
            }
        }
        last_ts.insert(track, ts);
        summary.events += 1;
        summary.pids.insert(pid);
        if let Some(name) = ev.get("name").and_then(JsonValue::as_str) {
            summary.names.insert(name.to_string());
        }
        let d = depth.entry(track).or_insert(0);
        match ph {
            "B" => {
                summary.begins += 1;
                *d += 1;
            }
            "E" => {
                summary.ends += 1;
                *d -= 1;
                if *d < 0 {
                    return Err(format!("event {i}: E without open B on track {track:?}"));
                }
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    for (track, d) in depth {
        if d != 0 {
            return Err(format!("track {track:?}: {d} unclosed span(s)"));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; serialize tests that toggle it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = locked();
        shutdown();
        assert!(!enabled());
        {
            let _s = host_span("lift");
        }
        instant("x", PID_HOST, 0, vec![]);
        counter("c", PID_HOST, 0, 1);
        init(1024);
        assert_eq!(buffered(), 0);
        shutdown();
    }

    #[test]
    fn spans_pair_and_validate() {
        let _g = locked();
        init(1024);
        name_track(PID_HOST, host_tid(), "host-main");
        {
            let _outer = host_span("translate");
            let _inner = host_span("lift");
            instant("imark", PID_HOST, host_tid(), vec![("addr", 0x40)]);
        }
        begin("task 3", PID_GUEST, 1);
        counter("live_segments", PID_GUEST, 0, 5);
        end(PID_GUEST, 1);
        let json = export_chrome_json();
        shutdown();
        let s = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(s.begins, 3);
        assert_eq!(s.ends, 3);
        assert_eq!(s.instants, 1);
        assert_eq!(s.counters, 1);
        assert!(s.names.contains("translate"));
        assert!(s.names.contains("task 3"));
        assert!(s.pids.contains(&(PID_HOST as u64)) && s.pids.contains(&(PID_GUEST as u64)));
    }

    #[test]
    fn overflow_repair_keeps_trace_well_formed() {
        let _g = locked();
        init(16);
        // 40 nested-free span pairs on one track: the ring keeps only the
        // last 16 events, so some E's lose their B — export must drop
        // those orphans.
        for i in 0..40u64 {
            begin(format!("span {i}"), PID_HOST, 7);
            end(PID_HOST, 7);
        }
        // And one never-closed span: export must synthesize its E.
        begin("unclosed", PID_HOST, 8);
        assert!(dropped() > 0);
        let json = export_chrome_json();
        shutdown();
        let s = validate_chrome_trace(&json).expect("repaired trace validates");
        assert_eq!(s.begins, s.ends);
        assert!(s.names.contains("unclosed"));
    }

    #[test]
    fn end_inherits_open_span_name() {
        let _g = locked();
        init(64);
        begin("guest task", PID_GUEST, 2);
        end(PID_GUEST, 2);
        let json = export_chrome_json();
        shutdown();
        // Both the B and the repaired E carry the span name.
        assert_eq!(json.matches("guest task").count(), 2);
    }
}
