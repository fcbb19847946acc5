//! tg-obs — the observability layer shared by grindcore, taskgrind, and the
//! CLI.
//!
//! Three facilities, all zero-cost when disabled:
//!
//! 1. **Metrics registry** ([`metrics::Registry`]): a flat, ordered map of
//!    named, typed metrics (`vm.instrs`, `dispatch.chain_hits`,
//!    `analysis.pairs_checked`, ...). Subsystems *publish* their final
//!    counters into a registry at report time — the hot paths keep their
//!    existing plain-integer fields and are never slowed down — and the CLI
//!    renders its `==` summary lines and the `--metrics-json` dump from the
//!    registry, so the human-readable and machine-readable views can never
//!    disagree.
//!
//! 2. **Span tracer** ([`trace`]): a global ring-buffer event sink recording
//!    begin/end spans, instants, and counter samples over the pipeline
//!    phases (lift, instrument, compile, dispatch slices, tool callbacks,
//!    graph finalize, analysis, report) plus a *guest* track
//!    mirroring the task-segment timeline. Exported as Chrome-trace JSON
//!    loadable in Perfetto (`--trace-out`). When tracing has not been
//!    enabled every hook is a single relaxed atomic load and a branch.
//!
//! 3. **JSON helpers** ([`json`]): string escaping for the hand-written
//!    emitters (the workspace's `serde` is an offline no-op shim) and a
//!    minimal recursive-descent parser used by tests to validate the
//!    emitted documents.
//!
//! The crate depends only on `std` so every layer of the stack can link it
//! without cycles.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{Registry, Value};
pub use trace::{SpanGuard, TraceEvent};
