//! tg-engine — the Taskgrind engine as an embeddable library.
//!
//! Everything the `tgrind` CLI does between parsing flags and writing
//! bytes to the terminal lives here: the plain-data run configuration
//! ([`EngineConfig`]), guest load and memoized compilation, VM
//! construction, tool attach, the run itself, and result/registry
//! extraction — all callable in-process through a [`Session`]. No
//! function in this crate writes to stdout/stderr, exits the process or
//! touches the process environment (CI grep gates enforce this);
//! outcomes carry the exact strings and exit codes the CLI renders, so
//! the one-shot `tgrind` output is byte-identical to what it was when
//! this logic lived in `main.rs`.
//!
//! On top of the session API sits [`serve`]: a persistent analysis
//! daemon multiplexing concurrent jobs over a bounded queue
//! ([`grindcore::CompilePool`] backpressure), streaming per-job status
//! and `--metrics-json`-format results over line-delimited JSON on a
//! Unix socket. Jobs share the session's memoized modules, static
//! facts and disk code caches, so the second job on a warmed module
//! compiles ~0 blocks.

#![warn(missing_docs)]

pub mod config;
pub mod lint;
pub mod serve;
pub mod session;
pub mod warm;

pub use config::{render_flag_table, EngineConfig, FlagSpec, FLAGS};
pub use session::{
    render_profile, EngineError, LintOutcome, LoadedModule, Program, RunOutcome, RunRequest,
    Session, WarmOutcome,
};
pub use warm::WarmStats;
