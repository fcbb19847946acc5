//! grindcore — a heavyweight dynamic binary instrumentation framework.
//!
//! This crate is the Rust analog of the Valgrind *core* that the paper's
//! Taskgrind tool plugs into: it loads TGA binaries, just-in-time lifts
//! superblocks to the `vex-ir` intermediate representation, lets the
//! active [`tool::Tool`] inject instrumentation, and emulates the result
//! while serializing guest threads under a big lock (one guest thread at
//! a time, switched at superblock boundaries).
//!
//! Services mirrored from Valgrind:
//! * **memory-access instrumentation** — [`tool::instrument_mem_accesses`]
//!   makes the address/size of every load, store and atomic available to
//!   tool callbacks;
//! * **client requests** — the guest `clreq` instruction forwards
//!   parallel-runtime events to the tool ([`creq`] defines the ABI);
//! * **function replacement** — tools hijack guest symbols such as
//!   `malloc`/`free` ([`tool::Tool::replacements`]);
//! * **debug information** — symbol and line lookup through the loaded
//!   [`tga::module::Module`], used for meaningful error reports;
//! * **a "no tools" fast path** — [`vm::ExecMode::Fast`] interprets
//!   instructions directly, giving the uninstrumented baseline that the
//!   overhead experiments (Table II, Fig. 4) compare against. Client
//!   requests and replacements still fire there, which is how the
//!   compile-time-instrumented Archer baseline runs "natively".
//!
//! One departure: Valgrind translates every superblock before it runs
//! it. Under DBI, grindcore runs a block the tool leaves uninstrumented
//! ([`tool::Tool::instruments`]) in the same instruction interpreter for
//! its first [`tcache::COLD_RUNS`] executions, and translates it only
//! if it runs again.

pub mod codecache;
pub mod compilepool;
pub mod creq;
pub mod flat;
pub mod flatio;
pub mod lift;
pub mod mem;
pub mod profile;
pub mod snapshot;
pub mod syscalls;
pub mod tcache;
pub mod tool;
pub mod vm;
pub mod wire;

pub use codecache::{CachedTranslation, CodeCache, CodeCacheHandle, CodeCacheStats};
pub use compilepool::CompilePool;
pub use snapshot::{round_robin_next, ScheduleDirector, Snapshot};
pub use tcache::BlockCode;
pub use tool::{BlockMeta, FnReplacement, SyncKind, Tool};
pub use vm::{
    translate, AddrClass, ExecMode, Metrics, RunResult, SchedPolicy, ThreadStatus, Tid,
    Translation, Vm, VmConfig, VmCore, VmError, VmStats,
};
