//! tgbench — the repository's benchmark: Taskgrind's overhead over a
//! no-tool run measured end to end, and the same jobs split layer by
//! layer from outside the program.
//!
//! This library holds the parts that are pure functions of their inputs
//! (seeded job streams, the pinned verdict table, summary statistics) so
//! unit tests cover them; `main.rs` drives the timed runs.

pub mod jobs;
pub mod stats;
