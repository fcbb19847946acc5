//! Library half of the `tgrind` CLI: argument parsing only.
//!
//! Everything else — guest load, the run lifecycle, warm, lint and the
//! serve daemon — lives in the embeddable [`tg_engine`] crate;
//! [`engine`] re-exports the configuration surface (`EngineConfig`,
//! `FLAGS`, `render_flag_table`) so tests and the README flag-table
//! check keep one import path.

pub mod engine;
