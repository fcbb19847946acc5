//! tg-baselines — the state-of-the-art tools Table I compares against,
//! rebuilt on the grindcore substrate.
//!
//! | tool | model | runs as | characteristic weaknesses reproduced |
//! |---|---|---|---|
//! | [`archer`] | vector-clock happens-before over compile-time (`__tsan_*`) instrumentation | Fast mode, TSan build | thread-centric: tasks serialized onto one thread are implicitly ordered (false negatives; 0 reports single-threaded); blind to non-instrumented (runtime) code |
//! | [`tasksan`] | segment-graph detector (TaskSanitizer) | Fast mode, TSan build | Clang-8-era feature gaps ("ncs"), no taskgroup edges, no detach, ignores undeferred/included flags, no stack/TLS suppression, no allocator replacement |
//! | [`romp`] | per-address access history over binary instrumentation | DBI mode | OpenMP-only, global (non-sibling-scoped) dependence matching, no mutexinoutset exclusion, no detach, ignores `tg_set_deferrable`, address-only reports, crashes on threadprivate writes from explicit tasks |
//!
//! Each runner returns a [`BaselineRun`] with the same shape as
//! Taskgrind's result so the Table I/II harnesses treat all tools
//! uniformly.

pub mod archer;
pub mod romp;
pub mod tasksan;

use grindcore::RunResult;

/// Outcome of running one tool over one program.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    pub run: RunResult,
    /// Distinct race reports.
    pub n_reports: usize,
    /// Rendered report lines (tool-specific verbosity).
    pub reports: Vec<String>,
    /// The instrumented run crashed tool-side (ROMP's `segv`).
    pub segv: bool,
    pub time_secs: f64,
    /// Host bytes of tool structures.
    pub tool_bytes: u64,
}

impl BaselineRun {
    pub fn found_race(&self) -> bool {
        self.n_reports > 0
    }
}

/// Tool verdict vs ground truth — the cells of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    TruePositive,
    TrueNegative,
    FalsePositive,
    FalseNegative,
    /// No compiler support (TaskSanitizer's Clang 8 limitations).
    Ncs,
    /// The instrumented execution crashed (ROMP).
    Segv,
    /// The instrumented execution deadlocked.
    Deadlock,
}

impl Verdict {
    /// Classify a tool outcome against the ground truth.
    pub fn classify(has_race: bool, reported: bool) -> Verdict {
        match (has_race, reported) {
            (true, true) => Verdict::TruePositive,
            (true, false) => Verdict::FalseNegative,
            (false, true) => Verdict::FalsePositive,
            (false, false) => Verdict::TrueNegative,
        }
    }

    /// Table I cell text.
    pub fn cell(&self) -> &'static str {
        match self {
            Verdict::TruePositive => "TP",
            Verdict::TrueNegative => "TN",
            Verdict::FalsePositive => "FP",
            Verdict::FalseNegative => "FN",
            Verdict::Ncs => "ncs",
            Verdict::Segv => "segv",
            Verdict::Deadlock => "deadlock",
        }
    }

    /// Is this a false negative (the paper's headline metric)?
    pub fn is_fn(&self) -> bool {
        matches!(self, Verdict::FalseNegative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_classification() {
        assert_eq!(Verdict::classify(true, true), Verdict::TruePositive);
        assert_eq!(Verdict::classify(true, false), Verdict::FalseNegative);
        assert_eq!(Verdict::classify(false, true), Verdict::FalsePositive);
        assert_eq!(Verdict::classify(false, false), Verdict::TrueNegative);
        assert!(Verdict::FalseNegative.is_fn());
        assert!(!Verdict::TruePositive.is_fn());
        assert_eq!(Verdict::Ncs.cell(), "ncs");
        assert_eq!(Verdict::Segv.cell(), "segv");
    }
}
