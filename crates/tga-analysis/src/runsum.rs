//! The guest runtime's summary, and the analysis a Taskgrind run does
//! with it.
//!
//! A run reads one fact, `safe_pcs`, and only for the functions it
//! instruments. The default ignore-list leaves the guest runtime
//! uninstrumented, yet the runtime is most of every module. The run
//! needs the runtime only through the effects its callers see: each
//! function's [`FnSummary`] and whether it may spawn a thread. Those
//! depend only on the runtime's own code, so they are computed once and
//! shipped as a table, much as GTIRB keeps analysis results with a
//! module as AuxData.
//!
//! [`render`] writes the table from a build of the runtime alone, with
//! every function treated as live: one line per function, keyed by
//! name, with its entry, size, instruction [`fingerprint`], summary bits
//! and [`SpawnFact`]. [`analyze_run`] matches every line against the
//! module. When all match and the run instruments none of them, it
//! recovers the CFG and runs the dataflow only for the other functions
//! (the user's, `_start`, and any runtime function absent from the
//! table), reading the summarized ones' effects from the table through
//! the same [`cfg::recover_scoped`] and [`dataflow::run_scoped`].
//! Otherwise it analyzes the whole module.
//!
//! The composition answers like [`crate::analyze_with`] on every pc of
//! an interpreted function:
//!
//! * A summarized function's summary and spawn fact are functions of
//!   its code and its callees' (the table holds only functions whose
//!   direct calls stay in the table), and the fingerprint pins that
//!   code. A data address is the one thing that moves between builds,
//!   and no summary depends on it.
//! * The one program-dependent input is whether some address-taken
//!   function may spawn: a function with an indirect call may spawn iff
//!   one does. The table keeps that case as
//!   [`SpawnFact::IfTakenSpawns`], and [`crate::summaries::may_spawn`]
//!   re-solves it for the program.
//! * Summarized code calls no interpreted function directly, so the
//!   interpreted functions' liveness, call graph and post-spawn blocks
//!   are the whole module's.
//! * The analysis does not see summarized code's writes. Every data
//!   symbol that code names by an immediate therefore counts as
//!   escaped; the user's globals are never among them.
//! * A superblock can run past its function's end. When it could enter
//!   a summarized function, the run falls back to the whole module.

use crate::cfg;
use crate::dataflow::{self, Summarized};
use crate::summaries::{self, FnSummary, SpawnFact};
use crate::{analyze_with, facts_of, AnalyzeOpts, FactsScope, StaticFacts};
use grindcore::lift::MAX_BLOCK_INSTS;
use std::fmt::Write as _;
use tga::module::{Module, SymKind};
use tga::{Op, INST_SIZE};

/// The options a run analyzes with: no concurrency pass.
const RUN_OPTS: AnalyzeOpts = AnalyzeOpts { concurrency: false };

/// Fingerprint of the instructions in `[lo, hi)`: every field of every
/// instruction, except that a `li` immediate at or above the module's
/// data base counts only as "a data address or a large constant". Data
/// addresses move with the user's code and globals; no summary depends
/// on them.
pub fn fingerprint(module: &Module, lo: u64, hi: u64) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for inst in module.code_slice(lo, hi) {
        let w = inst.op as u64
            | (inst.rd as u64) << 8
            | (inst.rs1 as u64) << 16
            | (inst.rs2 as u64) << 24;
        let imm = inst.imm as u64;
        h = if inst.op == Op::Li && imm >= module.data_base {
            mix(h, w | 1 << 32)
        } else {
            mix(mix(h, w), imm)
        };
    }
    h
}

fn spawn_name(s: SpawnFact) -> &'static str {
    match s {
        SpawnFact::Never => "never",
        SpawnFact::Always => "always",
        SpawnFact::IfTakenSpawns => "if-taken",
    }
}

/// The summary table of `module`, a build of the runtime alone: one
/// line per function that `summarize` accepts and whose direct calls all
/// reach accepted functions (so the entry point, which calls `main`,
/// never has one). Every function counts as live.
pub fn render(module: &Module, summarize: impl Fn(&str) -> bool) -> String {
    let mut cfg = cfg::recover(module);
    cfg.unreachable.clear();
    let cg = summaries::call_graph(&cfg);
    let mut keep: Vec<bool> = cfg.funcs.iter().map(|f| summarize(&f.name)).collect();
    loop {
        let mut changed = false;
        for (fi, f) in cfg.funcs.iter().enumerate() {
            let calls_out = f
                .blocks
                .values()
                .flat_map(|b| &b.calls)
                .any(|&t| !cfg.func_at(t).is_some_and(|c| keep[c] && cfg.funcs[c].lo == t));
            if keep[fi] && calls_out {
                keep[fi] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let df = dataflow::run(module, &cfg);
    let (alone, _) = summaries::may_spawn(module, &cfg, &cg, &[], false);
    let (with_taken, _) = summaries::may_spawn(module, &cfg, &cg, &[], true);

    let mut out = String::from(
        "# Guest runtime summary, generated from a build of crates/guest-rt/sources\n\
         # alone; regenerate with UPDATE_GOLDEN=1 cargo test --test runtime_summary.\n\
         # name entry size fingerprint escapes writes reads widened spawn\n",
    );
    for (fi, f) in cfg.funcs.iter().enumerate().filter(|&(fi, _)| keep[fi]) {
        let s = df.summaries.get(fi);
        let spawn = match (alone[fi], with_taken[fi]) {
            (true, _) => SpawnFact::Always,
            (false, true) => SpawnFact::IfTakenSpawns,
            (false, false) => SpawnFact::Never,
        };
        let _ = writeln!(
            out,
            "{} {:#x} {:#x} {:016x} {:02x} {:02x} {:02x} {} {}",
            f.name,
            f.lo,
            f.hi - f.lo,
            fingerprint(module, f.lo, f.hi),
            s.escapes,
            s.writes,
            s.reads,
            if s.widened { "w" } else { "-" },
            spawn_name(spawn),
        );
    }
    out
}

/// One line of the table.
struct Line<'a> {
    name: &'a str,
    entry: u64,
    size: u64,
    fingerprint: u64,
    fixed: Summarized,
}

fn parse_line(line: &str) -> Option<Line<'_>> {
    let hex = |s: &str| u64::from_str_radix(s.strip_prefix("0x").unwrap_or(s), 16).ok();
    let bits = |s: &str| u8::from_str_radix(s, 16).ok();
    let mut f = line.split_ascii_whitespace();
    let name = f.next()?;
    let entry = hex(f.next()?)?;
    let size = hex(f.next()?)?;
    let fingerprint = hex(f.next()?)?;
    let summary = FnSummary {
        escapes: bits(f.next()?)?,
        writes: bits(f.next()?)?,
        reads: bits(f.next()?)?,
        widened: match f.next()? {
            "w" => true,
            "-" => false,
            _ => return None,
        },
    };
    let spawn = match f.next()? {
        "never" => SpawnFact::Never,
        "always" => SpawnFact::Always,
        "if-taken" => SpawnFact::IfTakenSpawns,
        _ => return None,
    };
    if f.next().is_some() {
        return None;
    }
    Some(Line { name, entry, size, fingerprint, fixed: Summarized { summary, spawn } })
}

/// The table's lines, sorted by entry, if every one names a function
/// of `module` at its entry with its size and fingerprint that the run
/// does not instrument.
fn resolve<'a>(
    module: &Module,
    summary: &'a str,
    instruments: &dyn Fn(&str) -> bool,
) -> Option<Vec<Line<'a>>> {
    let mut lines = Vec::new();
    for text in summary.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let line = parse_line(text)?;
        let at = module.symbols.partition_point(|s| s.addr < line.entry);
        let sym = module.symbols[at..]
            .iter()
            .take_while(|s| s.addr == line.entry)
            .find(|s| s.kind == SymKind::Func && s.name == line.name)?;
        let hi = line.entry.checked_add(line.size)?;
        if sym.size != line.size
            || instruments(line.name)
            || fingerprint(module, line.entry, hi) != line.fingerprint
        {
            return None;
        }
        lines.push(line);
    }
    lines.sort_unstable_by_key(|l| l.entry);
    Some(lines)
}

/// The static facts a run reads, for a module linked with the runtime
/// that `summary` (the text [`render`] writes) describes. `instruments`
/// names the functions the run records. Falls back to
/// `analyze_with(module, concurrency: false)` unless every line of the
/// table matches the module and the run instruments none of them; the
/// result's [`StaticFacts::scope`] says which happened.
pub fn analyze_run(
    module: &Module,
    summary: &str,
    instruments: &dyn Fn(&str) -> bool,
) -> StaticFacts {
    let whole = || analyze_with(module, &RUN_OPTS);
    let Some(lines) = resolve(module, summary, instruments) else { return whole() };
    let entries: Vec<u64> = lines.iter().map(|l| l.entry).collect();
    let cfg = cfg::recover_scoped(module, &entries);
    let mut summarized = vec![None; cfg.funcs.len()];
    let mut found = 0;
    for (fi, f) in cfg.funcs.iter().enumerate() {
        if let Ok(k) = entries.binary_search(&f.lo) {
            if f.hi - f.lo != lines[k].size {
                return whole(); // another symbol cuts the function short
            }
            summarized[fi] = Some(lines[k].fixed);
            found += 1;
        } else if runs_into(module, &cfg, &entries, f.hi) {
            return whole();
        }
    }
    if found != lines.len() {
        return whole();
    }
    let df = dataflow::run_scoped(module, &cfg, &summarized);
    facts_of(module, &cfg, df, &RUN_OPTS, FactsScope::Run)
}

/// Can a superblock of the function ending at `end` run on into a
/// summarized function? Only if its last instruction falls through,
/// and then as far as the lifter's cap or the next block end.
fn runs_into(module: &Module, cfg: &cfg::Cfg, entries: &[u64], end: u64) -> bool {
    if module.fetch(end - INST_SIZE).is_none_or(|i| i.op.ends_block()) {
        return false;
    }
    let mut pc = end;
    for _ in 1..MAX_BLOCK_INSTS {
        let Some(inst) = module.fetch(pc) else { return false };
        if cfg.func_at(pc).is_some_and(|fi| entries.binary_search(&cfg.funcs[fi].lo).is_ok()) {
            return true;
        }
        if inst.op.ends_block() {
            return false;
        }
        pc += INST_SIZE;
    }
    false
}
