//! Error reporting (paper §III-C, §V-C, Listings 5–6).
//!
//! Taskgrind overloads the memory allocator to save each block's
//! allocation site, so conflicting accesses can be matched with source
//! locations from the binary's debug information. A report reads:
//!
//! ```text
//! Segments task.1.c:8 and task.1.c:11 were declared independent while
//!     accessing the same memory address
//! 8 bytes from 0xc3ea040 allocated in block 0xc3ea040 of size 8
//! from task.1.c:3
//! ```
//!
//! [`render_minimal`] reproduces the ROMP-style report (Listing 5) —
//! raw shadow addresses, no source information — used by the error-
//! reporting comparison (E4).

use crate::analysis::Candidate;
use crate::graph::{SegId, SegmentGraph};
use grindcore::tool::pattern_matches;
use std::collections::BTreeMap;
use std::sync::Arc;
use tga::module::{FuncTable, Module};

/// A heap block recorded by the allocator replacement.
#[derive(Clone, Debug)]
pub struct AllocBlock {
    pub base: u64,
    pub size: u64,
    /// The allocation site ([`alloc_site`]); `None` when no frame of
    /// the allocating call stack qualified.
    pub alloc_pc: Option<u64>,
}

/// `module`'s function table `funcs` with each function matched against
/// `ignore` once. For a pc it answers `None` when no function covers it,
/// else whether the covering function is outside the ignore list: what
/// [`Module::find_func`] plus an ignore-pattern match would give.
pub fn user_funcs(funcs: &FuncTable, module: &Module, ignore: &[String]) -> FuncTable<bool> {
    funcs.classify(module, |f| !ignore.iter().any(|p| pattern_matches(p, &f.name)))
}

/// The allocation site among the allocator's callers' `frames`
/// (innermost first, the allocator's own entry already dropped): the
/// first frame in a function outside the ignore list (`user`, from
/// [`user_funcs`]) that has line info, which skips the runtime frames.
pub fn alloc_site(
    module: &Module,
    user: &FuncTable<bool>,
    mut frames: impl Iterator<Item = u64>,
) -> Option<u64> {
    frames.find(|&pc| user.get(pc) == Some(true) && module.line_at(pc).is_some())
}

/// Locate the block containing `addr` among blocks sorted by base.
pub fn find_block(blocks: &[AllocBlock], addr: u64) -> Option<&AllocBlock> {
    let idx = blocks.partition_point(|b| b.base <= addr);
    if idx == 0 {
        return None;
    }
    let b = &blocks[idx - 1];
    (addr < b.base + b.size).then_some(b)
}

/// A deduplicated determinacy-race report.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Source sites of the two conflicting segments (`file:line`).
    pub site1: String,
    pub site2: String,
    /// An example conflicting address and the bytes overlapping there.
    pub example_addr: u64,
    pub example_bytes: u64,
    /// Total distinct candidate ranges merged into this report.
    pub occurrences: usize,
    /// Heap block info when the address belongs to a recorded block.
    pub block: Option<(u64, u64, String)>,
    /// Memory-region classification for the report text.
    pub region: &'static str,
    /// Replay verdict from the confirmation pass ([`attach_verdicts`]);
    /// `None` unless `--confirm-races` ran, and rendering is byte-for-
    /// byte unchanged in that case.
    pub verdict: Option<crate::confirm::Verdict>,
}

fn seg_site(g: &SegmentGraph, module: &Module, seg: SegId) -> String {
    let s = &g.segments[seg as usize];
    let Some(tid) = s.task else {
        return format!("sync#{seg}");
    };
    let t = &g.tasks[tid as usize];
    if t.fn_addr != 0 {
        if let Some(loc) = module.line_for(t.fn_addr) {
            return loc.to_string();
        }
        if let Some(f) = module.find_func(t.fn_addr) {
            return f.name.clone();
        }
    }
    if t.implicit {
        format!("implicit-task#{tid}")
    } else {
        format!("task#{tid}")
    }
}

/// The `file:line` of a block's allocation site.
fn site_name(module: &Module, b: &AllocBlock) -> String {
    match b.alloc_pc.and_then(|pc| module.line_for(pc)) {
        Some(loc) => loc.to_string(),
        None => "<unknown>".to_string(),
    }
}

/// Group candidates into per-(site-pair, block) reports. Allocation
/// sites were resolved against the ignore list when each block was
/// allocated, so `_ignore` is no longer read.
pub fn summarize(
    g: &SegmentGraph,
    module: &Arc<Module>,
    blocks: &[AllocBlock],
    candidates: &[Candidate],
    _ignore: &[String],
) -> Vec<RaceReport> {
    let mut grouped: BTreeMap<(String, String, u64), RaceReport> = BTreeMap::new();
    for c in candidates {
        let mut s1 = seg_site(g, module, c.seg1);
        let mut s2 = seg_site(g, module, c.seg2);
        if s1 > s2 {
            std::mem::swap(&mut s1, &mut s2);
        }
        let block = find_block(blocks, c.lo);
        let block_key = block.map(|b| b.base).unwrap_or(0);
        let region = match block {
            Some(_) => "heap",
            None => {
                if c.lo >= module.data_base && c.lo < module.data_end() {
                    "global"
                } else if c.lo >= 0x7000_0000_0000 {
                    "stack"
                } else {
                    "memory"
                }
            }
        };
        let entry =
            grouped.entry((s1.clone(), s2.clone(), block_key)).or_insert_with(|| RaceReport {
                site1: s1,
                site2: s2,
                example_addr: c.lo,
                example_bytes: c.hi - c.lo,
                occurrences: 0,
                block: block.map(|b| (b.base, b.size, site_name(module, b))),
                region,
                verdict: None,
            });
        entry.occurrences += 1;
    }
    grouped.into_values().collect()
}

/// Render in Taskgrind's style (Listing 6).
pub fn render_taskgrind(r: &RaceReport) -> String {
    let mut out = format!(
        "Segments {} and {} were declared independent while accessing the same memory address\n",
        r.site1, r.site2
    );
    match &r.block {
        Some((base, size, site)) => {
            out.push_str(&format!(
                "{} bytes from {:#x} allocated in block {:#x} of size {}\nfrom {}\n",
                r.example_bytes, r.example_addr, base, size, site
            ));
        }
        None => {
            out.push_str(&format!(
                "{} bytes from {:#x} in {} memory\n",
                r.example_bytes, r.example_addr, r.region
            ));
        }
    }
    if r.occurrences > 1 {
        out.push_str(&format!("({} conflicting ranges total)\n", r.occurrences));
    }
    match &r.verdict {
        Some(crate::confirm::Verdict::Confirmed { schedule }) => {
            out.push_str(&format!("confirmed under replay schedule: {schedule}\n"));
        }
        Some(crate::confirm::Verdict::Unconfirmed { tried }) => {
            out.push_str(&format!(
                "unconfirmed: {tried} adversarial replay(s) kept the recorded order\n"
            ));
        }
        None => {}
    }
    out
}

/// Fold per-candidate replay verdicts into the deduplicated reports.
///
/// Reports group candidates by `(site1, site2, block)` — this replays
/// [`summarize`]'s grouping key for each candidate and folds its
/// verdict into the matching report: any `Confirmed` wins (keeping the
/// first reproducing schedule), otherwise `Unconfirmed` attempts are
/// summed. Suppression-filtered reports simply never match and keep
/// `verdict: None`.
pub fn attach_verdicts(
    reports: &mut [RaceReport],
    g: &SegmentGraph,
    module: &Arc<Module>,
    blocks: &[AllocBlock],
    candidates: &[Candidate],
    verdicts: &[Option<crate::confirm::Verdict>],
) {
    let mut by_key: BTreeMap<(String, String, u64), usize> = BTreeMap::new();
    for (i, r) in reports.iter().enumerate() {
        let block_key = r.block.as_ref().map(|b| b.0).unwrap_or(0);
        by_key.insert((r.site1.clone(), r.site2.clone(), block_key), i);
    }
    for (c, v) in candidates.iter().zip(verdicts) {
        let Some(v) = v else { continue };
        let mut s1 = seg_site(g, module, c.seg1);
        let mut s2 = seg_site(g, module, c.seg2);
        if s1 > s2 {
            std::mem::swap(&mut s1, &mut s2);
        }
        let block_key = find_block(blocks, c.lo).map(|b| b.base).unwrap_or(0);
        let Some(&ri) = by_key.get(&(s1, s2, block_key)) else { continue };
        let slot = &mut reports[ri].verdict;
        match (&slot, v) {
            (Some(crate::confirm::Verdict::Confirmed { .. }), _) => {}
            (_, crate::confirm::Verdict::Confirmed { .. }) => *slot = Some(v.clone()),
            // Candidates of one pair share a verdict clone, so fold
            // attempt counts with max, not sum, to avoid double counting.
            (
                Some(crate::confirm::Verdict::Unconfirmed { tried: prev }),
                crate::confirm::Verdict::Unconfirmed { tried },
            ) => {
                let tried = (*prev).max(*tried);
                *slot = Some(crate::confirm::Verdict::Unconfirmed { tried });
            }
            (None, _) => *slot = Some(v.clone()),
        }
    }
}

/// Render in ROMP's style (Listing 5): no source information at all.
pub fn render_minimal(r: &RaceReport) -> String {
    format!("data race found:\n  addr = {:#x}\n", r.example_addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<AllocBlock> {
        vec![
            AllocBlock { base: 0x1000, size: 16, alloc_pc: None },
            AllocBlock { base: 0x2000, size: 8, alloc_pc: None },
        ]
    }

    #[test]
    fn block_lookup() {
        let b = blocks();
        assert_eq!(find_block(&b, 0x1000).unwrap().base, 0x1000);
        assert_eq!(find_block(&b, 0x100f).unwrap().base, 0x1000);
        assert!(find_block(&b, 0x1010).is_none());
        assert!(find_block(&b, 0xfff).is_none());
        assert_eq!(find_block(&b, 0x2007).unwrap().base, 0x2000);
        assert!(find_block(&b, 0x2008).is_none());
    }

    #[test]
    fn render_formats() {
        let r = RaceReport {
            site1: "task.c:8".into(),
            site2: "task.c:11".into(),
            example_addr: 0xc3ea040,
            example_bytes: 4,
            occurrences: 1,
            block: Some((0xc3ea040, 8, "task.c:3".into())),
            region: "heap",
            verdict: None,
        };
        let text = render_taskgrind(&r);
        assert!(text.contains("task.c:8 and task.c:11"));
        assert!(text.contains("declared independent"));
        assert!(text.contains("4 bytes from 0xc3ea040"));
        assert!(text.contains("block 0xc3ea040 of size 8"));
        assert!(text.contains("from task.c:3"));

        let minimal = render_minimal(&r);
        assert!(minimal.contains("data race found"));
        assert!(!minimal.contains("task.c"), "ROMP style has no source info");
    }

    #[test]
    fn non_heap_report_names_region() {
        let r = RaceReport {
            site1: "a.c:1".into(),
            site2: "a.c:2".into(),
            example_addr: 0x7000_0000_1000,
            example_bytes: 8,
            occurrences: 3,
            block: None,
            region: "stack",
            verdict: None,
        };
        let text = render_taskgrind(&r);
        assert!(text.contains("in stack memory"));
        assert!(text.contains("3 conflicting ranges"));
    }

    #[test]
    fn func_table_answers_like_find_func_on_overlapping_symbols() {
        use tga::module::SymKind;
        let func = |name: &str, addr, size| tga::module::Symbol {
            name: name.into(),
            addr,
            size,
            kind: SymKind::Func,
        };
        // `inner` nests in `outer` and `tail` overlaps its end: the
        // first covering symbol in table order wins, as in find_func.
        let m = Module {
            symbols: vec![
                func("outer", 0x100, 0x100),
                func("inner", 0x140, 0x40),
                func("tail", 0x1c0, 0x80),
                func("__kmp_x", 0x300, 0x10),
                func("empty", 0x400, 0),
            ],
            ..Module::new()
        };
        let ignore = vec!["__kmp*".to_string()];
        let table = user_funcs(&FuncTable::new(&m), &m, &ignore);
        for pc in 0xf0..0x420 {
            let want = m.find_func(pc).map(|f| !ignore.iter().any(|p| pattern_matches(p, &f.name)));
            assert_eq!(table.get(pc), want, "at {pc:#x}");
        }
        assert_eq!(table.get(0x150), Some(true));
        assert_eq!(table.get(0x305), Some(false));
        assert_eq!(table.get(0x260), None);
    }
}
