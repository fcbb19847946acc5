//! Schedule-replay race confirmation (`--confirm-races`).
//!
//! The recording pass reports *candidate* races: segment pairs that are
//! unordered in the task graph and touch overlapping memory. A
//! candidate can still be a false alarm when an ordering the graph does
//! not model (an ad-hoc flag, a lock used for ordering rather than
//! mutual exclusion) forces the two accesses into one order on every
//! real schedule. This module upgrades candidates to verdicts by
//! *re-executing* the program deterministically and steering the
//! scheduler: because grindcore serializes guest threads and switches
//! only at superblock boundaries, an execution is fully determined by
//! the sequence of scheduling decisions, so a
//! [`grindcore::ScheduleDirector`] can both reproduce the recorded run
//! exactly and perturb it at will.
//!
//! The explorer runs one extra VM over the same module:
//!
//! 1. **Follow** the recorded schedule (the default policy with the
//!    same seed *is* the recorded schedule) and keep a rolling
//!    copy-on-write [`grindcore::Snapshot`] refreshed at slice
//!    boundaries after each segment-closing sync point.
//! 2. When the global client-request sequence number reaches a
//!    candidate's trigger (the `open_seq` of the earlier of its two
//!    segments — the snapshot necessarily predates it), **restore** and
//!    re-run the epoch under adversarial schedules: *prefer-second*
//!    forces the thread of the later segment whenever runnable;
//!    *starve-first* runs anyone but the thread of the earlier segment.
//!    Every 8th slice escapes to the next runnable thread in rotation,
//!    so whichever thread a forced one spin-waits on still progresses.
//! 3. If the later segment's thread touches the candidate's byte range
//!    before the earlier one does, the recorded order flipped: the pair
//!    is [`Verdict::Confirmed`] (the conflict itself was already
//!    established by the recording). If the earlier thread gets there
//!    first again, the attempt is abandoned early; when every strategy
//!    (bounded by `confirm_budget` replays in total, and by an
//!    instruction cap per attempt against starvation livelock) fails,
//!    the pair is [`Verdict::Unconfirmed`] — evidence of a real
//!    ordering, not proof.
//! 4. After the verdict, restore once more and resume following, so
//!    later candidates trigger in recorded order. After the last pair's
//!    verdict (replayed or out of budget) the replay ends there
//!    ([`grindcore::VmCore::stop_run`]): nothing reads the rest of the
//!    run.
//!
//! Candidates whose segments share a thread, or that involve synthetic
//! sync segments, are not replayed (thread-level steering cannot flip
//! them) and report `Unconfirmed { tried: 0 }`.
//!
//! The replay VM runs the lightweight `ReplayTool`, not the recording
//! tool: graph building cannot be rewound, but guest-visible behaviour
//! only depends on the tool's *replacements* and *client-request return
//! values*, which the replay tool reproduces exactly (fresh-address
//! allocation off the restored heap break; monotonic region/task-id
//! cookies that are snapshotted and restored alongside the VM).

use crate::analysis::Candidate;
use crate::graph::SegmentGraph;
use crate::TaskgrindConfig;
use grindcore::tool::instrument_mem_accesses;
use grindcore::{round_robin_next, BlockMeta, ExecMode, FnReplacement, SyncKind, Tool, Vm, VmCore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use tga::module::Module;
use vex_ir::IrBlock;

/// Replay outcome for one candidate (attached to its report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// An adversarial replay made the two conflicting accesses occur in
    /// the opposite order — the race is schedule-dependent and real.
    /// `schedule` names the reproducing schedule.
    Confirmed {
        /// Human-readable description of the reproducing schedule.
        schedule: String,
    },
    /// No tried schedule flipped the order. Evidence of an ordering the
    /// graph cannot see (or an exhausted budget) — not a proof.
    Unconfirmed {
        /// Adversarial replays attempted for this pair.
        tried: u32,
    },
}

/// Counters from one confirmation pass (surfaced as `confirm.*`).
#[derive(Clone, Debug, Default)]
pub struct ConfirmStats {
    /// Candidate ranges that received a verdict.
    pub candidates: u64,
    /// Distinct segment pairs examined.
    pub pairs: u64,
    /// Adversarial replay attempts actually run.
    pub replays: u64,
    /// Pairs confirmed.
    pub confirmed: u64,
    /// Pairs left unconfirmed (including unreplayable ones).
    pub unconfirmed: u64,
    /// Snapshots taken while following.
    pub snapshots: u64,
    /// Restores performed (attempt starts + resumes).
    pub restores: u64,
    /// Peak pages preserved by the copy-on-write journal.
    pub peak_pages: u64,
    /// Guest instructions the attempts ran past their snapshots, summed
    /// (restores rewind `vm.instrs`, so only this shows what they cost).
    pub attempt_instrs: u64,
    /// Wall-clock seconds of the whole confirmation pass.
    pub secs: f64,
}

/// Every `ESCAPE_PERIOD`-th slice of an attempt is an escape slice: it
/// goes to the next runnable thread after the previous escape pick
/// instead of the forced one. Rotating, rather than deferring to the
/// policy (which would pick the forced thread's successor every time),
/// reaches whichever thread a forced one spin-waits on.
const ESCAPE_PERIOD: u64 = 8;
/// Guest instructions one attempt may burn past the snapshot before it
/// is declared livelocked and abandoned.
pub const ATTEMPT_INSTR_CAP: u64 = 2_000_000;
const STRATEGIES: &[&str] = &["prefer-second", "starve-first"];

/// One replayable segment pair (its candidates grouped).
struct Pair {
    /// Thread of the segment that opened first in the recording.
    ta: grindcore::Tid,
    /// Thread of the segment that opened second.
    tb: grindcore::Tid,
    /// Client-request sequence number that arms the attempt.
    trigger: u64,
    /// Conflicting byte ranges `[lo, hi)` from the pair's candidates.
    ranges: Vec<(u64, u64)>,
    /// Indices into the candidate slice that fold into this pair.
    cands: Vec<usize>,
}

enum Mode {
    /// Reproducing the recorded schedule, snapshotting along the way.
    Follow,
    /// Driving an adversarial schedule for `cur_pair`.
    Attempt,
}

struct Saved {
    snap: grindcore::Snapshot,
    /// `current` at the snapshot boundary, for round-robin resume.
    current: grindcore::Tid,
    next_region: u64,
    next_task: u64,
}

struct Ctl {
    pairs: Vec<Pair>,
    /// Next pair waiting for its trigger.
    head: usize,
    trigger_fired: bool,
    refresh_due: bool,
    saved: Option<Saved>,
    mode: Mode,
    cur_pair: usize,
    strategy: usize,
    ta_seen: bool,
    flip: bool,
    start_instrs: u64,
    force_count: u64,
    /// The previous escape slice's thread; an attempt starts it at the
    /// snapshot's `current`.
    escape_cursor: grindcore::Tid,
    budget: u64,
    tried_for_pair: u32,
    verdicts: Vec<Option<Verdict>>,
    stats: ConfirmStats,
    // Guest-visible tool cookies, restored with the VM snapshot.
    next_region: u64,
    next_task: u64,
    replace_allocator: bool,
    replace_runtime_allocator: bool,
}

impl Ctl {
    fn save(&mut self, core: &mut VmCore, current: grindcore::Tid) {
        self.saved = Some(Saved {
            snap: core.snapshot(),
            current,
            next_region: self.next_region,
            next_task: self.next_task,
        });
        self.stats.snapshots += 1;
    }

    fn restore(&mut self, core: &mut VmCore) {
        let s = self.saved.as_ref().expect("restore without snapshot");
        core.restore(&s.snap);
        self.next_region = s.next_region;
        self.next_task = s.next_task;
        self.refresh_due = false;
        self.stats.restores += 1;
    }

    /// The deterministic continuation of the recorded schedule after a
    /// restore (see [`grindcore::round_robin_next`]).
    fn resume_pick(&self, core: &VmCore) -> Option<grindcore::Tid> {
        let s = self.saved.as_ref()?;
        if grindcore::snapshot::needs_rr_resume(core) {
            round_robin_next(core, s.current)
        } else {
            None
        }
    }

    fn begin_attempts(&mut self, core: &mut VmCore) -> Option<grindcore::Tid> {
        self.strategy = 0;
        self.tried_for_pair = 0;
        if self.budget == 0 {
            // Out of budget before the first attempt: verdict without
            // perturbing anything, keep following forward unless that
            // was the last pair.
            self.record_verdict(None);
            self.stop_after_last_verdict(core);
            return None;
        }
        self.start_strategy(core)
    }

    fn start_strategy(&mut self, core: &mut VmCore) -> Option<grindcore::Tid> {
        self.budget -= 1;
        self.tried_for_pair += 1;
        self.stats.replays += 1;
        self.restore(core);
        self.mode = Mode::Attempt;
        self.ta_seen = false;
        self.flip = false;
        self.start_instrs = core.metrics.instrs;
        self.force_count = 0;
        self.escape_cursor = self.saved.as_ref().expect("attempt after a snapshot").current;
        if tg_obs::trace::enabled() {
            tg_obs::trace::instant(
                "replay attempt",
                tg_obs::trace::PID_GUEST,
                tg_obs::trace::TID_CONFIRM,
                vec![
                    ("pair", self.cur_pair as u64),
                    ("strategy", self.strategy as u64),
                    ("trigger_seq", self.pairs[self.cur_pair].trigger),
                ],
            );
        }
        self.attempt_pick(core)
    }

    /// Charge the attempt that ends here before a restore rewinds it.
    fn end_attempt(&mut self, core: &VmCore) {
        self.stats.attempt_instrs += core.metrics.instrs.saturating_sub(self.start_instrs);
    }

    fn attempt_boundary(&mut self, core: &mut VmCore) -> Option<grindcore::Tid> {
        if self.flip {
            self.end_attempt(core);
            let p = &self.pairs[self.cur_pair];
            let schedule = format!(
                "epoch@seq{}: thread {} overtakes thread {} ({})",
                p.trigger, p.tb, p.ta, STRATEGIES[self.strategy]
            );
            return self.finish_pair(core, Some(schedule));
        }
        let livelocked = core.metrics.instrs.saturating_sub(self.start_instrs) > ATTEMPT_INSTR_CAP;
        let runnable = core.threads.iter().any(|t| t.status == grindcore::ThreadStatus::Runnable);
        if self.ta_seen || livelocked || !runnable || core.exited().is_some() {
            self.end_attempt(core);
            self.strategy += 1;
            if self.strategy < STRATEGIES.len() && self.budget > 0 {
                return self.start_strategy(core);
            }
            return self.finish_pair(core, None);
        }
        self.attempt_pick(core)
    }

    fn attempt_pick(&mut self, core: &VmCore) -> Option<grindcore::Tid> {
        self.force_count += 1;
        if self.force_count.is_multiple_of(ESCAPE_PERIOD) {
            let t = round_robin_next(core, self.escape_cursor)?;
            self.escape_cursor = t;
            return Some(t);
        }
        let p = &self.pairs[self.cur_pair];
        let runnable = |t: grindcore::Tid| {
            t < core.threads.len() && core.threads[t].status == grindcore::ThreadStatus::Runnable
        };
        match self.strategy {
            0 => runnable(p.tb).then_some(p.tb),
            _ => (0..core.threads.len()).find(|&t| t != p.ta && runnable(t)),
        }
    }

    fn record_verdict(&mut self, confirmed: Option<String>) {
        let verdict = match confirmed {
            Some(schedule) => {
                self.stats.confirmed += 1;
                Verdict::Confirmed { schedule }
            }
            None => {
                self.stats.unconfirmed += 1;
                Verdict::Unconfirmed { tried: self.tried_for_pair }
            }
        };
        if tg_obs::trace::enabled() {
            tg_obs::trace::instant(
                "verdict",
                tg_obs::trace::PID_GUEST,
                tg_obs::trace::TID_CONFIRM,
                vec![
                    ("pair", self.cur_pair as u64),
                    ("confirmed", matches!(verdict, Verdict::Confirmed { .. }) as u64),
                    ("tried", self.tried_for_pair as u64),
                ],
            );
        }
        for &ci in &self.pairs[self.cur_pair].cands {
            self.verdicts[ci] = Some(verdict.clone());
        }
    }

    fn finish_pair(
        &mut self,
        core: &mut VmCore,
        confirmed: Option<String>,
    ) -> Option<grindcore::Tid> {
        self.record_verdict(confirmed);
        self.restore(core);
        self.mode = Mode::Follow;
        if self.stop_after_last_verdict(core) {
            return None;
        }
        self.resume_pick(core)
    }

    /// After a verdict: if it was the last pair's, end the replay here,
    /// since nothing reads the rest of the run. Returns whether it did.
    fn stop_after_last_verdict(&self, core: &mut VmCore) -> bool {
        let last = self.head >= self.pairs.len();
        if last {
            core.stop_run();
        }
        last
    }
}

/// The minimal tool driven during confirmation replays. Reproduces the
/// recording tool's guest-visible behaviour (see module docs) and
/// watches the armed candidate's byte ranges.
struct ReplayTool {
    ctl: Rc<RefCell<Ctl>>,
}

impl Tool for ReplayTool {
    fn name(&self) -> &'static str {
        "taskgrind-confirm"
    }

    fn instrument(&mut self, block: IrBlock, _meta: &BlockMeta) -> IrBlock {
        // Unfiltered: the watch must see runtime-internal accesses too.
        // Instrumentation never changes guest-visible state or the
        // superblock structure, so the followed schedule is unaffected.
        instrument_mem_accesses(block)
    }

    fn mem_access(
        &mut self,
        _core: &mut VmCore,
        tid: grindcore::Tid,
        addr: u64,
        size: u64,
        _write: bool,
        _pc: u64,
    ) {
        let mut ctl = self.ctl.borrow_mut();
        let ctl = &mut *ctl;
        if !matches!(ctl.mode, Mode::Attempt) {
            return;
        }
        let p = &ctl.pairs[ctl.cur_pair];
        let hit = p.ranges.iter().any(|&(lo, hi)| addr < hi && addr + size > lo);
        if !hit {
            return;
        }
        if tid == p.ta {
            ctl.ta_seen = true;
        } else if tid == p.tb && !ctl.ta_seen {
            ctl.flip = true;
        }
    }

    fn client_request(
        &mut self,
        core: &mut VmCore,
        _tid: grindcore::Tid,
        code: u64,
        _args: [u64; 5],
    ) -> u64 {
        let mut ctl = self.ctl.borrow_mut();
        if matches!(ctl.mode, Mode::Follow) {
            let seq = core.metrics.client_requests;
            if ctl.head < ctl.pairs.len() && seq == ctl.pairs[ctl.head].trigger {
                ctl.cur_pair = ctl.head;
                ctl.head += 1;
                ctl.trigger_fired = true;
            }
        }
        // The recording tool's only nonzero returns are opaque id
        // cookies the guest runtime stores and passes back verbatim;
        // private monotonic counters replay them faithfully.
        match code {
            grindcore::creq::PARALLEL_BEGIN => {
                ctl.next_region += 1;
                ctl.next_region
            }
            grindcore::creq::TASK_CREATE => {
                ctl.next_task += 1;
                ctl.next_task
            }
            _ => 0,
        }
    }

    fn sync_point(&mut self, _core: &mut VmCore, _tid: grindcore::Tid, kind: SyncKind, _seq: u64) {
        if kind.closes_segments() {
            let mut ctl = self.ctl.borrow_mut();
            if matches!(ctl.mode, Mode::Follow) {
                ctl.refresh_due = true;
            }
        }
    }

    fn replacements(&self) -> Vec<FnReplacement> {
        // Must mirror the recording run exactly — a different
        // replacement set would diverge the followed execution.
        let ctl = self.ctl.borrow();
        let mut out = Vec::new();
        if ctl.replace_allocator {
            out.push(FnReplacement { pattern: "malloc".into(), id: 1 });
            out.push(FnReplacement { pattern: "calloc".into(), id: 2 });
            out.push(FnReplacement { pattern: "free".into(), id: 3 });
        }
        if ctl.replace_runtime_allocator {
            out.push(FnReplacement { pattern: "__kmp_fast_alloc".into(), id: 4 });
            out.push(FnReplacement { pattern: "__kmp_fast_free".into(), id: 5 });
        }
        out
    }

    fn replaced_call(
        &mut self,
        core: &mut VmCore,
        _tid: grindcore::Tid,
        id: u32,
        args: [u64; 8],
    ) -> u64 {
        match id {
            1 | 2 | 4 => {
                let size =
                    if id == 2 { args[0].wrapping_mul(args[1]).max(1) } else { args[0].max(1) };
                // Fresh-address bump allocation off `core.brk`, which is
                // part of the snapshot — so replayed allocations land at
                // the recorded addresses and the watch ranges stay valid.
                core.alloc_raw(size)
            }
            _ => 0,
        }
    }
}

struct ReplayDirector {
    ctl: Rc<RefCell<Ctl>>,
}

impl grindcore::ScheduleDirector for ReplayDirector {
    fn boundary(&mut self, core: &mut VmCore, current: grindcore::Tid) -> Option<grindcore::Tid> {
        let mut ctl = self.ctl.borrow_mut();
        let ctl = &mut *ctl;
        ctl.stats.peak_pages = ctl.stats.peak_pages.max(core.snapshot_pages());
        match ctl.mode {
            Mode::Follow => {
                if ctl.saved.is_none() {
                    // The very first boundary, before any slice ran:
                    // the earliest possible trigger (seq 1) is covered.
                    ctl.save(core, current);
                    return None;
                }
                if ctl.trigger_fired {
                    ctl.trigger_fired = false;
                    return ctl.begin_attempts(core);
                }
                if ctl.refresh_due {
                    ctl.refresh_due = false;
                    ctl.save(core, current);
                }
                None
            }
            Mode::Attempt => ctl.attempt_boundary(core),
        }
    }
}

/// Replay every candidate's epoch under adversarial schedules and
/// return one verdict per candidate (index-aligned with `candidates`)
/// plus pass counters. `secs` is left at 0 for the caller to stamp.
pub fn confirm_candidates(
    module: &Module,
    args: &[&str],
    cfg: &TaskgrindConfig,
    graph: &SegmentGraph,
    candidates: &[Candidate],
) -> (Vec<Option<Verdict>>, ConfirmStats) {
    let (verdicts, stats, _) = replay_candidates(module, args, cfg, graph, candidates);
    (verdicts, stats)
}

/// [`confirm_candidates`], also returning the replay VM's run (`None`
/// when no pair was replayable).
fn replay_candidates(
    module: &Module,
    args: &[&str],
    cfg: &TaskgrindConfig,
    graph: &SegmentGraph,
    candidates: &[Candidate],
) -> (Vec<Option<Verdict>>, ConfirmStats, Option<grindcore::RunResult>) {
    let mut verdicts: Vec<Option<Verdict>> = vec![None; candidates.len()];
    let mut stats = ConfirmStats { candidates: candidates.len() as u64, ..Default::default() };
    if candidates.is_empty() {
        return (verdicts, stats, None);
    }

    // Group candidates by segment pair; split off unreplayable pairs.
    let mut replayable: BTreeMap<(u64, u64), Pair> = BTreeMap::new();
    let mut skipped: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, c) in candidates.iter().enumerate() {
        let (sa, sb) = (c.seg1.min(c.seg2), c.seg1.max(c.seg2));
        let s1 = &graph.segments[sa as usize];
        let s2 = &graph.segments[sb as usize];
        let steerable = s1.task.is_some() && s2.task.is_some() && s1.thread != s2.thread;
        if !steerable {
            skipped.entry((sa as u64, sb as u64)).or_default().push(i);
            continue;
        }
        let entry = replayable.entry((sa as u64, sb as u64)).or_insert_with(|| {
            let (ta, tb) = if s1.open_seq <= s2.open_seq {
                (s1.thread, s2.thread)
            } else {
                (s2.thread, s1.thread)
            };
            Pair {
                ta,
                tb,
                // Segments opened before the first client request carry
                // open_seq 0; seq 1 is the earliest observable trigger.
                trigger: s1.open_seq.min(s2.open_seq).max(1),
                ranges: Vec::new(),
                cands: Vec::new(),
            }
        });
        entry.ranges.push((c.lo, c.hi));
        entry.cands.push(i);
    }
    stats.pairs = (replayable.len() + skipped.len()) as u64;
    for cands in skipped.into_values() {
        stats.unconfirmed += 1;
        for i in cands {
            verdicts[i] = Some(Verdict::Unconfirmed { tried: 0 });
        }
    }
    if replayable.is_empty() {
        return (verdicts, stats, None);
    }

    let mut pairs: Vec<Pair> = replayable.into_values().collect();
    pairs.sort_by_key(|p| p.trigger);

    let ctl = Rc::new(RefCell::new(Ctl {
        pairs,
        head: 0,
        trigger_fired: false,
        refresh_due: false,
        saved: None,
        mode: Mode::Follow,
        cur_pair: 0,
        strategy: 0,
        ta_seen: false,
        flip: false,
        start_instrs: 0,
        force_count: 0,
        escape_cursor: 0,
        budget: cfg.confirm_budget as u64,
        tried_for_pair: 0,
        verdicts,
        stats,
        next_region: 0,
        next_task: 0,
        replace_allocator: cfg.record.replace_allocator,
        replace_runtime_allocator: cfg.record.replace_runtime_allocator,
    }));

    if tg_obs::trace::enabled() {
        tg_obs::trace::name_track(
            tg_obs::trace::PID_GUEST,
            tg_obs::trace::TID_CONFIRM,
            "confirm replay",
        );
    }

    // The replay VM: same module, args, thread count and seed — the
    // policy reproduces the recorded schedule. No code cache (cached
    // blocks were instrumented under the recording tool's filters, not
    // the replay watch).
    let tool = ReplayTool { ctl: Rc::clone(&ctl) };
    let mut vm = Vm::new(module.clone(), Box::new(tool), cfg.vm.clone());
    vm.set_director(Box::new(ReplayDirector { ctl: Rc::clone(&ctl) }));
    let run = {
        let _sp = tg_obs::trace::host_span("confirm replay");
        vm.run(ExecMode::Dbi, args)
    };
    drop(vm);

    let ctl = match Rc::try_unwrap(ctl) {
        Ok(cell) => cell.into_inner(),
        Err(_) => panic!("confirm control state still shared after VM drop"),
    };
    let mut verdicts = ctl.verdicts;
    let mut stats = ctl.stats;
    if matches!(ctl.mode, Mode::Attempt) {
        // A VM error cut the attempt short of its next boundary.
        stats.attempt_instrs += run.metrics.instrs.saturating_sub(ctl.start_instrs);
    }
    // Pairs whose trigger never fired (program ended early, or a VM
    // error interrupted the follow) stay unconfirmed, untried.
    for p in &ctl.pairs {
        for &ci in &p.cands {
            if verdicts[ci].is_none() {
                verdicts[ci] = Some(Verdict::Unconfirmed { tried: 0 });
                // ^ per-candidate; count the pair once below.
            }
        }
    }
    let resolved = stats.confirmed + stats.unconfirmed;
    stats.unconfirmed += stats.pairs.saturating_sub(resolved);
    (verdicts, stats, Some(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_module, TaskgrindConfig};
    use grindcore::VmConfig;

    /// One flippable race in a parallel region, then a long serial loop
    /// and a print that nothing in the replay needs.
    const RACE_THEN_LOOP: &str = r#"
int x;
int main(void) {
    #pragma omp parallel num_threads(2)
    {
        x = x + 1;
    }
    long s = 0;
    for (long i = 0; i < 100000; i++) {
        s = s + i;
    }
    printf("%ld\n", s);
    return 0;
}
"#;

    #[test]
    fn replay_stops_at_its_last_verdict() {
        let m = guest_rt::build_single("race_then_loop.c", RACE_THEN_LOOP).expect("compiles");
        let cfg = TaskgrindConfig {
            vm: VmConfig { nthreads: 2, ..Default::default() },
            ..Default::default()
        };
        let r = check_module(&m, &[], &cfg);
        assert!(r.run.ok(), "{:?}", r.run.error);
        assert_eq!(r.run.stdout_str(), "4999950000\n");
        let candidates = &r.analysis.candidates;
        assert!(!candidates.is_empty(), "the parallel writes must be candidates");

        // the default budget replays the pair; none gives its verdict
        // without a replay
        for budget in [cfg.confirm_budget, 0] {
            let cfg = TaskgrindConfig { confirm_budget: budget, ..cfg.clone() };
            let (verdicts, stats, run) = replay_candidates(&m, &[], &cfg, &r.graph, candidates);
            let run = run.expect("the race is replayable");
            assert!(verdicts.iter().all(Option::is_some), "{verdicts:?}");
            assert_eq!(stats.confirmed > 0, budget > 0, "{stats:?}");
            // stopped, not exited: no exit code, no error, and neither
            // the loop nor the print ran
            assert!(run.ok() && run.exit_code.is_none(), "{:?} {:?}", run.exit_code, run.error);
            assert!(run.stdout.is_empty(), "{}", run.stdout_str());
            assert!(
                run.metrics.instrs + 100_000 < r.run.metrics.instrs,
                "budget {budget}: the replay retired {} instructions, the recording {}",
                run.metrics.instrs,
                r.run.metrics.instrs
            );
        }
    }
}
