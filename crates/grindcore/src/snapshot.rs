//! Copy-on-write VM snapshots and deterministic schedule replay hooks.
//!
//! A [`Snapshot`] captures everything a later guest instruction can
//! observe: the register files and status of every thread, the heap
//! break, guest memory (page-granular copy-on-write against the live
//! VM, see [`crate::mem::GuestMemory::snapshot_begin`]), the stdout
//! length, the metrics block (guest-visible through the `CLOCK`
//! syscall and client-request sequence numbers), the scheduler RNG,
//! the futex wait queues, and any pending exit code.
//! [`VmCore::restore`] rewinds the VM to that point in place — no
//! re-run from `main` — which is the snapshot-as-reset loop that
//! high-throughput schedule exploration needs.
//!
//! What is deliberately *not* captured: the translation cache, compile
//! pool, and code-cache state. Translation is pure (a block's
//! instrumented IR depends only on the module and tool configuration),
//! so stale translations after a restore produce bit-identical guest
//! behaviour; restoring them would only throw away work.
//!
//! **Snapshots and restores are only legal at slice boundaries** — the
//! points where the dispatch loop consults the [`ScheduleDirector`].
//! Mid-block, the interpreter holds temporaries and a half-advanced
//! `pc` outside `VmCore`; a restore there would be partially clobbered
//! when the block resumes. The director callback is therefore the
//! *only* place handed a `&mut VmCore` with the explicit contract that
//! rewinding it is safe. Tools that want to explore schedules set a
//! director ([`crate::vm::Vm::set_director`]) and flag their intent
//! from tool callbacks; the director acts on the flags at the next
//! boundary.

#![warn(missing_docs)]

use crate::vm::{SchedPolicy, Tid, VmCore};

/// A point-in-time capture of all guest-visible VM state. Opaque:
/// produce with [`VmCore::snapshot`], consume with [`VmCore::restore`].
///
/// Guest memory is not copied here — arming the snapshot switches
/// [`crate::mem::GuestMemory`] into copy-on-write journaling, so the
/// cost is proportional to the pages *written* after the snapshot, not
/// to the footprint. One snapshot supports any number of restores; a
/// later [`VmCore::snapshot`] re-arms the journal with the current
/// state as the new baseline.
pub struct Snapshot {
    pub(crate) threads: Vec<crate::vm::ThreadState>,
    pub(crate) brk: u64,
    pub(crate) stdout_len: usize,
    pub(crate) metrics: crate::vm::Metrics,
    pub(crate) rng: rand::rngs::StdRng,
    pub(crate) futex: std::collections::HashMap<u64, std::collections::VecDeque<Tid>>,
    pub(crate) exit_code: Option<i64>,
}

impl VmCore {
    /// Capture the current VM state and arm the memory copy-on-write
    /// journal. Only call at a slice boundary (from a
    /// [`ScheduleDirector`]); see the module docs for why.
    pub fn snapshot(&mut self) -> Snapshot {
        self.mem.snapshot_begin();
        Snapshot {
            threads: self.threads.clone(),
            brk: self.brk,
            stdout_len: self.stdout.len(),
            metrics: self.metrics.clone(),
            rng: self.rng.clone(),
            futex: self.futex.clone(),
            exit_code: self.exit_code,
        }
    }

    /// Rewind the VM to `snap` in place. Guest memory reverts through
    /// the journal (pages allocated after the snapshot are re-zeroed,
    /// never unmapped — see
    /// [`crate::mem::GuestMemory::snapshot_restore`] for why that is
    /// both safe and required); every other captured field is cloned
    /// back. Threads spawned after the snapshot disappear; a pending
    /// exit is cleared if the snapshot predates it. Only call at a
    /// slice boundary, and only with a snapshot taken from this VM
    /// whose journal is still armed.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.mem.snapshot_restore();
        self.threads = snap.threads.clone();
        self.brk = snap.brk;
        self.stdout.truncate(snap.stdout_len);
        self.metrics = snap.metrics.clone();
        self.rng = snap.rng.clone();
        self.futex = snap.futex.clone();
        self.exit_code = snap.exit_code;
    }

    /// Disarm the copy-on-write journal, dropping saved preimages and
    /// returning guest-memory writes to the zero-cost path. Snapshots
    /// taken earlier can no longer be restored.
    pub fn discard_snapshot(&mut self) {
        self.mem.snapshot_discard();
    }

    /// Pages preserved by the live copy-on-write journal — the real
    /// cost of the current snapshot (0 when none is armed).
    pub fn snapshot_pages(&self) -> u64 {
        self.mem.cow_pages_saved()
    }

    /// The pending exit code, if the program has exited. Exposed for
    /// schedule directors, which see the boundary after an exit and may
    /// undo it by restoring an earlier snapshot.
    pub fn exited(&self) -> Option<i64> {
        self.exit_code
    }

    /// End the run at the next slice boundary (at once when called from
    /// a [`ScheduleDirector`]) without faking a guest exit: the run's
    /// [`crate::vm::RunResult`] has no exit code, no deadlock and no
    /// error. For a director that has learned all it wanted from a
    /// replay. A restore does not undo it: it is a host decision, not
    /// guest state.
    pub fn stop_run(&mut self) {
        self.stop_requested = true;
    }
}

/// A scheduling hook consulted by the dispatch loop at every slice
/// boundary, *before* the built-in policy. This is the replay
/// harness's entry point: the callback is the one place where
/// snapshot/restore of `core` is legal (no superblock is in flight),
/// and returning `Some(tid)` forces the next slice onto that thread
/// (ignored unless the thread is runnable).
///
/// The boundary fires even when the program has exited or every thread
/// is blocked: a director may rescue such a run by restoring an
/// earlier snapshot (which clears the exit / re-runs the blocked
/// region). If the exit code is still set when the callback returns,
/// the run ends; so does a run the callback stopped with
/// [`VmCore::stop_run`].
///
/// With no director installed, the dispatch loop is bit-identical to a
/// director that always returns `None`.
pub trait ScheduleDirector {
    /// Called at a slice boundary; `current` is the thread whose slice
    /// just ended (thread 0 before the first slice). Return `Some(tid)`
    /// to force the next slice, `None` to defer to the configured
    /// policy.
    fn boundary(&mut self, core: &mut VmCore, current: Tid) -> Option<Tid>;
}

/// The built-in round-robin choice: first runnable thread strictly
/// after `current`, wrapping. Exposed so a director can hand control
/// back to the default schedule deterministically — e.g. after
/// restoring a snapshot, resuming from the snapshot's `current` yields
/// exactly the schedule the snapshotted run would have taken. (For
/// [`SchedPolicy::Random`] no helper is needed: the RNG is part of the
/// snapshot, so returning `None` after a restore replays the same
/// draws.)
pub fn round_robin_next(core: &VmCore, current: Tid) -> Option<Tid> {
    let n = core.threads.len();
    (1..=n)
        .map(|d| (current + d) % n)
        .find(|&t| core.threads[t].status == crate::vm::ThreadStatus::Runnable)
}

/// True when the VM's configured policy needs [`round_robin_next`] to
/// resume deterministically after a restore (see that function's docs).
pub fn needs_rr_resume(core: &VmCore) -> bool {
    core.config.sched == SchedPolicy::RoundRobin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::NulTool;
    use crate::vm::{ExecMode, Vm, VmConfig};
    use tga::asm::assemble;
    use tga::module::{Module, CODE_BASE};

    // A tiny guest: counts to 200 (several slices), exits with the sum.
    const LOOP_SRC: &str = "
        _start:
            li t0, 0
            li t1, 0
        loop:
            addi t0, t0, 1
            add  t1, t1, t0
            li   t2, 200
            blt  t0, t2, loop
            add  a0, t1, zero
            sys  zero, 0
            halt
    ";

    fn build() -> Module {
        let (code, labels) = assemble(LOOP_SRC, CODE_BASE).unwrap();
        let mut m = Module::new();
        let code_len = code.len() as u64 * tga::INST_SIZE;
        m.code = code;
        m.data_base = (CODE_BASE + code_len + 0xfff) & !0xfff;
        m.entry = labels.get("_start").copied().unwrap_or(CODE_BASE);
        m.finalize();
        m
    }

    /// A director that snapshots at the first boundary, lets the run
    /// finish once, restores, and lets it finish again — the result
    /// must be the run's natural outcome, proving exit rescue and
    /// re-execution determinism.
    struct RewindOnce {
        snap: Option<Snapshot>,
        rewound: bool,
    }

    impl ScheduleDirector for RewindOnce {
        fn boundary(&mut self, core: &mut VmCore, _current: Tid) -> Option<Tid> {
            match &self.snap {
                None => self.snap = Some(core.snapshot()),
                Some(snap) if core.exit_code.is_some() && !self.rewound => {
                    self.rewound = true;
                    core.restore(snap);
                }
                Some(_) => {}
            }
            None
        }
    }

    #[test]
    fn director_can_rewind_a_finished_run() {
        let mut vm = Vm::new(build(), Box::new(NulTool), VmConfig::default());
        vm.set_director(Box::new(RewindOnce { snap: None, rewound: false }));
        let r = vm.run(ExecMode::Dbi, &[]);
        assert_eq!(r.exit_code, Some(20100), "{:?}", r.error);

        // Twice the guest work ran, but the restored metrics only count
        // the final pass (plus the slice that observed the exit).
        let plain = Vm::new(build(), Box::new(NulTool), VmConfig::default());
        let mut plain = plain;
        let p = plain.run(ExecMode::Dbi, &[]);
        assert_eq!(r.stdout, p.stdout);
        assert_eq!(r.metrics.instrs, p.metrics.instrs);
    }

    /// A director that stops the run at its second boundary, after the
    /// first slice.
    struct StopAfterOneSlice(u32);

    impl ScheduleDirector for StopAfterOneSlice {
        fn boundary(&mut self, core: &mut VmCore, _current: Tid) -> Option<Tid> {
            self.0 += 1;
            if self.0 == 2 {
                core.stop_run();
            }
            None
        }
    }

    #[test]
    fn director_can_stop_a_run_without_an_exit() {
        let mut vm = Vm::new(build(), Box::new(NulTool), VmConfig::default());
        vm.set_director(Box::new(StopAfterOneSlice(0)));
        let r = vm.run(ExecMode::Dbi, &[]);
        assert!(r.ok(), "{:?}", r.error);
        assert_eq!(r.exit_code, None, "a stop is not an exit");
        assert_eq!(r.metrics.switches, 1, "one slice ran");
        let full = Vm::new(build(), Box::new(NulTool), VmConfig::default()).run(ExecMode::Dbi, &[]);
        assert!(r.metrics.instrs > 0 && r.metrics.instrs < full.metrics.instrs);
    }

    #[test]
    fn no_director_is_bit_identical() {
        let run = |director: bool| {
            let mut vm = Vm::new(build(), Box::new(NulTool), VmConfig::default());
            struct Noop;
            impl ScheduleDirector for Noop {
                fn boundary(&mut self, _c: &mut VmCore, _t: Tid) -> Option<Tid> {
                    None
                }
            }
            if director {
                vm.set_director(Box::new(Noop));
            }
            let r = vm.run(ExecMode::Dbi, &[]);
            (r.exit_code, r.metrics.sched_digest, r.metrics.instrs)
        };
        assert_eq!(run(false), run(true));
    }
}
