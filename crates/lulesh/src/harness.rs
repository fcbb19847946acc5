//! Shared measurement harness for the LULESH experiments
//! (Table II, Fig. 4, and the §IV suppression ablation).

use crate::LULESH_MC;
use grindcore::tool::NulTool;
use grindcore::{ExecMode, Vm, VmConfig};
use minicc::SourceFile;
use std::time::Instant;
use taskgrind::analysis::SuppressOptions;
use taskgrind::tool::RecordOptions;
use taskgrind::{check_module, TaskgrindConfig};
use tg_baselines::archer::run_archer;
use tg_baselines::romp::run_romp;

/// Which configuration a measurement ran under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ToolCfg {
    /// Uninstrumented reference ("No tools").
    None,
    Archer,
    Taskgrind,
    Romp,
}

impl ToolCfg {
    pub fn name(&self) -> &'static str {
        match self {
            ToolCfg::None => "No tools",
            ToolCfg::Archer => "Archer",
            ToolCfg::Taskgrind => "Taskgrind",
            ToolCfg::Romp => "ROMP",
        }
    }
}

/// LULESH run parameters.
#[derive(Clone, Copy, Debug)]
pub struct LuleshParams {
    pub s: u64,
    pub tel: u64,
    pub tnl: u64,
    pub iters: u64,
    pub progress: bool,
    pub racy: bool,
    pub threads: u64,
}

impl Default for LuleshParams {
    fn default() -> Self {
        // the Table II configuration: -s 16 -tel 4 -tnl 4 -p -i 4
        LuleshParams { s: 16, tel: 4, tnl: 4, iters: 4, progress: true, racy: false, threads: 1 }
    }
}

impl LuleshParams {
    pub fn args(&self) -> Vec<String> {
        let mut a = vec![
            "-s".into(),
            self.s.to_string(),
            "-tel".into(),
            self.tel.to_string(),
            "-tnl".into(),
            self.tnl.to_string(),
            "-i".into(),
            self.iters.to_string(),
        ];
        if self.progress {
            a.push("-p".into());
        }
        if self.racy {
            a.push("-racy".into());
        }
        a
    }
}

/// One measurement row.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub tool: ToolCfg,
    pub params: LuleshParams,
    /// Wall-clock seconds of the (instrumented) execution.
    pub time_secs: f64,
    /// Guest memory + tool structures, bytes.
    pub mem_bytes: u64,
    /// Race reports after deduplication (0 for the reference).
    pub reports: usize,
    /// Raw conflicting ranges before deduplication (the paper's Table II
    /// counts are of this kind — 458 on racy single-threaded LULESH).
    pub raw_reports: usize,
    pub deadlock: bool,
    /// Guest instructions executed (the deterministic "work" metric).
    pub instrs: u64,
}

impl Measurement {
    pub fn mem_mb(&self) -> f64 {
        self.mem_bytes as f64 / (1024.0 * 1024.0)
    }
}

fn vm_cfg(threads: u64) -> VmConfig {
    VmConfig { nthreads: threads, ..Default::default() }
}

/// Run one LULESH configuration under one tool.
pub fn measure(tool: ToolCfg, params: &LuleshParams) -> Measurement {
    let args_owned = params.args();
    let args: Vec<&str> = args_owned.iter().map(|s| s.as_str()).collect();
    match tool {
        ToolCfg::None => {
            let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
            let t0 = Instant::now();
            let r =
                Vm::new(m, Box::new(NulTool), vm_cfg(params.threads)).run(ExecMode::Fast, &args);
            Measurement {
                tool,
                params: *params,
                time_secs: t0.elapsed().as_secs_f64(),
                mem_bytes: r.metrics.guest_footprint,
                reports: 0,
                raw_reports: 0,
                deadlock: r.deadlock,
                instrs: r.metrics.instrs,
            }
        }
        ToolCfg::Archer => {
            let m = guest_rt::build_program_tsan(&[SourceFile::new("lulesh.c", LULESH_MC)])
                .expect("compiles");
            let r = run_archer(&m, &args, &vm_cfg(params.threads));
            Measurement {
                tool,
                params: *params,
                time_secs: r.time_secs,
                mem_bytes: r.run.metrics.guest_footprint + r.tool_bytes,
                reports: r.n_reports,
                raw_reports: r.n_reports,
                deadlock: r.run.deadlock,
                instrs: r.run.metrics.instrs,
            }
        }
        ToolCfg::Taskgrind => {
            let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
            let cfg = TaskgrindConfig { vm: vm_cfg(params.threads), ..Default::default() };
            let r = check_module(&m, &args, &cfg);
            Measurement {
                tool,
                params: *params,
                // the paper reports the recording phase only
                time_secs: r.recording_secs,
                // guest + tool structures + the DBI translation cache
                mem_bytes: r.run.metrics.guest_footprint
                    + r.tool_bytes
                    + r.run.metrics.translation_bytes,
                reports: r.n_reports(),
                raw_reports: r.analysis.candidates.len(),
                deadlock: r.run.deadlock,
                instrs: r.run.metrics.instrs,
            }
        }
        ToolCfg::Romp => {
            let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
            let r = run_romp(&m, &args, &vm_cfg(params.threads));
            Measurement {
                tool,
                params: *params,
                time_secs: r.time_secs,
                mem_bytes: r.run.metrics.guest_footprint
                    + r.tool_bytes
                    + r.run.metrics.translation_bytes,
                reports: r.n_reports,
                raw_reports: r.n_reports,
                deadlock: r.run.deadlock,
                instrs: r.run.metrics.instrs,
            }
        }
    }
}

/// Archer's report counts vary with the schedule (the paper publishes
/// ranges like "140 to 221"); measure across a few seeds and return the
/// (min, max) report counts plus the last measurement.
pub fn measure_archer_range(params: &LuleshParams, seeds: &[u64]) -> (usize, usize, Measurement) {
    let args_owned = params.args();
    let args: Vec<&str> = args_owned.iter().map(|s| s.as_str()).collect();
    let m = guest_rt::build_program_tsan(&[SourceFile::new("lulesh.c", crate::LULESH_MC)])
        .expect("compiles");
    let mut lo = usize::MAX;
    let mut hi = 0;
    let mut last = None;
    for &seed in seeds {
        let cfg = VmConfig {
            nthreads: params.threads,
            seed,
            sched: if seed == 42 {
                grindcore::SchedPolicy::RoundRobin
            } else {
                grindcore::SchedPolicy::Random
            },
            quantum: 16,
            ..Default::default()
        };
        let r = run_archer(&m, &args, &cfg);
        lo = lo.min(r.n_reports);
        hi = hi.max(r.n_reports);
        last = Some(Measurement {
            tool: ToolCfg::Archer,
            params: *params,
            time_secs: r.time_secs,
            mem_bytes: r.run.metrics.guest_footprint + r.tool_bytes,
            reports: r.n_reports,
            raw_reports: r.n_reports,
            deadlock: r.run.deadlock,
            instrs: r.run.metrics.instrs,
        });
    }
    (lo, hi, last.expect("at least one seed"))
}

/// Run Taskgrind with configurable suppression (the §IV ablation).
pub fn measure_taskgrind_suppression(
    params: &LuleshParams,
    ignore_list: Vec<String>,
    replace_allocator: bool,
    suppress: SuppressOptions,
) -> (usize, u64, taskgrind::analysis::AnalysisOutput) {
    let args_owned = params.args();
    let args: Vec<&str> = args_owned.iter().map(|s| s.as_str()).collect();
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("compiles");
    let cfg = TaskgrindConfig {
        vm: vm_cfg(params.threads),
        record: RecordOptions { ignore_list, replace_allocator, ..Default::default() },
        suppress,
        ..Default::default()
    };
    let r = check_module(&m, &args, &cfg);
    (r.n_reports(), r.analysis.candidates.len() as u64, r.analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LuleshParams {
        LuleshParams { s: 4, tel: 2, tnl: 2, iters: 2, progress: false, racy: false, threads: 1 }
    }

    #[test]
    fn reference_and_tools_complete() {
        let p = small();
        let none = measure(ToolCfg::None, &p);
        assert!(!none.deadlock);
        assert_eq!(none.reports, 0);
        let tg = measure(ToolCfg::Taskgrind, &p);
        assert!(!tg.deadlock);
        assert_eq!(tg.reports, 0, "non-racy LULESH must be clean under Taskgrind");
        let ar = measure(ToolCfg::Archer, &p);
        assert!(!ar.deadlock);
        assert_eq!(ar.reports, 0);
    }

    #[test]
    fn racy_lulesh_detected_by_taskgrind_single_thread_only() {
        let p = LuleshParams { racy: true, ..small() };
        let tg = measure(ToolCfg::Taskgrind, &p);
        assert!(tg.reports > 0, "removed dependence must be reported");
        // Archer at 1 thread never reports (thread-centric serialization)
        let ar = measure(ToolCfg::Archer, &p);
        assert_eq!(ar.reports, 0, "the Table II Archer single-thread contrast");
    }

    #[test]
    fn overhead_ordering_matches_the_paper() {
        // instructions: taskgrind (DBI) and reference execute the same
        // guest work; time: reference < archer < taskgrind
        let p = small();
        let none = measure(ToolCfg::None, &p);
        let ar = measure(ToolCfg::Archer, &p);
        let tg = measure(ToolCfg::Taskgrind, &p);
        assert!(
            ar.instrs > none.instrs,
            "tsan instrumentation adds guest instructions: {} vs {}",
            ar.instrs,
            none.instrs
        );
        assert!(tg.mem_bytes > none.mem_bytes, "tool structures add memory");
        assert!(ar.mem_bytes > none.mem_bytes);
    }
}
