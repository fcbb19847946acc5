//! The four workloads as seeded, endless job streams, and the pinned
//! verdict every job must reproduce.
//!
//! The seed drives only job order, LULESH's racy/clean coin and the serve
//! request mix; every guest runs under the VM's default scheduler seed
//! (42, like the CLI), so a job's verdict and report are fixed.

use std::collections::VecDeque;
use tg_drb::bots::{FIB_MC, NQUEENS_MC, SPARSELU_MC};
use tg_drb::{corpus, extra_corpus, Suite};
use tg_lulesh::LULESH_MC;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table II: mini-LULESH at one guest thread, clean or racy.
    LuleshTable2,
    /// BOTS fib / nqueens / racy sparselu at two guest threads.
    BotsTasks,
    /// Every Table I row plus the extra corpus, with race confirmation.
    CorpusTriage,
    /// Warm jobs through an in-process `tgrind serve` daemon.
    ServeWarm,
}

/// Every workload, in `BENCHMARK.json` order.
const WORKLOADS: [Workload; 4] =
    [Workload::LuleshTable2, Workload::BotsTasks, Workload::CorpusTriage, Workload::ServeWarm];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LuleshTable2 => "lulesh_table2",
            Workload::BotsTasks => "bots_tasks",
            Workload::CorpusTriage => "corpus_triage",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// One analysis request: a guest program, its thread count and argv.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Stable `<guest>@<threads>` label, the key of [`EXPECTED`].
    pub label: String,
    /// Source display name (report `file:line` anchors use it).
    pub name: &'static str,
    /// minic source text.
    pub source: &'static str,
    /// Guest thread count.
    pub threads: u64,
    /// Guest argv.
    pub args: Vec<String>,
    /// Replay candidate races (`--confirm-races`).
    pub confirm: bool,
}

impl Job {
    fn new(label: &str, name: &'static str, source: &'static str, threads: u64) -> Job {
        Job {
            label: format!("{label}@{threads}"),
            name,
            source,
            threads,
            args: Vec::new(),
            confirm: false,
        }
    }

    fn args(mut self, args: &str) -> Job {
        self.args = args.split_whitespace().map(String::from).collect();
        self
    }

    /// Whether the pinned table expects at least one race report.
    pub fn expect_reports(&self) -> bool {
        expected(&self.label).unwrap_or_else(|| panic!("job {} has no pinned verdict", self.label))
    }
}

/// SplitMix64: a small, seedable generator, so inputs depend on the seed
/// alone.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (n > 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Mini-LULESH in the Table II configuration at one guest thread.
fn lulesh_table2(racy: bool) -> Job {
    let job =
        Job::new(if racy { "lulesh-s16-racy" } else { "lulesh-s16" }, "lulesh.c", LULESH_MC, 1);
    job.args(if racy { "-s 16 -tel 4 -tnl 4 -p -i 4 -racy" } else { "-s 16 -tel 4 -tnl 4 -p -i 4" })
}

/// The three BOTS shapes at two guest threads.
fn bots_round() -> Vec<Job> {
    vec![
        Job::new("bots-fib16", "fib.c", FIB_MC, 2).args("16"),
        Job::new("bots-nqueens8", "nqueens.c", NQUEENS_MC, 2).args("8"),
        Job::new("bots-sparselu8-racy", "sparselu.c", SPARSELU_MC, 2).args("-nb 8 -racy"),
    ]
}

/// The Table I rows: DataRaceBench programs at 4 threads, TMB at 1 and 4.
fn table1_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for p in corpus() {
        let threads: &[u64] = match p.suite {
            Suite::Drb => &[4],
            Suite::Tmb => &[1, 4],
        };
        for &t in threads {
            jobs.push(Job::new(p.name, p.name, p.source, t));
        }
    }
    jobs
}

/// One corpus-triage pass: every Table I row plus the extra corpus at 4
/// threads, each confirmed by replay.
fn corpus_pass() -> Vec<Job> {
    let mut jobs = table1_jobs();
    jobs.extend(extra_corpus().into_iter().map(|p| Job::new(p.name, p.name, p.source, 4)));
    for j in &mut jobs {
        j.confirm = true;
    }
    jobs
}

/// The serve mix's larger request.
fn lulesh_serve() -> Job {
    Job::new("lulesh-s8", "lulesh.c", LULESH_MC, 2).args("-s 8 -tel 2 -tnl 2 -i 1")
}

/// Every distinct job a workload can draw, in a fixed order.
pub fn distinct_jobs(w: Workload) -> Vec<Job> {
    match w {
        Workload::LuleshTable2 => vec![lulesh_table2(false), lulesh_table2(true)],
        Workload::BotsTasks => bots_round(),
        Workload::CorpusTriage => corpus_pass(),
        Workload::ServeWarm => {
            let mut jobs = table1_jobs();
            jobs.push(lulesh_serve());
            jobs
        }
    }
}

/// A workload's endless, seeded job sequence.
pub struct JobStream {
    workload: Workload,
    rng: Rng,
    pending: VecDeque<Job>,
    table1: Vec<Job>,
}

impl JobStream {
    /// The job sequence of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> JobStream {
        JobStream { workload, rng: Rng::new(seed), pending: VecDeque::new(), table1: table1_jobs() }
    }

    /// Queue the next round: one LULESH coin flip, one shuffled BOTS
    /// round, one shuffled corpus pass, or one serve request (LULESH one
    /// time in four, otherwise a uniformly drawn Table I row).
    fn refill(&mut self) {
        let mut round = match self.workload {
            Workload::LuleshTable2 => vec![lulesh_table2(self.rng.next_u64() & 1 == 1)],
            Workload::BotsTasks => bots_round(),
            Workload::CorpusTriage => corpus_pass(),
            Workload::ServeWarm => {
                if self.rng.below(4) == 0 {
                    vec![lulesh_serve()]
                } else {
                    vec![self.table1[self.rng.below(self.table1.len())].clone()]
                }
            }
        };
        self.rng.shuffle(&mut round);
        self.pending.extend(round);
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// Whether each job reports at least one race, pinned by hand. Table I
/// rows follow ground truth except `101@4` (a false positive) and `129@4`
/// (a false negative); `127@4` is a true negative, although EXPERIMENTS.md
/// E1 still lists it as a false positive. fib and nqueens report
/// conflicts in reused stack frames of sibling subtrees.
const EXPECTED: &[(&str, bool)] = &[
    ("027-taskdependmissing-orig@4", true),
    ("072-taskdep1-orig@4", false),
    ("078-taskdep2-orig@4", false),
    ("079-taskdep3-orig@4", false),
    ("095-doall2-taskloop-orig@4", true),
    ("096-doall2-taskloop-collapse-orig@4", false),
    ("100-task-reference-orig@4", false),
    ("101-task-value-orig@4", true),
    ("106-taskwaitmissing-orig@4", true),
    ("107-taskgroup-orig@4", false),
    ("122-taskundeferred-orig@4", false),
    ("123-taskundeferred-orig@4", true),
    ("127-tasking-threadprivate1-orig@4", false),
    ("128-tasking-threadprivate2-orig@4", false),
    ("129-mergeable-taskwait-orig@4", false),
    ("130-mergeable-taskwait-orig@4", false),
    ("131-taskdep4-orig-omp45@4", true),
    ("132-taskdep4-orig-omp45@4", false),
    ("133-taskdep5-orig-omp45@4", false),
    ("134-taskdep5-orig-omp45@4", true),
    ("135-taskdep-mutexinoutset-orig@4", false),
    ("136-taskdep-mutexinoutset-orig@4", true),
    ("165-taskdep4-orig-omp50@4", true),
    ("166-taskdep4-orig-omp50@4", false),
    ("167-taskdep4-orig-omp50@4", false),
    ("168-taskdep5-orig-omp50@4", true),
    ("173-non-sibling-taskdep@4", true),
    ("174-non-sibling-taskdep@4", false),
    ("175-non-sibling-taskdep2@4", true),
    ("1000-memory-recycling_1@1", false),
    ("1000-memory-recycling_1@4", false),
    ("1001-stack_1@1", true),
    ("1001-stack_1@4", true),
    ("1002-stack_2@1", false),
    ("1002-stack_2@4", false),
    ("1003-stack_3@1", false),
    ("1003-stack_3@4", false),
    ("1004-stack_4@1", true),
    ("1004-stack_4@4", true),
    ("1005-stack_5@1", false),
    ("1005-stack_5@4", false),
    ("1006-tls_1@1", false),
    ("1006-tls_1@4", false),
    ("x001-omp-lock@4", false),
    ("x002-omp-lock-mismatch@4", true),
    ("x003-detach-fulfilled@4", false),
    ("x004-detach-missing-wait@4", true),
    ("x005-cilk-racy-spawns@4", true),
    ("x006-cilk-synced@4", false),
    ("x007-named-criticals-distinct@4", true),
    ("x008-barrier-phased@4", false),
    ("x009-barrier-missing@4", true),
    ("x010-taskloop-nogroup@4", true),
    ("x011-inoutset-chain@4", false),
    ("x012-firstprivate-snapshot@4", false),
    ("lulesh-s16@1", false),
    ("lulesh-s16-racy@1", true),
    ("lulesh-s8@2", false),
    ("bots-fib16@2", false),
    ("bots-nqueens8@2", true),
    ("bots-sparselu8-racy@2", true),
];

/// The pinned verdict of `label`, if the table has one.
fn expected(label: &str) -> Option<bool> {
    EXPECTED.iter().find(|(l, _)| *l == label).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_drawable_job_has_a_pinned_verdict() {
        let mut labels: Vec<&str> = EXPECTED.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EXPECTED.len(), "duplicate labels in the table");
        for w in WORKLOADS {
            for job in distinct_jobs(w) {
                assert!(expected(&job.label).is_some(), "{} has no verdict", job.label);
            }
        }
    }

    #[test]
    fn table1_and_corpus_pass_sizes() {
        assert_eq!(table1_jobs().len(), 43);
        assert_eq!(corpus_pass().len(), 55);
        assert!(corpus_pass().iter().all(|j| j.confirm));
        assert_eq!(distinct_jobs(Workload::ServeWarm).len(), 44);
    }

    #[test]
    fn pinned_exceptions_to_ground_truth() {
        let truth = |name: &str| corpus().into_iter().find(|p| p.name == name).unwrap().racy;
        assert!(!truth("101-task-value-orig") && expected("101-task-value-orig@4") == Some(true));
        assert!(truth("129-mergeable-taskwait-orig"));
        assert_eq!(expected("129-mergeable-taskwait-orig@4"), Some(false));
        assert_eq!(expected("127-tasking-threadprivate1-orig@4"), Some(false));
        for job in table1_jobs() {
            let name = job.label.split('@').next().unwrap();
            if !["101-task-value-orig", "129-mergeable-taskwait-orig"].contains(&name) {
                assert_eq!(job.expect_reports(), truth(name), "{}", job.label);
            }
        }
    }

    #[test]
    fn streams_are_fixed_by_the_seed() {
        for w in WORKLOADS {
            let a: Vec<Job> = JobStream::new(w, 7).take(120).collect();
            let b: Vec<Job> = JobStream::new(w, 7).take(120).collect();
            let c: Vec<Job> = JobStream::new(w, 8).take(120).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}: the seed must change the sequence", w.name());
        }
    }

    #[test]
    fn rounds_cover_their_jobs() {
        let pass: Vec<Job> = JobStream::new(Workload::CorpusTriage, 3).take(55).collect();
        let mut got: Vec<&str> = pass.iter().map(|j| j.label.as_str()).collect();
        let want = corpus_pass();
        let mut want: Vec<&str> = want.iter().map(|j| j.label.as_str()).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        let round: Vec<Job> = JobStream::new(Workload::BotsTasks, 3).take(3).collect();
        assert!(round.iter().any(|j| j.label == "bots-fib16@2"));
        assert!(round.iter().any(|j| j.label == "bots-sparselu8-racy@2"));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
