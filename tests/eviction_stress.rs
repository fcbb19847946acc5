//! Eviction and invalidation stress tests: run the Table II mini-LULESH
//! kernel with a translation cache small enough to force constant
//! eviction and unchaining, and check that nothing observable changes —
//! then exercise the `DISCARD_TRANSLATIONS` client request and the
//! self-modifying-code store path directly.

use grindcore::tool::NulTool;
use grindcore::{ExecMode, Vm, VmConfig};
use taskgrind::{check_module, TaskgrindConfig, TaskgrindResult};
use tg_lulesh::LULESH_MC;

fn lulesh_args() -> Vec<&'static str> {
    // A reduced Table II configuration, sized for a test.
    vec!["-s", "6", "-tel", "2", "-tnl", "2", "-i", "2", "-racy"]
}

fn check_lulesh(cache_blocks: usize) -> TaskgrindResult {
    let cfg = TaskgrindConfig {
        vm: VmConfig { nthreads: 2, cache_blocks, ..Default::default() },
        ..Default::default()
    };
    let m = guest_rt::build_single("lulesh.c", LULESH_MC).expect("lulesh compiles");
    check_module(&m, &lulesh_args(), &cfg)
}

/// Constant eviction/unchaining churn must not change verdicts or
/// reports on the racy mini-LULESH run.
#[test]
fn tiny_cache_matches_default_capacity_on_lulesh() {
    let default = check_lulesh(4096);
    let tiny = check_lulesh(24);

    assert!(
        tiny.dispatch.evictions > 0,
        "a 24-block cache must thrash on LULESH (got {} evictions)",
        tiny.dispatch.evictions
    );
    assert!(tiny.dispatch.unchains > 0, "evicting chained blocks must unchain them");
    assert_eq!(default.dispatch.evictions, 0, "the default capacity must not thrash");

    assert_eq!(default.run.exit_code, tiny.run.exit_code);
    assert_eq!(default.run.deadlock, tiny.run.deadlock);
    assert_eq!(default.run.stdout, tiny.run.stdout);
    assert_eq!(default.run.metrics.instrs, tiny.run.metrics.instrs);
    assert_eq!(default.run.metrics.sched_digest, tiny.run.metrics.sched_digest);
    assert_eq!(default.accesses_recorded, tiny.accesses_recorded);
    assert!(default.n_reports() > 0, "the -racy seeded race must be found");
    assert_eq!(
        default.n_reports(),
        tiny.n_reports(),
        "report count changed under eviction pressure\ndefault:\n{}\ntiny:\n{}",
        default.render_all(),
        tiny.render_all()
    );
    // Same races at the same sites, not just the same count.
    let sites = |r: &TaskgrindResult| {
        let mut v: Vec<(String, String)> =
            r.reports.iter().map(|rep| (rep.site1.clone(), rep.site2.clone())).collect();
        v.sort();
        v
    };
    assert_eq!(sites(&default), sites(&tiny));

    // The bounded cache must actually bound resident translation bytes:
    // with eviction churn, resident bytes stay below the default run's.
    assert!(
        tiny.run.metrics.translation_bytes < default.run.metrics.translation_bytes,
        "tiny cache kept {} bytes resident vs {} at default capacity",
        tiny.run.metrics.translation_bytes,
        default.run.metrics.translation_bytes
    );
}

/// `tg_discard_translations` must invalidate translations (forcing
/// retranslation) without changing what the program computes.
#[test]
fn discard_translations_request_forces_retranslation() {
    let src = r#"
long work(long n) {
    long s = 0;
    for (long i = 0; i < n; i++) s = s + i * i;
    return s;
}
int main(void) {
    long a = 0;
    for (int round = 0; round < 8; round++) {
        a = a + work(64);
        tg_discard_translations(0, 1099511627776L);
    }
    return (int)(a & 127);
}
"#;
    let m = guest_rt::build_single("discard.c", src).expect("compiles");
    let run = |src_discards: bool, cfg: VmConfig| {
        let mut vm = Vm::new(m.clone(), Box::new(NulTool), cfg);
        let mode = if src_discards { ExecMode::Dbi } else { ExecMode::Fast };
        vm.run(mode, &[])
    };
    let dbi = run(true, VmConfig::default());
    let fast = run(false, VmConfig::default());
    assert!(dbi.ok(), "{:?}", dbi.error);
    assert_eq!(dbi.exit_code, fast.exit_code, "discards must not change results");
    assert_eq!(dbi.metrics.instrs, fast.metrics.instrs);
    assert_eq!(dbi.metrics.dispatch.discard_requests, 8);
    assert!(dbi.metrics.dispatch.discarded_blocks > 0, "the discards must hit translations");
    assert!(
        dbi.metrics.translations > dbi.metrics.dispatch.discarded_blocks.min(8),
        "discarded hot code must be retranslated on next dispatch"
    );
    // Fast mode handles the same core request without any translations.
    assert_eq!(fast.metrics.dispatch.discard_requests, 8);
    assert_eq!(fast.metrics.dispatch.discarded_blocks, 0);
}

/// A store into the code image (self-modifying code) must invalidate
/// the overlapping translation even without an explicit client request.
#[test]
fn store_to_code_discards_overlapping_translation() {
    // The guest reads its own first instruction word and writes it back
    // unchanged: semantically a no-op, but it dirties the code page.
    let src = r#"
int main(void) {
    long *code = (long *)65536; /* module code base */
    long w = *code;
    *code = w;
    return 7;
}
"#;
    let m = guest_rt::build_single("smc.c", src).expect("compiles");
    assert_eq!(m.code_base, 65536, "test assumes the default code base");
    let r = Vm::new(m, Box::new(NulTool), VmConfig::default()).run(ExecMode::Dbi, &[]);
    assert!(r.ok(), "{:?}", r.error);
    assert_eq!(r.exit_code, Some(7));
    assert!(
        r.metrics.dispatch.discarded_blocks > 0,
        "the code store must discard the translation it overlaps"
    );
}

mod tcache_props {
    //! Property test for the translation cache: under random
    //! interleavings of inserts, probes and range invalidations — with a
    //! capacity small enough to force clock eviction — the cache never
    //! serves a stale block, i.e. one based at a pc whose translation
    //! was discarded and not re-inserted.

    use grindcore::tcache::{BlockCode, TransCache};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use vex_ir::{Atom, IrBlock, Stmt};

    const N_BASES: u64 = 24;

    fn base_of(idx: u8) -> u64 {
        0x1000 + (idx as u64 % N_BASES) * 0x20
    }

    fn block(base: u64) -> IrBlock {
        let mut b = IrBlock::new(base);
        b.stmts.push(Stmt::IMark { addr: base, len: 16 });
        b.next = Atom::imm(base + 16);
        b
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Insert a block with its flat form (a translation miss).
        Insert(u8),
        /// Dispatch probes this base.
        Probe(u8),
        /// SMC/client-request invalidation of a base range.
        Discard(u8, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..32).prop_map(Op::Insert),
            (0u8..32).prop_map(Op::Probe),
            (0u8..32, 1u8..8).prop_map(|(lo, n)| Op::Discard(lo, n)),
        ]
    }

    fn run_ops(ops: &[Op]) {
        // Capacity 8 over up to 24 distinct bases: constant eviction.
        let mut c = TransCache::new(8);
        // Bases believed inserted since their last covering discard
        // (eviction may still have dropped them — that is not stale).
        let mut live: HashSet<u64> = HashSet::new();

        for op in ops {
            match op {
                Op::Insert(i) => {
                    let base = base_of(*i);
                    if c.lookup(base).is_none() {
                        let flat = Arc::new(grindcore::flat::compile(&block(base)));
                        c.insert(BlockCode::Flat(flat), base + 16);
                        live.insert(base);
                    }
                }
                Op::Probe(i) => {
                    let base = base_of(*i);
                    // A miss (or eviction) is always sound; a hit must be
                    // live, at the right pc, and never post-discard.
                    if let Some(r) = c.lookup(base) {
                        assert!(
                            live.contains(&base),
                            "served a stale block at {base:#x} after its discard"
                        );
                        assert!(c.is_live(r), "lookup returned a dead ref");
                        let flat = c.take_flat_for(r, base).expect("a live ref serves its block");
                        assert_eq!(flat.base, base, "lookup returned a block at the wrong pc");
                    }
                }
                Op::Discard(lo_i, n) => {
                    let lo = base_of(*lo_i);
                    let hi = lo + *n as u64 * 0x20;
                    c.discard_range(lo, hi);
                    live.retain(|&b| !(b < hi && b + 16 > lo));
                }
            }
        }
        // Closing sweep: nothing discarded may still be served.
        for i in 0..N_BASES {
            let base = 0x1000 + i * 0x20;
            if !live.contains(&base) {
                assert!(c.lookup(base).is_none(), "block at {base:#x} survived its discard");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_interleavings_never_serve_stale_blocks(
            ops in prop::collection::vec(op_strategy(), 1..80),
        ) {
            run_ops(&ops);
        }
    }
}
