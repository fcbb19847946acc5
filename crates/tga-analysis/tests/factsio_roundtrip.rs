//! Property tests for the [`StaticFacts`] wire codec
//! (`tga_analysis::factsio`): encode→decode is the identity on random
//! facts covering every `FindingKind`, and decoding is total. A cached
//! facts record that survives the disk layer's checksum must
//! reconstruct the analysis result exactly — `safe_pcs` drives which
//! accesses get instrumented, `guarded` drives sweep suppression, so
//! any drift here would silently change verdicts on warm runs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tga_analysis::cfg::CfgStats;
use tga_analysis::dataflow::RoRange;
use tga_analysis::{FactsScope, Finding, FindingKind, StaticFacts};

/// Identifier-ish strings, including empty and non-ASCII-letter bytes
/// mapped into the lowercase range.
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 0..10)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn finding_kind() -> impl Strategy<Value = FindingKind> {
    prop_oneof![
        name().prop_map(|name| FindingKind::UnreachableFunction { name }),
        (name(), any::<i64>())
            .prop_map(|(func, offset)| FindingKind::EscapingStackSlot { func, offset }),
        name().prop_map(|func| FindingKind::FrameNotAnalyzable { func }),
        name().prop_map(|func| FindingKind::SpMismatchOnReturn { func }),
        any::<u64>().prop_map(|target| FindingKind::WriteToReadOnly { target }),
        prop::collection::vec(name(), 0..4).prop_map(|locks| FindingKind::LockOrderCycle { locks }),
        name().prop_map(|lock| FindingKind::DoubleLock { lock }),
        (name(), name()).prop_map(|(func, lock)| FindingKind::LockLeak { func, lock }),
    ]
}

fn finding() -> impl Strategy<Value = Finding> {
    (finding_kind(), any::<u64>(), (any::<bool>(), name())).prop_map(
        |(kind, addr, (has_loc, loc))| Finding { kind, addr, loc: has_loc.then_some(loc) },
    )
}

fn ro_range() -> impl Strategy<Value = RoRange> {
    (name(), any::<u64>(), any::<u64>()).prop_map(|(name, lo, hi)| RoRange { name, lo, hi })
}

fn facts() -> impl Strategy<Value = StaticFacts> {
    (
        (
            0usize..10_000,
            0usize..10_000,
            0usize..10_000,
            0usize..10_000,
            0usize..10_000,
            0usize..10_000,
        ),
        prop::collection::vec(any::<u64>(), 0..32),
        prop::collection::vec(ro_range(), 0..4),
        prop::collection::vec(ro_range(), 0..4),
        prop::collection::vec(finding(), 0..8),
        any::<u16>(),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        (prop::collection::vec(any::<u64>(), 0..8), any::<bool>()),
    )
        .prop_map(
            |(s, safe_pcs, ro, init_only, findings, access_pcs, guarded, (lock_universe, run))| {
                StaticFacts {
                    scope: if run { FactsScope::Run } else { FactsScope::Module },
                    stats: CfgStats {
                        functions: s.0,
                        blocks: s.1,
                        edges: s.2,
                        call_edges: s.3,
                        indirect_exits: s.4,
                        unreachable_functions: s.5,
                    },
                    safe_pcs: safe_pcs.into_iter().collect::<BTreeSet<u64>>(),
                    ro,
                    init_only,
                    findings,
                    access_pcs: access_pcs as usize,
                    guarded,
                    lock_universe,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode→decode is the identity on every field, including all
    /// eight `FindingKind` variants.
    #[test]
    fn encode_decode_is_identity(f in facts()) {
        let bytes = f.to_bytes();
        let back = StaticFacts::from_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(format!("{:?}", back), format!("{:?}", f));
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Every strict prefix of a valid encoding is rejected cleanly.
    #[test]
    fn truncation_errors_cleanly(f in facts(), pct in 0usize..100) {
        let bytes = f.to_bytes();
        let cut = bytes.len() * pct / 100;
        prop_assert!(cut == bytes.len() || StaticFacts::from_bytes(&bytes[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = StaticFacts::from_bytes(&bytes);
    }
}

/// The facts of a real module survive the round trip — pins the codec
/// to the analysis output, not just to hand-built values.
#[test]
fn real_module_facts_round_trip() {
    let src = r#"
int counter = 0;
int main(void) {
    int *x = (int*) malloc(4 * sizeof(int));
    #pragma omp parallel
    {
        #pragma omp critical
        counter = counter + 1;
        #pragma omp single
        {
            #pragma omp task shared(x)
            x[0] = 1;
        }
    }
    return counter;
}
"#;
    let m = guest_rt::build_single("facts_rt.c", src).unwrap();
    let facts = tga_analysis::analyze_with(&m, &tga_analysis::AnalyzeOpts { concurrency: true });
    let back = StaticFacts::from_bytes(&facts.to_bytes()).expect("decodes");
    assert_eq!(format!("{back:?}"), format!("{facts:?}"));
    assert!(!facts.safe_pcs.is_empty(), "analysis should prove some accesses safe");
}
