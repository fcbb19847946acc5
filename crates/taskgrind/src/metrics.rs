//! Publish a [`TaskgrindResult`] into the tg-obs metrics registry and
//! render the CLI's `==` summary block from it.
//!
//! One source of truth: every counter the CLI prints is read back out of
//! the registry, so the human-readable summary and the `--metrics-json`
//! dump can never disagree.

use crate::TaskgrindResult;
use tg_obs::Registry;

/// Publish every counter of `r` (plus the VM execution metrics) into
/// `reg` under the `taskgrind.*`, `analysis.*`, `stream.*`, `filter.*`,
/// `vm.*` and `dispatch.*` namespaces. `filter.facts_scope` names where
/// the run's static facts came from: `run` (the run-path analysis over
/// the runtime summary), `module` (the whole-module analysis it falls
/// back to) or `none` (filter off).
pub fn publish(r: &TaskgrindResult, reg: &mut Registry) {
    reg.set_u64("taskgrind.reports", r.n_reports() as u64);
    reg.set_u64("taskgrind.suppressed_reports", r.suppressed_reports.len() as u64);
    reg.set_u64("taskgrind.candidates", r.analysis.candidates.len() as u64);
    reg.set_u64("taskgrind.segments", r.graph.n_nodes() as u64);
    reg.set_u64("taskgrind.alloc_blocks", r.blocks.len() as u64);
    reg.set_f64("taskgrind.recording_secs", r.recording_secs);
    reg.set_f64("taskgrind.analysis_secs", r.analysis_secs);
    reg.set_u64("taskgrind.tool_bytes", r.tool_bytes);
    reg.set_u64("taskgrind.reach_bytes", r.reach_bytes);

    reg.set_str("analysis.engine", r.analysis_engine);
    reg.set_u64("analysis.pairs_checked", r.analysis.pairs_checked);
    reg.set_u64("analysis.unordered_pairs", r.analysis.unordered_pairs);
    reg.set_u64("analysis.raw_ranges", r.analysis.raw_ranges);
    reg.set_u64("analysis.suppressed_locks", r.analysis.suppressed_locks);
    reg.set_u64("analysis.suppressed_mutex", r.analysis.suppressed_mutex);
    reg.set_u64("analysis.suppressed_tls", r.analysis.suppressed_tls);
    reg.set_u64("analysis.suppressed_stack", r.analysis.suppressed_stack);

    // `stream.` is a historical prefix: tgbench reads
    // `stream.peak_tool_bytes` by this name.
    reg.set_u64("stream.peak_live_segments", r.peak_live_segments);
    reg.set_u64("stream.peak_tool_bytes", r.peak_tool_bytes);

    reg.set_bool("filter.enabled", r.static_facts.is_some());
    let scope = r.static_facts.as_ref().map_or("none", |f| f.scope.name());
    reg.set_str("filter.facts_scope", scope);
    reg.set_u64("filter.sites_pruned", r.sites_pruned);
    reg.set_u64("filter.sites_instrumented", r.sites_instrumented);
    reg.set_u64("filter.accesses_recorded", r.accesses_recorded);

    if let Some(c) = &r.confirm {
        reg.set_bool("confirm.enabled", true);
        reg.set_u64("confirm.candidates", c.candidates);
        reg.set_u64("confirm.pairs", c.pairs);
        reg.set_u64("confirm.replays", c.replays);
        reg.set_u64("confirm.confirmed", c.confirmed);
        reg.set_u64("confirm.unconfirmed", c.unconfirmed);
        reg.set_u64("confirm.snapshots", c.snapshots);
        reg.set_u64("confirm.restores", c.restores);
        reg.set_u64("confirm.peak_pages", c.peak_pages);
        reg.set_u64("confirm.attempt_instrs", c.attempt_instrs);
        reg.set_f64("confirm.secs", c.secs);
    }

    r.run.metrics.publish(reg);
}

/// Render the `==` summary block from a published registry. Line
/// contents come *only* from registry lookups, so anything printed here
/// is guaranteed to appear in `--metrics-json` too.
pub fn render_summary(reg: &Registry) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== taskgrind: {} report(s) ({} raw candidates) | recording {:.3}s, analysis {:.3}s | {} segments, {} instrs\n",
        reg.u64("taskgrind.reports"),
        reg.u64("taskgrind.candidates"),
        reg.f64("taskgrind.recording_secs"),
        reg.f64("taskgrind.analysis_secs"),
        reg.u64("taskgrind.segments"),
        reg.u64("vm.instrs"),
    ));
    out.push_str(&format!(
        "== analysis: engine {} | {} candidate pair(s), {} unordered | {} raw range(s) | peak {} live segment(s), {} high-water byte(s) | {:.3}s\n",
        reg.str("analysis.engine"),
        reg.u64("analysis.pairs_checked"),
        reg.u64("analysis.unordered_pairs"),
        reg.u64("analysis.raw_ranges"),
        reg.u64("stream.peak_live_segments"),
        reg.u64("stream.peak_tool_bytes"),
        reg.f64("taskgrind.analysis_secs"),
    ));
    out.push_str(&format!(
        "== static filter: {} | {} site(s) pruned, {} instrumented, {} access(es) recorded\n",
        if reg.bool("filter.enabled") { "on" } else { "off" },
        reg.u64("filter.sites_pruned"),
        reg.u64("filter.sites_instrumented"),
        reg.u64("filter.accesses_recorded"),
    ));
    out.push_str(&format!(
        "== dispatch: {} chain hit(s) ({} ibtc), {} probe(s), {} translation(s), {} eviction(s), {} discard(s)\n",
        reg.u64("dispatch.chain_hits"),
        reg.u64("dispatch.ibtc_hits"),
        reg.u64("dispatch.probes"),
        reg.u64("vm.translations"),
        reg.u64("dispatch.evictions"),
        reg.u64("dispatch.discarded_blocks"),
    ));
    // Rendered only when a persistent code cache was attached, so
    // cache-less runs keep the historical four-line summary shape (the
    // differential suite asserts on it).
    if reg.bool("cache.enabled") {
        out.push_str(&format!(
            "== code cache: {} hit(s), {} miss(es) | {} byte(s) loaded, {} stored | load {:.3}ms, store {:.3}ms | {} invalidated\n",
            reg.u64("cache.hits"),
            reg.u64("cache.misses"),
            reg.u64("cache.bytes_loaded"),
            reg.u64("cache.bytes_stored"),
            reg.f64("cache.load_ms"),
            reg.f64("cache.store_ms"),
            reg.u64("cache.invalidations"),
        ));
    }
    // Rendered only when the confirmation replay pass ran
    // (`--confirm-races`), so default runs keep the historical summary
    // shape (the differential suite asserts on it).
    if reg.bool("confirm.enabled") {
        out.push_str(&format!(
            "== confirm: {} confirmed, {} unconfirmed of {} pair(s) ({} candidate range(s)) | {} replay(s), {} snapshot(s), {} restore(s) | peak {} CoW page(s) | {:.3}s\n",
            reg.u64("confirm.confirmed"),
            reg.u64("confirm.unconfirmed"),
            reg.u64("confirm.pairs"),
            reg.u64("confirm.candidates"),
            reg.u64("confirm.replays"),
            reg.u64("confirm.snapshots"),
            reg.u64("confirm.restores"),
            reg.u64("confirm.peak_pages"),
            reg.f64("confirm.secs"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_module, TaskgrindConfig};
    use grindcore::VmConfig;

    #[test]
    fn summary_is_rendered_from_registry_only() {
        let src = r#"
int main(void) {
    int *x = (int*) malloc(2 * sizeof(int));
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task shared(x)
            x[0] = 42;
            #pragma omp task shared(x)
            x[0] = 43;
        }
    }
    return 0;
}
"#;
        let m = guest_rt::build_single("test.c", src).unwrap();
        let cfg = TaskgrindConfig {
            vm: VmConfig { nthreads: 2, ..Default::default() },
            ..Default::default()
        };
        let r = check_module(&m, &[], &cfg);
        let mut reg = Registry::new();
        publish(&r, &mut reg);
        let s = render_summary(&reg);
        // exactly one merged analysis line
        assert_eq!(s.matches("== analysis:").count(), 1, "{s}");
        assert!(s.contains(&format!("engine {}", r.analysis_engine)), "{s}");
        assert!(s.contains(&format!("{} candidate pair(s)", r.analysis.pairs_checked)), "{s}");
        assert!(s.contains(&format!("{} high-water byte(s)", r.peak_tool_bytes)), "{s}");
        assert!(
            s.contains(&format!("{} segments, {} instrs", r.graph.n_nodes(), r.run.metrics.instrs)),
            "{s}"
        );
        // the machine-readable dump carries everything the summary shows
        let json = reg.to_json();
        for key in [
            "taskgrind.reports",
            "analysis.pairs_checked",
            "analysis.unordered_pairs",
            "stream.peak_live_segments",
            "stream.peak_tool_bytes",
            "filter.sites_pruned",
            "filter.facts_scope",
            "taskgrind.reach_bytes",
            "dispatch.chain_hits",
            "vm.instrs",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "metrics json missing {key}");
        }
    }
}
