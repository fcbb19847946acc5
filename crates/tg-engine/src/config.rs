//! Engine configuration: one plain-data [`EngineConfig`] per run.
//!
//! The CLI parses its flags straight into an `EngineConfig` and the
//! serve daemon overrides a baseline copy field by field per job;
//! nothing reads the process environment. Every knob is *declared* in
//! [`FLAGS`] — the README's reference table is generated from that
//! declaration and a test diffs the two, so the documentation cannot
//! rot.

/// One declared engine knob: the flag that sets it, its default, and
/// what it does. [`FLAGS`] is the single source the README table and
/// `--help` derive from.
pub struct FlagSpec {
    /// Short stable knob name, matching [`EngineConfig::describe`].
    pub knob: &'static str,
    /// Command-line flag.
    pub flag: &'static str,
    /// Default setting, as rendered in the table.
    pub default: &'static str,
    /// Which subsystem the knob belongs to.
    pub subsystem: &'static str,
    /// One-line effect description.
    pub effect: &'static str,
}

/// Every engine and observability knob, declared once.
pub const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        knob: "code_cache",
        flag: "`--code-cache=DIR`",
        default: "off",
        subsystem: "translation",
        effect: "persistent on-disk cache of compiled blocks + static facts (see `tgrind warm`)",
    },
    FlagSpec {
        knob: "static_filter",
        flag: "`--no-static-filter`",
        default: "on",
        subsystem: "translation",
        effect: "prune instrumentation of statically safe accesses (tga-analysis)",
    },
    FlagSpec {
        knob: "trace_out",
        flag: "`--trace-out=FILE`",
        default: "off",
        subsystem: "observability",
        effect: "write a Chrome-trace/Perfetto JSON timeline of the run (tg-obs)",
    },
    FlagSpec {
        knob: "metrics_json",
        flag: "`--metrics-json=FILE`",
        default: "off",
        subsystem: "observability",
        effect: "dump every counter of the metrics registry as JSON",
    },
    FlagSpec {
        knob: "self_profile",
        flag: "`--self-profile`",
        default: "off",
        subsystem: "observability",
        effect: "sample executed-op budget per guest function (symbol-resolved)",
    },
];

/// Render [`FLAGS`] as the README's markdown reference table.
pub fn render_flag_table() -> String {
    let mut out = String::new();
    out.push_str("| knob | flag | default | subsystem | effect |\n");
    out.push_str("|------|------|---------|-----------|--------|\n");
    for f in FLAGS {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            f.knob, f.flag, f.default, f.subsystem, f.effect
        ));
    }
    out
}

/// The engine configuration of one run, as plain data. The knob set is
/// declared in [`FLAGS`]; [`EngineConfig::describe`] must stay in sync
/// (a unit test compares the two).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Unread: dispatch always chains. Kept only because `tgbench`
    /// reads this field.
    #[doc(hidden)]
    pub chaining: bool,
    /// Unread: pair generation always sweeps. Kept only because
    /// `tgbench` reads this field.
    #[doc(hidden)]
    pub sweep: bool,
    /// Unread: access ingestion is always bulk. Kept only because
    /// `tgbench` reads this field.
    #[doc(hidden)]
    pub bulk: bool,
    /// Unread: translation always runs on the dispatch thread. Kept
    /// only because `tgbench` reads this field.
    #[doc(hidden)]
    pub compile_threads: usize,
    /// Directory of the persistent compiled-code cache (`--code-cache`);
    /// `None` runs cold.
    pub code_cache: Option<String>,
    /// Prune instrumentation of statically safe accesses.
    pub static_filter: bool,
    /// Unread: runs never run the lockset pass, and `tgrind lint`
    /// always does. Kept only because `tgbench` reads this field.
    #[doc(hidden)]
    pub static_concurrency: bool,
    /// Unread: analysis always runs once, after recording. Kept only
    /// because `tgbench` reads this field.
    #[doc(hidden)]
    pub streaming: bool,
    /// Unread, like `streaming`. Kept only because `tgbench` reads this
    /// field.
    #[doc(hidden)]
    pub max_live_segments: usize,
    /// Write a Chrome-trace JSON timeline here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Write the metrics-registry JSON dump here (`--metrics-json`).
    pub metrics_json: Option<String>,
    /// Enable the sampling self-profiler (`--self-profile`).
    pub self_profile: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            chaining: true,
            sweep: true,
            bulk: true,
            compile_threads: 0,
            code_cache: None,
            static_filter: true,
            static_concurrency: true,
            streaming: false,
            max_live_segments: 0,
            trace_out: None,
            metrics_json: None,
            self_profile: false,
        }
    }
}

impl EngineConfig {
    /// The value of every declared knob, in [`FLAGS`] order — the
    /// runtime counterpart of the declaration, compared against it by
    /// the rot-proofing test.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let onoff = |b: bool| if b { "on" } else { "off" }.to_string();
        vec![
            ("code_cache", self.code_cache.clone().unwrap_or_else(|| "off".into())),
            ("static_filter", onoff(self.static_filter)),
            ("trace_out", self.trace_out.clone().unwrap_or_else(|| "off".into())),
            ("metrics_json", self.metrics_json.clone().unwrap_or_else(|| "off".into())),
            ("self_profile", onoff(self.self_profile)),
        ]
    }

    /// Fingerprint of every knob that changes what a translation looks
    /// like — the config half of the code-cache key. Two runs whose
    /// fingerprints match would compile byte-identical flat blocks (and
    /// identical `StaticFacts`), so they may share cached code; any
    /// other knob (scheduling, analysis engine, observability) is
    /// deliberately excluded. `extra` carries caller context that also
    /// shapes instrumentation (tool name, ignore-list / allocator
    /// replacement settings).
    pub fn translation_fingerprint(&self, extra: &[String]) -> u64 {
        use grindcore::wire::fold64;
        let mut h = fold64(0, b"tgc-fp-v3");
        h = fold64(h, &[self.static_filter as u8]);
        for part in extra {
            h = fold64(h, part.as_bytes());
            h = fold64(h, &[0xff]); // separator: ["ab"] != ["a","b"]
        }
        h
    }

    /// Publish the engine toggles into the metrics registry under
    /// `engine.*`.
    pub fn publish(&self, reg: &mut tg_obs::Registry) {
        reg.set_str("engine.code_cache", self.code_cache.as_deref().unwrap_or("off"));
        reg.set_bool("engine.static_filter", self.static_filter);
        reg.set_bool("engine.self_profile", self.self_profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_flags_match_engine_config_knobs() {
        let declared: Vec<&str> = FLAGS.iter().map(|f| f.knob).collect();
        let described: Vec<&str> =
            EngineConfig::default().describe().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            declared, described,
            "FLAGS and EngineConfig::describe must list the same knobs in the same order"
        );
    }

    #[test]
    fn flag_table_renders_every_declared_knob() {
        let table = render_flag_table();
        for f in FLAGS {
            assert!(table.contains(f.knob), "table missing knob {}", f.knob);
            assert!(table.contains(f.flag), "table missing flag {}", f.flag);
        }
    }

    #[test]
    fn fingerprint_tracks_translation_knobs_only() {
        let base = EngineConfig::default();
        let fp = base.translation_fingerprint(&[]);
        let nofilter = EngineConfig { static_filter: false, ..EngineConfig::default() };
        assert_ne!(fp, nofilter.translation_fingerprint(&[]), "static_filter must be keyed");
        let observed =
            EngineConfig { metrics_json: Some("m.json".into()), ..EngineConfig::default() };
        assert_eq!(
            fp,
            observed.translation_fingerprint(&[]),
            "observability knobs must not invalidate cached code"
        );
        assert_ne!(fp, base.translation_fingerprint(&["tool=archer".into()]));
        assert_ne!(
            base.translation_fingerprint(&["ab".into()]),
            base.translation_fingerprint(&["a".into(), "b".into()]),
            "extra parts must be delimited"
        );
    }
}
