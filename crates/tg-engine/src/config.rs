//! Engine escape-hatch configuration, resolved once per session.
//!
//! Every engine knob is resolved in [`EngineConfig::resolve`] with
//! precedence **explicit override > environment variable > default**,
//! and every knob is *declared* in [`FLAGS`] — the README's reference
//! table is generated from that declaration and a test diffs the two,
//! so the documentation cannot rot. The CLI parses flags into a
//! [`ConfigOverrides`] and hands it here; embedders (tests, the serve
//! daemon, future fuzzing loops) construct overrides directly.

/// Unresolved configuration overrides: what the caller explicitly asked
/// for, before the environment and defaults are folded in. The CLI maps
/// its flags onto this 1:1; `Default` means "no explicit override for
/// anything" (environment variables still apply at resolve time).
#[derive(Clone, Debug, Default)]
pub struct ConfigOverrides {
    /// `--no-chaining`: force the tree-walk reference dispatcher.
    pub no_chaining: bool,
    /// `--no-sweep`: all-pairs reference pair generation.
    pub no_sweep: bool,
    /// `--no-bulk`: per-access interval-tree inserts.
    pub no_bulk: bool,
    /// `--no-fuse`: disable peephole fusion in the lifter.
    pub no_fuse: bool,
    /// `--code-cache=DIR`: persistent compiled-code cache directory.
    pub code_cache: Option<String>,
    /// `--no-code-cache`: ignore both the flag and `TG_CODE_CACHE`.
    pub no_code_cache: bool,
    /// `--no-static-filter`: record statically safe accesses too.
    pub no_static_filter: bool,
    /// `--no-static-concurrency`: skip the static lockset pass.
    pub no_static_concurrency: bool,
    /// `--streaming` / `--no-streaming`; `None` defers to
    /// `TG_STREAMING`.
    pub streaming: Option<bool>,
    /// `--max-live-segments=N` streaming backpressure bound (0 = off).
    pub max_live_segments: usize,
    /// `--trace-out=FILE`: Chrome-trace JSON timeline destination.
    pub trace_out: Option<String>,
    /// `--metrics-json=FILE`: metrics-registry JSON dump destination.
    pub metrics_json: Option<String>,
    /// `--self-profile`: enable the sampling self-profiler.
    pub self_profile: bool,
}

/// One declared engine knob: the flag that sets it, the environment
/// variable that also sets it (flags win), its default, and what it
/// does. [`FLAGS`] is the single source the README table and `--help`
/// derive from.
pub struct FlagSpec {
    /// Short stable knob name, matching [`EngineConfig::describe`].
    pub knob: &'static str,
    /// Command-line flag(s).
    pub flag: &'static str,
    /// Environment variable, if any.
    pub env: Option<&'static str>,
    /// Default setting, as rendered in the table.
    pub default: &'static str,
    /// Which subsystem the knob belongs to.
    pub subsystem: &'static str,
    /// One-line effect description.
    pub effect: &'static str,
}

/// Every engine escape hatch and observability knob, declared once.
pub const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        knob: "chaining",
        flag: "`--no-chaining`",
        env: None,
        default: "on",
        subsystem: "dispatch",
        effect: "superblock chaining + IBTC; off = tree-walk reference engine",
    },
    FlagSpec {
        knob: "sweep",
        flag: "`--no-sweep`",
        env: None,
        default: "on",
        subsystem: "analysis",
        effect: "address-indexed sweep pair generation; off = all-pairs reference",
    },
    FlagSpec {
        knob: "bulk",
        flag: "`--no-bulk`",
        env: Some("`TG_NO_BULK`"),
        default: "on",
        subsystem: "recording",
        effect: "bulk access ingestion at segment close; off = per-access inserts",
    },
    FlagSpec {
        knob: "fuse",
        flag: "`--no-fuse`",
        env: Some("`TG_NO_FUSE`"),
        default: "on",
        subsystem: "translation",
        effect: "peephole fusion of flat-compiled blocks",
    },
    FlagSpec {
        knob: "code_cache",
        flag: "`--code-cache=DIR` / `--no-code-cache`",
        env: Some("`TG_CODE_CACHE`"),
        default: "off",
        subsystem: "translation",
        effect: "persistent on-disk cache of compiled blocks + static facts (see `tgrind warm`)",
    },
    FlagSpec {
        knob: "static_filter",
        flag: "`--no-static-filter`",
        env: None,
        default: "on",
        subsystem: "translation",
        effect: "prune instrumentation of statically safe accesses (tga-analysis)",
    },
    FlagSpec {
        knob: "static_concurrency",
        flag: "`--no-static-concurrency`",
        env: None,
        default: "on",
        subsystem: "analysis",
        effect: "static lockset/lock-order findings + statically-proven sweep suppression",
    },
    FlagSpec {
        knob: "streaming",
        flag: "`--streaming` / `--no-streaming`",
        env: Some("`TG_STREAMING`"),
        default: "off",
        subsystem: "analysis",
        effect: "online bounded-memory segment retirement; off = batch reference",
    },
    FlagSpec {
        knob: "max_live_segments",
        flag: "`--max-live-segments=N`",
        env: None,
        default: "0 (off)",
        subsystem: "analysis",
        effect: "streaming backpressure: block the guest above N resident closed segments",
    },
    FlagSpec {
        knob: "trace_out",
        flag: "`--trace-out=FILE`",
        env: Some("`TG_TRACE_OUT`"),
        default: "off",
        subsystem: "observability",
        effect: "write a Chrome-trace/Perfetto JSON timeline of the run (tg-obs)",
    },
    FlagSpec {
        knob: "metrics_json",
        flag: "`--metrics-json=FILE`",
        env: Some("`TG_METRICS_JSON`"),
        default: "off",
        subsystem: "observability",
        effect: "dump every counter of the metrics registry as JSON",
    },
    FlagSpec {
        knob: "self_profile",
        flag: "`--self-profile`",
        env: Some("`TG_SELF_PROFILE`"),
        default: "off",
        subsystem: "observability",
        effect: "sample executed-op budget per guest function (symbol-resolved)",
    },
];

/// Render [`FLAGS`] as the README's markdown reference table.
pub fn render_flag_table() -> String {
    let mut out = String::new();
    out.push_str("| knob | flag | env variable | default | subsystem | effect |\n");
    out.push_str("|------|------|--------------|---------|-----------|--------|\n");
    for f in FLAGS {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            f.knob,
            f.flag,
            f.env.unwrap_or("—"),
            f.default,
            f.subsystem,
            f.effect
        ));
    }
    out
}

/// Every engine escape hatch, resolved in one place. Precedence:
/// explicit override > environment variable > default. The knob set is
/// declared in [`FLAGS`]; [`EngineConfig::describe`] must stay in sync
/// (a unit test compares the two).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Superblock chaining + IBTC dispatch.
    pub chaining: bool,
    /// Address-indexed sweep pair generation.
    pub sweep: bool,
    /// Bulk access ingestion at segment close.
    pub bulk: bool,
    /// Peephole fusion of flat-compiled blocks.
    pub fuse: bool,
    /// Unread: translation always runs on the dispatch thread. Kept
    /// only because `tgbench` reads this field.
    #[doc(hidden)]
    pub compile_threads: usize,
    /// Directory of the persistent compiled-code cache (`--code-cache`,
    /// `TG_CODE_CACHE`); `None` runs cold.
    pub code_cache: Option<String>,
    /// Prune instrumentation of statically safe accesses.
    pub static_filter: bool,
    /// Static lockset/lock-order pass + statically-proven suppression.
    pub static_concurrency: bool,
    /// Online bounded-memory segment retirement.
    pub streaming: bool,
    /// Streaming backpressure bound (0 = off).
    pub max_live_segments: usize,
    /// Write a Chrome-trace JSON timeline here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Write the metrics-registry JSON dump here (`--metrics-json`).
    pub metrics_json: Option<String>,
    /// Enable the sampling self-profiler (`--self-profile`).
    pub self_profile: bool,
}

fn env_path(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|s| !s.is_empty())
}

/// Resolve a thread-count knob value: 0 means auto — one worker per
/// available host core. The convention of `--analysis-threads` and of
/// `tgrind warm`'s worker count.
pub fn resolve_thread_count(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        n
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::resolve(&ConfigOverrides::default())
    }
}

impl EngineConfig {
    /// Resolve the engine configuration from explicit overrides and the
    /// environment.
    pub fn resolve(o: &ConfigOverrides) -> EngineConfig {
        EngineConfig {
            chaining: !o.no_chaining,
            sweep: !o.no_sweep,
            bulk: !o.no_bulk && std::env::var_os("TG_NO_BULK").is_none(),
            fuse: !o.no_fuse && std::env::var_os("TG_NO_FUSE").is_none(),
            compile_threads: 0,
            code_cache: if o.no_code_cache {
                None
            } else {
                o.code_cache.clone().or_else(|| env_path("TG_CODE_CACHE"))
            },
            static_filter: !o.no_static_filter,
            static_concurrency: !o.no_static_concurrency,
            streaming: o.streaming.unwrap_or_else(|| std::env::var_os("TG_STREAMING").is_some()),
            max_live_segments: o.max_live_segments,
            trace_out: o.trace_out.clone().or_else(|| env_path("TG_TRACE_OUT")),
            metrics_json: o.metrics_json.clone().or_else(|| env_path("TG_METRICS_JSON")),
            self_profile: o.self_profile || std::env::var_os("TG_SELF_PROFILE").is_some(),
        }
    }

    /// `TG_NO_FUSE` is read inside the lifter at translation time, so an
    /// explicit `--no-fuse` (or an explicit absence, when only the env
    /// var was set and no flag given) must be materialized in the
    /// environment before the VM translates anything. The write is
    /// skipped when the environment already agrees, so a long-lived
    /// session whose configuration matches the process environment never
    /// mutates it (serve jobs may run concurrently).
    pub fn export_fuse(&self) {
        let set = std::env::var_os("TG_NO_FUSE").is_some();
        if self.fuse && set {
            std::env::remove_var("TG_NO_FUSE");
        } else if !self.fuse && !set {
            std::env::set_var("TG_NO_FUSE", "1");
        }
    }

    /// The resolved value of every declared knob, in [`FLAGS`] order —
    /// the runtime counterpart of the declaration, compared against it
    /// by the rot-proofing test.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let onoff = |b: bool| if b { "on" } else { "off" }.to_string();
        vec![
            ("chaining", onoff(self.chaining)),
            ("sweep", onoff(self.sweep)),
            ("bulk", onoff(self.bulk)),
            ("fuse", onoff(self.fuse)),
            ("code_cache", self.code_cache.clone().unwrap_or_else(|| "off".into())),
            ("static_filter", onoff(self.static_filter)),
            ("static_concurrency", onoff(self.static_concurrency)),
            ("streaming", onoff(self.streaming)),
            ("max_live_segments", self.max_live_segments.to_string()),
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
        let mut h = fold64(0, b"tgc-fp-v1");
        h = fold64(
            h,
            &[
                self.chaining as u8,
                self.fuse as u8,
                self.static_filter as u8,
                self.static_concurrency as u8,
            ],
        );
        for part in extra {
            h = fold64(h, part.as_bytes());
            h = fold64(h, &[0xff]); // separator: ["ab"] != ["a","b"]
        }
        h
    }

    /// Publish the resolved engine toggles into the metrics registry
    /// under `engine.*`.
    pub fn publish(&self, reg: &mut tg_obs::Registry) {
        reg.set_bool("engine.chaining", self.chaining);
        reg.set_bool("engine.sweep", self.sweep);
        reg.set_bool("engine.bulk", self.bulk);
        reg.set_bool("engine.fuse", self.fuse);
        reg.set_str("engine.code_cache", self.code_cache.as_deref().unwrap_or("off"));
        reg.set_bool("engine.static_filter", self.static_filter);
        reg.set_bool("engine.static_concurrency", self.static_concurrency);
        reg.set_bool("engine.streaming", self.streaming);
        reg.set_u64("engine.max_live_segments", self.max_live_segments as u64);
        reg.set_bool("engine.self_profile", self.self_profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_flags_match_engine_config_knobs() {
        let eng = EngineConfig::resolve(&ConfigOverrides::default());
        let declared: Vec<&str> = FLAGS.iter().map(|f| f.knob).collect();
        let described: Vec<&str> = eng.describe().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            declared, described,
            "FLAGS and EngineConfig::describe must list the same knobs in the same order"
        );
    }

    #[test]
    fn overrides_win_over_defaults() {
        let o = ConfigOverrides {
            no_chaining: true,
            streaming: Some(true),
            code_cache: Some("/tmp/tgc".into()),
            ..Default::default()
        };
        let eng = EngineConfig::resolve(&o);
        assert!(!eng.chaining);
        assert!(eng.streaming);
        assert_eq!(eng.code_cache.as_deref(), Some("/tmp/tgc"));
        // --no-code-cache wins over the directory override and the env.
        let o = ConfigOverrides { code_cache: Some("/tmp/tgc".into()), no_code_cache: true, ..o };
        assert!(EngineConfig::resolve(&o).code_cache.is_none());
    }

    #[test]
    fn flag_table_renders_every_declared_knob() {
        let table = render_flag_table();
        for f in FLAGS {
            assert!(table.contains(f.knob), "table missing knob {}", f.knob);
            assert!(table.contains(f.flag), "table missing flag {}", f.flag);
        }
    }
}
