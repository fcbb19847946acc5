//! A flat registry of named, typed metrics.
//!
//! Names are dot-prefixed by subsystem (`vm.instrs`, `dispatch.chain_hits`,
//! `analysis.pairs_checked`, `filter.sites_pruned`, ...).
//! Insertion order is preserved so rendered output is stable, and `set` on
//! an existing name overwrites in place. The registry is a *snapshot*
//! container: subsystems publish their final counters into it at report
//! time; nothing in a hot loop ever touches a `Registry`.

use crate::json::escape;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A single metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned counter or gauge.
    U64(u64),
    /// A floating-point gauge (durations in seconds, ratios).
    F64(f64),
    /// A short descriptive string (engine names, modes).
    Str(String),
    /// An on/off toggle (escape-hatch states).
    Bool(bool),
}

impl Value {
    fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "null".into(),
            Value::Str(s) => format!("\"{}\"", escape(s)),
            Value::Bool(b) => b.to_string(),
        }
    }
}

/// An insertion-ordered collection of named metrics.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    entries: Vec<(String, Value)>,
    index: HashMap<String, usize>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Insert or overwrite a metric.
    pub fn set(&mut self, name: &str, value: Value) {
        match self.index.get(name) {
            Some(&i) => self.entries[i].1 = value,
            None => {
                self.index.insert(name.to_string(), self.entries.len());
                self.entries.push((name.to_string(), value));
            }
        }
    }

    /// Insert or overwrite an unsigned counter.
    pub fn set_u64(&mut self, name: &str, v: u64) {
        self.set(name, Value::U64(v));
    }

    /// Insert or overwrite a floating-point gauge.
    pub fn set_f64(&mut self, name: &str, v: f64) {
        self.set(name, Value::F64(v));
    }

    /// Insert or overwrite a string metric.
    pub fn set_str(&mut self, name: &str, v: &str) {
        self.set(name, Value::Str(v.to_string()));
    }

    /// Insert or overwrite a boolean toggle.
    pub fn set_bool(&mut self, name: &str, v: bool) {
        self.set(name, Value::Bool(v));
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Look up an unsigned counter, or `0` when absent or of another type.
    pub fn u64(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::U64(v)) => *v,
            _ => 0,
        }
    }

    /// Look up a floating-point gauge, or `0.0` when absent.
    pub fn f64(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Value::F64(v)) => *v,
            _ => 0.0,
        }
    }

    /// Look up a string metric, or `""` when absent.
    pub fn str(&self, name: &str) -> &str {
        match self.get(name) {
            Some(Value::Str(s)) => s,
            _ => "",
        }
    }

    /// Look up a boolean toggle, or `false` when absent.
    pub fn bool(&self, name: &str) -> bool {
        matches!(self.get(name), Some(Value::Bool(true)))
    }

    /// Iterate metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of metrics in the registry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the registry as a JSON object, one `"name": value` pair per
    /// line, in insertion order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(out, "  \"{}\": {}{}", escape(name), value.to_json(), comma);
        }
        out.push_str("}\n");
        out
    }

    /// Render the registry as a single-line JSON object (no interior
    /// newlines), in insertion order — the form embedded in
    /// line-delimited wire protocols such as `tgrind serve`.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value.to_json());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    #[test]
    fn set_get_overwrite_preserves_order() {
        let mut r = Registry::new();
        r.set_u64("vm.instrs", 10);
        r.set_str("analysis.engine", "sweep");
        r.set_u64("vm.instrs", 42);
        r.set_bool("engine.static_filter", true);
        r.set_f64("analysis.secs", 0.5);
        assert_eq!(r.u64("vm.instrs"), 42);
        assert_eq!(r.str("analysis.engine"), "sweep");
        assert!(r.bool("engine.static_filter"));
        assert_eq!(r.f64("analysis.secs"), 0.5);
        assert_eq!(r.u64("missing"), 0);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["vm.instrs", "analysis.engine", "engine.static_filter", "analysis.secs"]
        );
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut r = Registry::new();
        r.set_u64("a.count", 7);
        r.set_str("a.name", "x \"quoted\" \\ and\nnewline");
        r.set_bool("a.flag", false);
        r.set_f64("a.secs", 1.25);
        let doc = parse(&r.to_json()).expect("registry JSON must parse");
        let obj = doc.as_object().expect("top level is an object");
        assert_eq!(obj.len(), 4);
        assert_eq!(doc.get("a.count").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            doc.get("a.name").and_then(JsonValue::as_str),
            Some("x \"quoted\" \\ and\nnewline")
        );
        assert_eq!(doc.get("a.flag"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("a.secs").and_then(JsonValue::as_f64), Some(1.25));
    }

    #[test]
    fn compact_json_is_one_line_and_parses() {
        let mut r = Registry::new();
        r.set_u64("a.count", 7);
        r.set_str("a.name", "line\nbreak");
        r.set_bool("a.flag", true);
        let compact = r.to_json_compact();
        assert!(!compact.contains('\n'), "compact form must be newline-free: {compact}");
        let doc = parse(&compact).expect("compact registry JSON must parse");
        assert_eq!(doc.get("a.count").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(doc.get("a.name").and_then(JsonValue::as_str), Some("line\nbreak"));
        assert_eq!(doc.get("a.flag"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn non_finite_floats_emit_null() {
        let mut r = Registry::new();
        r.set_f64("bad", f64::NAN);
        assert!(parse(&r.to_json()).is_ok());
        assert!(r.to_json().contains("null"));
    }
}
