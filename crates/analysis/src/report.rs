//! Diagnostics: rule identities, findings, the unsafe inventory, and the
//! human / `--json` renderers (hand-rolled JSON — this crate has no
//! dependencies).

use std::fmt;

/// The rule registry. Every diagnostic carries exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no wall-clock, ambient RNG, or hash-order nondeterminism in
    /// engine crates.
    Determinism,
    /// R2: no `unwrap`/`expect`/`panic!`-class macros or direct
    /// indexing/slicing in wire parsing and server connection handling.
    PanicFree,
    /// R3: every `MGOPT_*` env var read anywhere is documented in the
    /// bench env-var table, and vice versa.
    EnvRegistry,
    /// R4: wire error codes appear in the golden rejection fixtures and
    /// the wire spec; emitted telemetry events match the
    /// `trace_report --check` schema.
    SchemaDrift,
    /// R5: every `unsafe` needs a `// SAFETY:` comment.
    UnsafeSafety,
    /// R6: every library module is named by some non-test code outside
    /// itself.
    OrphanModule,
    /// Meta-rule: a `mgopt-lint: allow(...)` without a justification, or
    /// naming an unknown rule. Not itself suppressible.
    Suppression,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 7] = [
        Rule::Determinism,
        Rule::PanicFree,
        Rule::EnvRegistry,
        Rule::SchemaDrift,
        Rule::UnsafeSafety,
        Rule::OrphanModule,
        Rule::Suppression,
    ];

    /// The stable id used in diagnostics and `allow(...)` comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicFree => "panic_free",
            Rule::EnvRegistry => "env_registry",
            Rule::SchemaDrift => "schema_drift",
            Rule::UnsafeSafety => "unsafe_safety",
            Rule::OrphanModule => "orphan_module",
            Rule::Suppression => "suppression",
        }
    }

    /// Parse an `allow(...)` rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: rule, location, message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable detail.
    pub message: String,
}

/// One `unsafe` occurrence, for the machine-readable inventory.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Whether a `SAFETY:` comment covers it (same line or just above).
    pub has_safety_comment: bool,
}

/// A complete lint run: findings (suppressed ones removed) plus the
/// unsafe inventory and scan stats.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every `unsafe` keyword in scanned code, suppressed or not.
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Findings silenced by a justified `allow(...)`.
    pub suppressed: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the run found no violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule.
    pub fn by_rule(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Human-readable rendering, one `file:line: rule: message` per
    /// finding, plus inventory and summary lines.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {}: {}\n",
                f.file,
                f.line,
                f.rule.id(),
                f.message
            ));
        }
        if !self.unsafe_inventory.is_empty() {
            out.push_str("unsafe inventory:\n");
            for u in &self.unsafe_inventory {
                out.push_str(&format!(
                    "  {}:{} (SAFETY comment: {})\n",
                    u.file,
                    u.line,
                    if u.has_safety_comment {
                        "yes"
                    } else {
                        "MISSING"
                    }
                ));
            }
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} violation(s), {} suppressed, {} unsafe site(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed,
            self.unsafe_inventory.len()
        ));
        out
    }

    /// Machine-readable rendering (one JSON object; stable field order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"violations\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(f.rule.id()),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        out.push_str("],\"unsafe_inventory\":[");
        for (i, u) in self.unsafe_inventory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"has_safety_comment\":{}}}",
                json_str(&u.file),
                u.line,
                u.has_safety_comment
            ));
        }
        out.push_str(&format!(
            "],\"files_scanned\":{},\"suppressed\":{},\"clean\":{}}}",
            self.files_scanned,
            self.suppressed,
            self.is_clean()
        ));
        out
    }
}

/// Escape a string as a JSON literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("bogus"), None);
    }

    #[test]
    fn json_rendering_escapes_and_reports() {
        let report = Report {
            findings: vec![Finding {
                file: "a.rs".into(),
                line: 3,
                rule: Rule::PanicFree,
                message: "`.unwrap()` with \"quotes\"".into(),
            }],
            unsafe_inventory: vec![UnsafeSite {
                file: "b.rs".into(),
                line: 9,
                has_safety_comment: false,
            }],
            suppressed: 1,
            files_scanned: 2,
        };
        let json = report.render_json();
        assert!(json.contains(r#""rule":"panic_free""#));
        assert!(json.contains(r#"\"quotes\""#));
        assert!(json.contains(r#""has_safety_comment":false"#));
        assert!(json.contains(r#""clean":false"#));
        let human = report.render_human();
        assert!(human.contains("a.rs:3: panic_free:"));
        assert!(human.contains("SAFETY comment: MISSING"));
    }
}
