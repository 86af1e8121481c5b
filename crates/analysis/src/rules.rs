//! Per-file rules: R1 determinism, R2 panic-free service paths, R5
//! unsafe inventory, plus the suppression-comment machinery shared by
//! every rule.

use crate::lexer::{in_regions, Comment, Tok, Token};
use crate::report::{Finding, Rule, UnsafeSite};
use crate::{Role, SourceFile};

/// Crates whose results are bit-pinned: wall-clock reads and hash-order
/// iteration there can perturb reproduced fronts. The engine and search
/// crates, and every crate whose series `tests/prep_digest.rs` pins bit
/// for bit (`weather`, `gridcarbon`, `workload`, `sam`, and `units`,
/// whose calendar and series they all use). `bench` and `telemetry` are
/// deliberately absent (timing is their job).
pub const ENGINE_CRATES: [&str; 9] = [
    "microgrid",
    "optimizer",
    "core",
    "storage",
    "weather",
    "gridcarbon",
    "workload",
    "sam",
    "units",
];

/// One parsed `// mgopt-lint: allow(rule) — justification` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The named rule, if it parsed to a known id.
    pub rule: Option<Rule>,
    /// The raw text between `allow(` and `)`.
    pub rule_name: String,
    /// 1-based line the comment starts on (for diagnostics).
    pub line: u32,
    /// 1-based line the comment ends on: the suppression covers this
    /// line and the next one.
    pub anchor: u32,
    /// Whether a justification (≥ 8 chars after the closing paren)
    /// was given.
    pub justified: bool,
    /// `mgopt-lint:` marker present but not followed by `allow(rule)`.
    pub malformed: bool,
}

const MARKER: &str = "mgopt-lint:";

/// Extract every suppression directive from a file's comment stream.
pub fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments may *describe* the syntax (the crate docs and the
        // src/lib.rs layer map do); only plain comments direct the linter.
        if c.doc {
            continue;
        }
        let Some(idx) = c.text.find(MARKER) else {
            continue;
        };
        let rest = c.text[idx + MARKER.len()..].trim_start();
        let mut sup = Suppression {
            rule: None,
            rule_name: String::new(),
            line: c.line,
            anchor: c.end_line,
            justified: false,
            malformed: true,
        };
        if let Some(args) = rest.strip_prefix("allow(") {
            if let Some(close) = args.find(')') {
                let id = args[..close].trim();
                sup.malformed = false;
                sup.rule_name = id.to_string();
                sup.rule = Rule::from_id(id);
                let just: String = args[close + 1..]
                    .trim_start_matches(['—', '–', '-', ':', ' '])
                    .trim()
                    .to_string();
                sup.justified = just.chars().count() >= 8;
            }
        }
        out.push(sup);
    }
    out
}

/// Does `sup` silence a finding of `rule` at `line`? An allow covers its
/// own line and the line below it, and always silences its target —
/// hygiene problems (no justification, unknown rule) are reported
/// separately by [`suppression_hygiene`] so a sloppy allow is a
/// violation rather than a silent hole.
pub fn suppresses(sup: &Suppression, rule: Rule, line: u32) -> bool {
    sup.rule == Some(rule) && (sup.anchor == line || sup.anchor + 1 == line)
}

/// Meta-rule: malformed directives, unknown rule ids, and missing
/// justifications are themselves findings (never suppressible).
pub fn suppression_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for sup in &file.suppressions {
        if sup.malformed {
            out.push(Finding {
                file: file.rel.clone(),
                line: sup.line,
                rule: Rule::Suppression,
                message: "malformed directive; expected `mgopt-lint: allow(rule) — justification`"
                    .into(),
            });
        } else if sup.rule.is_none() {
            out.push(Finding {
                file: file.rel.clone(),
                line: sup.line,
                rule: Rule::Suppression,
                message: format!(
                    "unknown rule `{}` in allow(...); known rules: {}",
                    sup.rule_name,
                    Rule::ALL.map(|r| r.id()).join(", ")
                ),
            });
        } else if !sup.justified {
            out.push(Finding {
                file: file.rel.clone(),
                line: sup.line,
                rule: Rule::Suppression,
                message: format!(
                    "allow({}) needs a justification (≥ 8 chars) after the closing paren",
                    sup.rule_name
                ),
            });
        }
    }
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: &Token, c: char) -> bool {
    matches!(t.tok, Tok::Punct(p) if p == c)
}

/// `toks[i]` is followed by `::` (two colon puncts).
fn followed_by_path_sep(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| punct(t, ':')) && toks.get(i + 2).is_some_and(|t| punct(t, ':'))
}

/// R1: no `Instant::now` / `SystemTime::now` / `thread_rng`, and no
/// `HashMap`/`HashSet` imported or called (type-annotation positions
/// pass) in engine crates. Keyed-only hash use is fine — suppress with
/// a justification saying so.
pub fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    let Some(name) = &file.crate_name else {
        return;
    };
    if !ENGINE_CRATES.contains(&name.as_str()) {
        return;
    }
    let toks = &file.lexed.tokens;
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        match ident(t) {
            Some("use") => in_use = true,
            _ if punct(t, ';') => in_use = false,
            _ => {}
        }
        if in_regions(&file.test_regions, t.line) {
            continue;
        }
        let message = match ident(t) {
            Some("thread_rng") => Some(
                "ambient RNG in an engine crate; thread seeds are not reproducible — \
                 use the study's seeded RNG"
                    .to_string(),
            ),
            Some(clock @ ("Instant" | "SystemTime"))
                if followed_by_path_sep(toks, i)
                    && toks.get(i + 3).and_then(ident) == Some("now") =>
            {
                Some(format!(
                    "`{clock}::now()` in engine crate `{name}`; wall-clock reads make runs \
                     irreproducible — keep timing in bench/telemetry"
                ))
            }
            Some(hash @ ("HashMap" | "HashSet")) if in_use || followed_by_path_sep(toks, i) => {
                Some(format!(
                    "`{hash}` in engine crate `{name}`; iteration order is nondeterministic — \
                     use BTreeMap/BTreeSet, or suppress if access is keyed-only"
                ))
            }
            _ => None,
        };
        if let Some(message) = message {
            out.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: Rule::Determinism,
                message,
            });
        }
    }
}

/// Identifiers that legitimately precede `[` without indexing
/// (`for x in [..]`, `let [a, b] = ..`, `&mut [T]`, …).
const NON_INDEX_KEYWORDS: [&str; 30] = [
    "if", "else", "match", "return", "in", "mut", "ref", "move", "loop", "while", "for", "break",
    "continue", "let", "as", "impl", "fn", "where", "use", "pub", "const", "static", "type",
    "struct", "enum", "trait", "mod", "dyn", "async", "await",
];

/// R2: service paths (`core::wire`, `crates/server`) must degrade to
/// structured error frames — no `unwrap`/`expect`, no panic-class
/// macros, no direct indexing/slicing.
pub fn panic_free(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.has_role(Role::Wire) && !file.has_role(Role::Server) {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if in_regions(&file.test_regions, t.line) {
            continue;
        }
        let message = match &t.tok {
            Tok::Ident(s)
                if (s == "unwrap" || s == "expect")
                    && i > 0
                    && punct(&toks[i - 1], '.')
                    && toks.get(i + 1).is_some_and(|n| punct(n, '(')) =>
            {
                Some(format!(
                    "`.{s}(...)` on a service path; return a structured error instead"
                ))
            }
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "panic" | "todo" | "unimplemented" | "unreachable"
                ) && toks.get(i + 1).is_some_and(|n| punct(n, '!')) =>
            {
                Some(format!(
                    "`{s}!` on a service path; the connection must answer with an error frame"
                ))
            }
            Tok::Punct('[') if i > 0 && is_index_base(&toks[i - 1]) => Some(
                "direct indexing/slicing can panic on a service path; \
                 use `.get(..)` / `.first()` / slice patterns"
                    .to_string(),
            ),
            _ => None,
        };
        if let Some(message) = message {
            out.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: Rule::PanicFree,
                message,
            });
        }
    }
}

/// Is the token before `[` an expression that makes the bracket an
/// index/slice (rather than an array literal, slice pattern, type, or
/// attribute)?
fn is_index_base(prev: &Token) -> bool {
    match &prev.tok {
        Tok::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
        Tok::Punct(')') | Tok::Punct(']') => true,
        _ => false,
    }
}

/// R5: every `unsafe` keyword needs a `// SAFETY:` comment on the same
/// line or within the three lines above; every occurrence lands in the
/// machine-readable inventory either way.
pub fn unsafe_safety(file: &SourceFile, out: &mut Vec<Finding>, inventory: &mut Vec<UnsafeSite>) {
    for t in &file.lexed.tokens {
        if ident(t) != Some("unsafe") {
            continue;
        }
        let covered = file.lexed.comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && c.end_line <= t.line
                && c.end_line >= t.line.saturating_sub(3)
        });
        inventory.push(UnsafeSite {
            file: file.rel.clone(),
            line: t.line,
            has_safety_comment: covered,
        });
        if !covered {
            out.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                rule: Rule::UnsafeSafety,
                message: "`unsafe` without a `// SAFETY:` comment (same line or ≤ 3 lines above)"
                    .into(),
            });
        }
    }
}
