#![forbid(unsafe_code)]
//! Workspace invariant linter (`mgopt_lint`).
//!
//! The repo's guarantees — bit-identical SIMD walks, byte-pinned wire
//! fixtures, reproducible fronts — rest on conventions no compiler
//! checks. This crate turns them into a rule registry enforced by CI:
//!
//! | Rule | Id | Contract |
//! |------|----|----------|
//! | R1 | `determinism` | No `Instant::now`/`SystemTime::now`/`thread_rng`, and no `HashMap`/`HashSet` import or call, in engine and prepared-input crates (`microgrid`, `optimizer`, `core`, `storage`, `weather`, `gridcarbon`, `workload`, `sam`, `units`). |
//! | R2 | `panic_free` | No `unwrap`/`expect`/`panic!`-class macros/direct indexing in `core::wire` or `crates/server` — service paths answer with error frames. |
//! | R3 | `env_registry` | Every `MGOPT_*` literal read anywhere has a row in the `crates/bench/src/lib.rs` env-var table, and vice versa. |
//! | R4 | `schema_drift` | Every `ErrorCode` variant appears in the golden rejection fixtures and the `src/lib.rs` wire spec; every telemetry event/field emitted matches `trace_report`'s `required_fields` schema. |
//! | R5 | `unsafe_safety` | Every `unsafe` carries a `// SAFETY:` comment; all occurrences land in a machine-readable inventory. |
//! | R6 | `orphan_module` | Every library module (`crates/*/src/**.rs` except crate roots and `bin/`) is named by non-test code in another file: a path to it or one of its top-level items. A module only tests reach is deleted or kept by a justified suppression. |
//! | — | `suppression` | `mgopt-lint: allow(...)` directives must name a known rule and justify themselves. |
//!
//! Suppress a finding with a comment on the same line or the line
//! above:
//!
//! ```text
//! // mgopt-lint: allow(determinism) — memo cache is keyed-only, never iterated
//! ```
//!
//! The justification (≥ 8 chars after the closing paren) is mandatory;
//! an allow without one still silences its target but is itself
//! reported under the `suppression` rule, so sloppy allows fail CI
//! rather than opening silent holes.
//!
//! The crate is std-only with an intentionally empty `[dependencies]`:
//! the linter gates CI, so it must never be the thing that breaks the
//! build.

pub mod lexer;
pub mod orphan;
pub mod registry;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use lexer::Lexed;
use report::{Report, Rule};
use rules::Suppression;

/// Special responsibilities a file can carry. In workspace mode these
/// come from the path; in fixture mode from
/// `// mgopt-lint-fixture: role=...` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `core::wire` — R2 applies; source of the `ErrorCode` enum.
    Wire,
    /// `crates/server` connection handling — R2 applies.
    Server,
    /// The bench env-var doc table — R3's registry.
    EnvTable,
    /// The `src/lib.rs` wire spec — R4 checks error codes against it.
    WireSpec,
    /// `trace_report`'s `required_fields` schema — R4's event registry.
    TraceSchema,
    /// Golden wire fixtures / tests — R4 checks error codes against it.
    WireGolden,
}

impl Role {
    fn from_name(name: &str) -> Option<Role> {
        Some(match name {
            "wire" => Role::Wire,
            "server" => Role::Server,
            "env-table" => Role::EnvTable,
            "wire-spec" => Role::WireSpec,
            "trace-schema" => Role::TraceSchema,
            "wire-golden" => Role::WireGolden,
            _ => return None,
        })
    }
}

/// One lexed `.rs` file plus its lint-relevant scope.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Owning crate directory name (`crates/<name>/…`), `root` for the
    /// umbrella crate, `tests` for root integration tests.
    pub crate_name: Option<String>,
    /// Special responsibilities (see [`Role`]).
    pub roles: Vec<Role>,
    /// Raw text (R4 runs `contains` checks against spec/golden files).
    pub raw: String,
    /// Token + comment streams.
    pub lexed: Lexed,
    /// `#[cfg(test)]` / `#[test]` line ranges, skipped by R1/R2/R4.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed `mgopt-lint: allow(...)` directives.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Build from source text, deriving scope from the path and then
    /// applying any `mgopt-lint-fixture:` directives in the text.
    pub fn from_source(rel: &str, raw: String) -> SourceFile {
        let lexed = lexer::lex(&raw);
        let test_regions = lexer::test_regions(&lexed);
        let suppressions = rules::parse_suppressions(&lexed.comments);
        let (mut crate_name, mut roles) = scope_from_path(rel);
        for c in &lexed.comments {
            let Some(idx) = c.text.find("mgopt-lint-fixture:") else {
                continue;
            };
            for kv in c.text[idx + "mgopt-lint-fixture:".len()..].split_whitespace() {
                if let Some(name) = kv.strip_prefix("crate=") {
                    crate_name = Some(name.to_string());
                } else if let Some(role) = kv.strip_prefix("role=").and_then(Role::from_name) {
                    if !roles.contains(&role) {
                        roles.push(role);
                    }
                }
            }
        }
        SourceFile {
            rel: rel.to_string(),
            crate_name,
            roles,
            raw,
            lexed,
            test_regions,
            suppressions,
        }
    }

    /// Does this file carry `role`?
    pub fn has_role(&self, role: Role) -> bool {
        self.roles.contains(&role)
    }
}

/// A non-Rust file the registry rules read (golden `.jsonl` fixtures).
#[derive(Debug)]
pub struct DataFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw text.
    pub text: String,
}

/// The complete linted set.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Lexed `.rs` files.
    pub sources: Vec<SourceFile>,
    /// Golden data files (all treated as [`Role::WireGolden`] text).
    pub data: Vec<DataFile>,
}

/// Map a workspace-relative path to (crate, roles).
fn scope_from_path(rel: &str) -> (Option<String>, Vec<Role>) {
    let crate_name = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().map(str::to_string)
    } else if rel.starts_with("src/") {
        Some("root".to_string())
    } else if rel.starts_with("tests/") {
        Some("tests".to_string())
    } else {
        None
    };
    let mut roles = Vec::new();
    match rel {
        "crates/core/src/wire.rs" => roles.push(Role::Wire),
        "crates/bench/src/lib.rs" => roles.push(Role::EnvTable),
        "crates/bench/src/bin/trace_report.rs" => roles.push(Role::TraceSchema),
        "src/lib.rs" => roles.push(Role::WireSpec),
        "tests/wire_golden.rs" => roles.push(Role::WireGolden),
        _ => {}
    }
    if rel.starts_with("crates/server/") {
        roles.push(Role::Server);
    }
    (crate_name, roles)
}

/// Lint the whole workspace rooted at `root`. Walks every tracked
/// `.rs` file outside `vendor/`, `target/`, and `tests/fixtures/`
/// trees, plus the golden `tests/fixtures/wire/*.jsonl` data.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut ws = Workspace::default();
    walk(root, root, &mut |rel, path| {
        if rel.ends_with(".rs") && !rel.contains("tests/fixtures/") {
            ws.sources
                .push(SourceFile::from_source(rel, fs::read_to_string(path)?));
        } else if rel.ends_with(".jsonl") && rel.contains("tests/fixtures/wire/") {
            ws.data.push(DataFile {
                rel: rel.to_string(),
                text: fs::read_to_string(path)?,
            });
        }
        Ok(())
    })?;
    Ok(run(ws))
}

/// Lint one directory as a self-contained set (fixture mode): every
/// `.rs` is a source (scoped by its directives), every `.jsonl` is
/// golden data.
pub fn lint_dir(dir: &Path) -> io::Result<Report> {
    let mut ws = Workspace::default();
    walk(dir, dir, &mut |rel, path| {
        if rel.ends_with(".rs") {
            ws.sources
                .push(SourceFile::from_source(rel, fs::read_to_string(path)?));
        } else if rel.ends_with(".jsonl") {
            ws.data.push(DataFile {
                rel: rel.to_string(),
                text: fs::read_to_string(path)?,
            });
        }
        Ok(())
    })?;
    Ok(run(ws))
}

/// Depth-first, name-sorted walk; skips VCS/build/vendored trees.
fn walk(
    root: &Path,
    dir: &Path,
    visit: &mut dyn FnMut(&str, &Path) -> io::Result<()>,
) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), ".git" | "target" | "vendor" | ".claude") {
                continue;
            }
            walk(root, &path, visit)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            visit(&rel, &path)?;
        }
    }
    Ok(())
}

/// Run every rule over a built [`Workspace`] and fold in suppressions.
pub fn run(ws: Workspace) -> Report {
    let mut findings = Vec::new();
    let mut inventory = Vec::new();
    for f in &ws.sources {
        rules::determinism(f, &mut findings);
        rules::panic_free(f, &mut findings);
        rules::unsafe_safety(f, &mut findings, &mut inventory);
        rules::suppression_hygiene(f, &mut findings);
    }
    registry::env_registry(&ws, &mut findings);
    registry::wire_schema(&ws, &mut findings);
    registry::telemetry_schema(&ws, &mut findings);
    orphan::orphan_module(&ws, &mut findings);

    let sups: BTreeMap<&str, &[Suppression]> = ws
        .sources
        .iter()
        .map(|f| (f.rel.as_str(), f.suppressions.as_slice()))
        .collect();
    let mut suppressed = 0usize;
    findings.retain(|f| {
        if f.rule == Rule::Suppression {
            return true;
        }
        let hit = sups
            .get(f.file.as_str())
            .is_some_and(|s| s.iter().any(|sup| rules::suppresses(sup, f.rule, f.line)));
        if hit {
            suppressed += 1;
        }
        !hit
    });
    findings.sort();
    findings.dedup();
    inventory.sort();
    Report {
        findings,
        unsafe_inventory: inventory,
        suppressed,
        files_scanned: ws.sources.len(),
    }
}

/// The fixture directories under `crates/analysis/tests/fixtures` and
/// the one rule each must demonstrate.
pub const FIXTURE_CASES: [(&str, Rule); 8] = [
    ("r1_determinism", Rule::Determinism),
    ("r1_prep_crates", Rule::Determinism),
    ("r2_panic_free", Rule::PanicFree),
    ("r3_env_registry", Rule::EnvRegistry),
    ("r4_schema_drift", Rule::SchemaDrift),
    ("r5_unsafe", Rule::UnsafeSafety),
    ("r6_orphan_module", Rule::OrphanModule),
    ("suppression", Rule::Suppression),
];

/// Self-test: for every rule, the `bad/` fixture must produce at least
/// one finding, all of them under exactly that rule, and the `good/`
/// fixture must be clean. Returns a per-case log, or a description of
/// the first failure.
pub fn self_test(fixtures: &Path) -> Result<String, String> {
    let mut log = String::new();
    for (dir, rule) in FIXTURE_CASES {
        let case = fixtures.join(dir);
        let bad =
            lint_dir(&case.join("bad")).map_err(|e| format!("{dir}/bad: cannot lint: {e}"))?;
        if bad.findings.is_empty() {
            return Err(format!(
                "{dir}/bad: expected `{}` findings, got none",
                rule.id()
            ));
        }
        if let Some(stray) = bad.findings.iter().find(|f| f.rule != rule) {
            return Err(format!(
                "{dir}/bad: expected only `{}` findings, got `{}` at {}:{} ({})",
                rule.id(),
                stray.rule.id(),
                stray.file,
                stray.line,
                stray.message
            ));
        }
        let good =
            lint_dir(&case.join("good")).map_err(|e| format!("{dir}/good: cannot lint: {e}"))?;
        if !good.is_clean() {
            return Err(format!(
                "{dir}/good: expected clean, got:\n{}",
                good.render_human()
            ));
        }
        log.push_str(&format!(
            "{dir}: bad fires {} x {}, good is clean\n",
            bad.findings.len(),
            rule.id()
        ));
    }
    Ok(log)
}

/// Convenience for assembling a [`Workspace`] from in-memory sources
/// (tests use this; the binary goes through the fs walkers).
pub fn workspace_from_sources(files: &[(&str, &str)]) -> Workspace {
    Workspace {
        sources: files
            .iter()
            .map(|(rel, src)| SourceFile::from_source(rel, (*src).to_string()))
            .collect(),
        data: Vec::new(),
    }
}

/// Re-exported for downstream convenience.
pub use report::{Finding as LintFinding, Report as LintReport, Rule as LintRule};
