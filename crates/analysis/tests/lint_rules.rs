//! End-to-end checks for `mgopt_lint`: the fixture self-test (every
//! rule fires on its bad snippet, stays quiet on its good one), the
//! binary's exit codes, and the workspace itself staying clean.

use std::path::PathBuf;
use std::process::Command;

use mgopt_analysis::report::Rule;
use mgopt_analysis::{lint_dir, run, self_test, workspace_from_sources, FIXTURE_CASES};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn every_rule_fires_on_bad_and_stays_quiet_on_good() {
    match self_test(&fixtures_root()) {
        Ok(log) => {
            for (dir, _) in FIXTURE_CASES {
                assert!(log.contains(dir), "self-test log missing case {dir}");
            }
        }
        Err(msg) => panic!("self-test failed: {msg}"),
    }
}

#[test]
fn bad_fixtures_report_their_rule_with_locations() {
    let report = lint_dir(&fixtures_root().join("r2_panic_free/bad")).expect("fixture dir");
    assert!(!report.is_clean());
    assert!(report.findings.iter().all(|f| f.rule == Rule::PanicFree));
    let first = &report.findings[0];
    assert_eq!(first.file, "server.rs");
    assert!(first.line > 0);
    let json = report.render_json();
    assert!(json.contains(r#""rule":"panic_free""#));
    assert!(json.contains(r#""clean":false"#));
}

#[test]
fn suppressions_silence_targets_but_hygiene_is_enforced() {
    let report = run(workspace_from_sources(&[(
        "crates/microgrid/src/x.rs",
        "pub fn t() -> u128 {\n    // mgopt-lint: allow(determinism) — timing feeds a log, not results\n    std::time::Instant::now().elapsed().as_millis()\n}\n",
    )]));
    assert!(
        report.is_clean(),
        "justified allow must silence:\n{}",
        report.render_human()
    );
    assert_eq!(report.suppressed, 1);

    let report = run(workspace_from_sources(&[(
        "crates/microgrid/src/x.rs",
        "pub fn t() -> u128 {\n    // mgopt-lint: allow(determinism)\n    std::time::Instant::now().elapsed().as_millis()\n}\n",
    )]));
    assert_eq!(report.findings.len(), 1, "{}", report.render_human());
    assert_eq!(report.findings[0].rule, Rule::Suppression);
}

#[test]
fn test_regions_are_exempt_from_engine_rules() {
    let report = run(workspace_from_sources(&[(
        "crates/optimizer/src/x.rs",
        "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() {\n        let mut m = HashMap::new();\n        m.insert(1, std::time::Instant::now());\n    }\n}\n",
    )]));
    assert!(report.is_clean(), "{}", report.render_human());
}

/// `file:line` of every `orphan_module` finding over in-memory sources.
fn orphans(files: &[(&str, &str)]) -> Vec<String> {
    run(workspace_from_sources(files))
        .by_rule(Rule::OrphanModule)
        .map(|f| format!("{}:{}", f.file, f.line))
        .collect()
}

const ORPHAN_LIB: &str = "pub mod a;\npub use a::Thing;\n";

#[test]
fn a_module_only_tests_reach_is_an_orphan() {
    let files = [
        ("crates/x/src/lib.rs", ORPHAN_LIB),
        (
            "crates/x/src/a.rs",
            "pub struct Thing;\n#[cfg(test)]\nmod tests {\n    fn t() { super::Thing; }\n}\n",
        ),
        ("tests/t.rs", "use mgopt_x::a::Thing;\n"),
        (
            "crates/y/src/lib.rs",
            "// mgopt_x::a::Thing in a comment\npub fn g() {}\n\
             #[cfg(test)]\nmod tests { use mgopt_x::Thing; }\n",
        ),
    ];
    assert_eq!(orphans(&files), ["crates/x/src/lib.rs:1"]);
}

#[test]
fn paths_items_and_grouped_uses_keep_modules_alive() {
    for caller in [
        "use mgopt_x::a;",
        "fn f() { x::a::helper(); }",
        "use mgopt_x::{a, b};",
        "use microgrid_opt::x::{a::Thing};",
        "fn f() -> mgopt_x::Thing { todo!() }",
        "fn f() { helper(); }",
    ] {
        let files = [
            ("crates/x/src/lib.rs", ORPHAN_LIB),
            (
                "crates/x/src/a.rs",
                "pub struct Thing;\npub fn helper() {}\n",
            ),
            ("examples/e.rs", caller),
        ];
        assert!(orphans(&files).is_empty(), "{caller}");
    }
}

#[test]
fn method_names_and_foreign_paths_do_not_count() {
    let files = [
        ("crates/x/src/lib.rs", "pub mod io;\n"),
        (
            "crates/x/src/io.rs",
            "pub fn read(w: impl Write) {}\npub struct Buf;\n\
             impl Buf {\n    pub fn new() -> Self { Buf }\n}\n",
        ),
        (
            "examples/e.rs",
            "use std::io::{self, Write};\n\
             fn main() { let s = Other::new(); s.read(); }\nfn read() {}\n",
        ),
    ];
    assert_eq!(orphans(&files), ["crates/x/src/lib.rs:1"]);
}

#[test]
fn nested_modules_resolve_through_their_parent() {
    let files = [
        (
            "crates/x/src/lib.rs",
            "pub mod outer;\nfn f() { outer::run(); }\n",
        ),
        (
            "crates/x/src/outer/mod.rs",
            "pub mod inner;\npub fn run() {}\n",
        ),
        ("crates/x/src/outer/inner.rs", "pub fn deep() {}\n"),
    ];
    assert_eq!(orphans(&files), ["crates/x/src/outer/mod.rs:1"]);
    // A sibling module's path names it (`other` itself is undeclared,
    // so it is reported at its own first line).
    let called = [
        files[0],
        files[1],
        files[2],
        ("crates/x/src/other.rs", "use crate::outer::inner;\n"),
    ];
    assert_eq!(orphans(&called), ["crates/x/src/other.rs:1"]);
}

#[test]
fn a_type_a_macro_defines_counts_through_its_inherent_impl() {
    let files = [
        ("crates/x/src/lib.rs", "pub mod q;\npub use q::Power;\n"),
        (
            "crates/x/src/q.rs",
            "macro_rules! quantity { ($n:ident) => { pub struct $n(pub f64); }; }\n\
             quantity!(Power);\nimpl Power {\n    pub fn kw(self) -> f64 { self.0 }\n}\n\
             impl std::fmt::Display for Power {}\n",
        ),
        ("examples/e.rs", "fn main() { let p: mgopt_x::Power; }\n"),
    ];
    assert!(orphans(&files).is_empty());
    assert_eq!(orphans(&files[..2]), ["crates/x/src/lib.rs:1"]);
}

#[test]
fn a_module_declared_under_cfg_test_is_exempt() {
    let files = [
        ("crates/x/src/lib.rs", "#[cfg(test)]\nmod fixtures;\n"),
        ("crates/x/src/fixtures.rs", "pub fn sample() {}\n"),
    ];
    assert!(orphans(&files).is_empty());
}

#[test]
fn binary_self_test_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_mgopt_lint"))
        .args(["--self-test", "--fixtures"])
        .arg(fixtures_root())
        .output()
        .expect("run mgopt_lint");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_exit_codes_distinguish_clean_from_dirty() {
    let dirty = Command::new(env!("CARGO_BIN_EXE_mgopt_lint"))
        .arg("--dir")
        .arg(fixtures_root().join("r5_unsafe/bad"))
        .output()
        .expect("run mgopt_lint");
    assert_eq!(dirty.status.code(), Some(1));
    let clean = Command::new(env!("CARGO_BIN_EXE_mgopt_lint"))
        .arg("--dir")
        .arg(fixtures_root().join("r5_unsafe/good"))
        .output()
        .expect("run mgopt_lint");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    // The inventory lists the documented unsafe site even on a clean run.
    assert!(String::from_utf8_lossy(&clean.stdout).contains("SAFETY comment: yes"));
}

#[test]
fn the_workspace_itself_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_mgopt_lint"))
        .args(["--json", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run mgopt_lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace not lint-clean:\n{stdout}"
    );
    assert!(stdout.contains(r#""clean":true"#));
}
