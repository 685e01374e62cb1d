//! Proves the line-level rules against a fixture crate with seeded
//! violations, self-checks that the real workspace lints clean, and pins
//! the workspace lint configuration that carries the rules clippy took
//! over from this engine.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::{
    lint_workspace, workspace_crates, LintError, Rule, CLIPPY_LINTS, DETERMINISTIC_CRATES,
};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tainted")
}

fn real_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every seeded violation is reported with its exact rule, file, and
/// line — and nothing else is.
#[test]
fn fixtures_yield_exact_diagnostics() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let got: Vec<(&str, String, usize)> = diags
        .iter()
        .map(|d| (d.rule.code(), d.file.display().to_string(), d.line))
        .collect();

    let want: Vec<(&str, String, usize)> = [
        // badproto: a ReadOnlyProtocol impl with no conformance evidence …
        ("L4/conformance", "crates/badproto/src/lib.rs", 9),
        // … an annotation naming no rule, and one naming a rule that
        // clippy carries now.
        ("L0/annotation", "crates/badproto/src/lib.rs", 14),
        ("L0/annotation", "crates/badproto/src/lib.rs", 15),
    ]
    .into_iter()
    .map(|(r, f, l)| (r, f.to_string(), l))
    .collect();

    assert_eq!(
        got,
        want,
        "diagnostics mismatch; full output:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Diagnostics render as `CODE file:line — message` (what CI greps for).
#[test]
fn diagnostic_display_format() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let conformance = diags
        .iter()
        .find(|d| d.rule == Rule::Conformance)
        .expect("fixture seeds an L4 finding");
    let rendered = conformance.to_string();
    assert!(
        rendered.starts_with("L4/conformance crates/badproto/src/lib.rs:9 — "),
        "unexpected rendering: {rendered}"
    );
    assert!(
        rendered.contains("`Widget` implements ReadOnlyProtocol"),
        "{rendered}"
    );
}

/// The real workspace satisfies its own rule catalog — the same check CI
/// runs via `cargo xtask lint`.
#[test]
fn real_workspace_is_clean() {
    let root = real_root();
    let crates = workspace_crates(&root).expect("workspace enumerates");
    assert!(
        crates.len() >= 10,
        "expected the full crate set, got {:?}",
        crates.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    let diags = lint_workspace(&root).expect("workspace lints");
    assert!(
        diags.is_empty(),
        "the workspace must lint clean:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A root without a `crates/` directory is a structural error, not an
/// empty result.
#[test]
fn missing_workspace_is_an_error() {
    let bogus = fixture_root().join("crates").join("badproto");
    match lint_workspace(&bogus) {
        Err(LintError::Io { .. } | LintError::NotAWorkspace(_)) => {}
        other => panic!("expected a structural error, got {other:?}"),
    }
}

/// Whether the `[header]` table of a TOML file has the line `entry`.
fn toml_has(text: &str, header: &str, entry: &str) -> bool {
    let table = text
        .split_once(&format!("\n[{header}]\n"))
        .map_or("", |(_, rest)| rest.split("\n[").next().unwrap_or(rest));
    table.lines().any(|l| l.trim() == entry)
}

/// The rules clippy carries in place of the deleted text-needle rules
/// are pinned: every replacement lint is at `deny`, every banned path is
/// listed, every crate inherits the workspace lints (which also carry
/// the `unsafe_code`/`missing_docs` crate attributes), and no
/// deterministic crate opts out at its root.
#[test]
fn workspace_lint_config_carries_the_clippy_rules() {
    let root = real_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let denied = CLIPPY_LINTS
        .iter()
        .map(|l| l.trim_start_matches("clippy::"));
    for lint in denied.chain(["allow_attributes_without_reason"]) {
        let entry = format!("{lint} = \"deny\"");
        assert!(
            toml_has(&manifest, "workspace.lints.clippy", &entry),
            "missing `{entry}`"
        );
    }
    for entry in ["unsafe_code = \"forbid\"", "missing_docs = \"deny\""] {
        assert!(
            toml_has(&manifest, "workspace.lints.rust", entry),
            "missing `{entry}`"
        );
    }

    let clippy = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let banned = |key: &str, path: &str| {
        let list = clippy
            .split_once(&format!("{key} = ["))
            .map_or("", |(_, l)| l);
        list[..list.find("\n]").unwrap_or(0)].contains(&format!("path = \"{path}\""))
    };
    for path in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            banned("disallowed-methods", path),
            "`{path}` must be disallowed"
        );
    }
    for path in ["HashMap", "HashSet"].map(|t| format!("std::collections::{t}")) {
        assert!(
            banned("disallowed-types", &path),
            "`{path}` must be disallowed"
        );
    }
    for path in ["std::sync::Mutex", "std::sync::RwLock"] {
        assert!(
            banned("disallowed-types", path),
            "`{path}` must be disallowed"
        );
    }

    for (name, dir) in workspace_crates(&root).expect("workspace enumerates") {
        let cargo = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        assert!(
            toml_has(&cargo, "lints", "workspace = true"),
            "crates/{name}/Cargo.toml must inherit the workspace lints"
        );
        if !DETERMINISTIC_CRATES.contains(&name.as_str()) {
            continue;
        }
        for file in ["lib.rs", "main.rs"].map(|f| dir.join("src").join(f)) {
            let text = fs::read_to_string(&file).unwrap_or_default();
            for (at, _) in text.match_indices("#![") {
                let attr = &text[at..text[at..].find(']').map_or(text.len(), |e| at + e)];
                let named: Vec<_> = CLIPPY_LINTS.iter().filter(|l| attr.contains(**l)).collect();
                assert!(named.is_empty(), "{} opts out of {named:?}", file.display());
            }
        }
    }
}
