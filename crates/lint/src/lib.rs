//! `ldc-lint` — dependency-free static analysis for the LDC workspace.
//!
//! Six rule families guard the invariants the paper reproduction depends
//! on (see `crates/lint/src/rules/`):
//!
//! | rule id             | invariant                                               |
//! |---------------------|---------------------------------------------------------|
//! | `determinism`       | no wall-clock / entropy / hash-order in simulated code  |
//! | `determinism_taint` | host-derived values never flow into deterministic sinks |
//! | `panic_safety`      | production I/O paths return `Result`, ratcheted debt    |
//! | `lock_order`        | acquisitions follow `crates/lint/lock_order.toml` ranks |
//! | `must_use_result`   | storage-tier `Result`s are never silently discarded     |
//! | `layering`          | crate deps respect obs <- ssd <- lsm <- core <- tools   |
//!
//! `determinism_taint`, `must_use_result`, and `lock_order` run over a
//! workspace-wide symbol table and approximate call graph
//! ([`parse`]/[`graph`]); the rest are per-file token passes. The lock
//! table is shared with the runtime sanitizer (`ldc_obs::lockcheck`), so
//! the static hierarchy and the dynamic witness ranks cannot drift.
//!
//! Run as a binary (`cargo run -p ldc-lint -- --workspace`) or through the
//! root `tests/lint_gate.rs` integration test that gates `cargo test`.
//! Violations carry `file:line`, the rule id, and a concrete suggestion;
//! intentional exceptions are written as
//! `// ldc-lint: allow(<rule>) — <reason>` (an empty reason is inert).

use std::fs;
use std::path::{Path, PathBuf};

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use diag::{Diagnostic, Severity};
use lexer::SourceView;
use rules::panic_safety::Baseline;

/// Where the panic-safety ratchet lives, workspace-relative.
pub const BASELINE_PATH: &str = "crates/lint/baseline_panic.txt";

/// Outcome of a workspace lint run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, sorted by file, line, rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files lexed.
    pub files_scanned: usize,
    /// Regenerated baseline text (only when requested).
    pub new_baseline: Option<String>,
}

impl Report {
    /// True when no error-severity findings exist.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

/// Lints the workspace rooted at `root` (the directory holding the top
/// `Cargo.toml`). Set `update_baseline` to regenerate the panic ratchet
/// from current counts instead of checking against it.
pub fn lint_workspace(root: &Path, update_baseline: bool) -> Result<Report, String> {
    // 1. Collect sources: `crates/*/src/**/*.rs`, shims excluded.
    let mut files: Vec<(String, SourceView)> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "shims"))
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for path in rust_files(&src)? {
            let rel = workspace_rel(root, &path);
            let text = fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
            files.push((rel, SourceView::new(&text)));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));

    let mut diagnostics = Vec::new();

    // 2. determinism + layering source checks (per file).
    for (path, view) in &files {
        if rules::determinism::in_scope(path) {
            diagnostics.extend(rules::determinism::check_file(path, view));
        }
        diagnostics.extend(rules::layering::check_source(path, view));
    }

    // 3. layering manifest checks.
    for dir in &crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest_path) {
            let rel = workspace_rel(root, &manifest_path);
            diagnostics.extend(rules::layering::check_manifest(&rel, &text));
        }
    }

    // 4. panic-safety ratchet.
    let baseline_file = root.join(BASELINE_PATH);
    let baseline: Baseline = if update_baseline {
        Baseline::new() // not consulted below
    } else {
        let text = fs::read_to_string(&baseline_file)
            .map_err(|e| format!("reading {BASELINE_PATH}: {e} (run --update-baseline once)"))?;
        rules::panic_safety::parse_baseline(&text)?
    };
    let new_baseline = if update_baseline {
        let mut b = Baseline::new();
        for (path, view) in &files {
            if rules::panic_safety::in_scope(path) {
                let (counts, _) = rules::panic_safety::count_sites(view);
                b.insert(path.clone(), counts);
            }
        }
        Some(rules::panic_safety::format_baseline(&b))
    } else {
        diagnostics.extend(rules::panic_safety::check(&files, &baseline));
        None
    };

    // 5. workspace-graph rules: lock order (needs the shared lock table),
    // determinism taint, must-use.
    let ws = graph::Workspace::build(&files);
    match fs::read_to_string(root.join(rules::lock_order::TABLE_PATH)) {
        Ok(table) => diagnostics.extend(rules::lock_order::check(&ws, &files, &table)),
        Err(e) => diagnostics.push(Diagnostic::error(
            rules::lock_order::TABLE_PATH,
            0,
            rules::lock_order::RULE,
            format!("cannot read the lock table: {e}"),
            "restore crates/lint/lock_order.toml — the runtime sanitizer embeds it too",
        )),
    }

    diagnostics.extend(rules::taint::check(&ws, &files));
    diagnostics.extend(rules::must_use::check(&ws, &files));

    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
        new_baseline,
    })
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("reading {}: {e}", d.display()))?;
        for entry in entries.filter_map(|e| e.ok()) {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `root`-relative path with `/` separators.
fn workspace_rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor containing both `Cargo.toml` and `crates/`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint must pass over the real workspace — this is the same gate
    /// CI runs, kept here so `cargo test -p ldc-lint` catches regressions
    /// without the binary.
    #[test]
    fn real_workspace_is_clean() {
        let root =
            find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let report = lint_workspace(&root, false).expect("lint runs");
        let errors: Vec<String> = report.errors().map(|d| d.render()).collect();
        assert!(errors.is_empty(), "lint errors:\n{}", errors.join("\n"));
        assert!(report.files_scanned > 20, "suspiciously few files scanned");
    }

    /// `--update-baseline` output must parse back and match current counts.
    #[test]
    fn baseline_regeneration_roundtrips() {
        let root =
            find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let report = lint_workspace(&root, true).expect("lint runs");
        let text = report.new_baseline.expect("baseline generated");
        let parsed = rules::panic_safety::parse_baseline(&text).expect("parses");
        let committed = std::fs::read_to_string(root.join(BASELINE_PATH)).expect("committed");
        let committed = rules::panic_safety::parse_baseline(&committed).expect("parses");
        for (path, counts) in &parsed {
            let allowed = committed.get(path).copied().unwrap_or_default();
            assert!(
                counts.panics <= allowed.panics && counts.indexes <= allowed.indexes,
                "{path}: counts {counts:?} exceed committed baseline {allowed:?}"
            );
        }
    }
}
