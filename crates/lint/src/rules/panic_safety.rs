//! Rule `panic_safety`: the production I/O and recovery paths must not
//! panic — corruption and I/O failure are *expected* inputs there and
//! must surface as `Result`/`Error::Corruption`, not process death.
//!
//! Existing debt is recorded in a committed baseline
//! (`crates/lint/baseline_panic.txt`) and may only shrink: a file whose
//! count rises above its baseline fails the lint; a file that improves
//! produces an advisory asking for the baseline to be tightened
//! (`ldc-lint --workspace --update-baseline` regenerates it).

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::lexer::SourceView;

/// Stable rule id.
pub const RULE: &str = "panic_safety";

/// Files (or, ending in `/`, module directories) on the production I/O /
/// recovery path, workspace-relative.
pub const SCOPED_FILES: &[&str] = &[
    "crates/lsm/src/wal.rs",
    "crates/lsm/src/version.rs",
    "crates/lsm/src/version/",
    "crates/lsm/src/db.rs",
    "crates/lsm/src/db/",
    "crates/lsm/src/scheduler.rs",
    "crates/lsm/src/compaction/exec.rs",
    "crates/lsm/src/cache.rs",
    "crates/lsm/src/table/mod.rs",
    "crates/lsm/src/table/builder.rs",
    "crates/lsm/src/table/reader.rs",
    "crates/lsm/src/retry.rs",
    "crates/lsm/src/scrub.rs",
    "crates/lsm/src/repair.rs",
    "crates/ssd/src/disk.rs",
    "crates/ssd/src/storage.rs",
    "crates/server/src/server.rs",
    "crates/client/src/client.rs",
];

/// Panicking calls flagged in scope.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Per-file counts of the two panic-site categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `unwrap`/`expect`/`panic!`-family sites.
    pub panics: usize,
    /// Slice/array index expressions (`x[i]`, `x[a..b]`) — each one is an
    /// implicit bounds-check panic.
    pub indexes: usize,
}

/// The committed ratchet: file → allowed counts.
pub type Baseline = BTreeMap<String, Counts>;

/// Is `path` (workspace-relative) in this rule's scope?
pub fn in_scope(path: &str) -> bool {
    super::scoped(SCOPED_FILES, path)
}

/// Counts non-test, non-suppressed panic sites in one file, returning the
/// counts and the line of each site (for reporting un-baselined files).
pub fn count_sites(view: &SourceView) -> (Counts, Vec<(usize, String)>) {
    let mut counts = Counts::default();
    let mut sites = Vec::new();
    for &tok in PANIC_TOKENS {
        let mut from = 0;
        while let Some(rel) = view.code[from..].find(tok) {
            let at = from + rel;
            from = at + tok.len();
            let line = view.line_of(at);
            if view.is_test_line(line) || view.is_suppressed(line, RULE) {
                continue;
            }
            counts.panics += 1;
            sites.push((
                line,
                format!("panicking call `{}`", tok.trim_matches(['.', '('])),
            ));
        }
    }
    for at in index_sites(&view.code) {
        let line = view.line_of(at);
        if view.is_test_line(line) || view.is_suppressed(line, RULE) {
            continue;
        }
        counts.indexes += 1;
        sites.push((
            line,
            "index expression (implicit bounds-check panic)".to_string(),
        ));
    }
    (counts, sites)
}

/// Offsets of `[` tokens that begin an index expression: the previous
/// non-space character is an identifier character, `)` or `]`, and not a
/// macro bang. Type positions (`&[u8]`, and `&'a [u8]`, where the word
/// before the bracket is a lifetime), array literals (`[0u8; 4]`),
/// attributes (`#[...]`) and `vec![...]` never match.
fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let mut j = i;
        while j > 0 {
            j -= 1;
            let p = bytes[j];
            if p.is_ascii_whitespace() {
                continue;
            }
            let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
            let lifetime = word(p) && bytes[..j].iter().rev().find(|&&c| !word(c)) == Some(&b'\'');
            if (word(p) && !lifetime) || p == b')' || p == b']' {
                out.push(i);
            }
            break;
        }
    }
    out
}

/// Checks every in-scope file against the baseline. `files` maps a
/// workspace-relative path to its lexed view.
pub fn check(files: &[(String, SourceView)], baseline: &Baseline) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (path, view) in files {
        if !in_scope(path) {
            continue;
        }
        let (counts, sites) = count_sites(view);
        let allowed = baseline.get(path).copied();
        match allowed {
            Some(allowed) => {
                if counts.panics > allowed.panics {
                    out.push(Diagnostic::error(
                        path,
                        0,
                        RULE,
                        format!(
                            "panic-site ratchet violated: {} unwrap/expect/panic! sites, baseline allows {}",
                            counts.panics, allowed.panics
                        ),
                        "convert the new sites to `Result`/`Error::Corruption` (or suppress each \
                         with `// ldc-lint: allow(panic_safety) — <invariant>`); the baseline only \
                         ratchets down",
                    ));
                }
                if counts.indexes > allowed.indexes {
                    out.push(Diagnostic::error(
                        path,
                        0,
                        RULE,
                        format!(
                            "index-site ratchet violated: {} index expressions, baseline allows {}",
                            counts.indexes, allowed.indexes
                        ),
                        "use `.get(..)`/`.get_mut(..)` and surface a Corruption error on miss",
                    ));
                }
                if counts.panics < allowed.panics || counts.indexes < allowed.indexes {
                    out.push(Diagnostic::info(
                        path,
                        0,
                        RULE,
                        format!(
                            "baseline is stale ({} panics / {} indexes recorded, {} / {} found)",
                            allowed.panics, allowed.indexes, counts.panics, counts.indexes
                        ),
                        "run `cargo run -p ldc-lint -- --workspace --update-baseline` to lock in \
                         the improvement",
                    ));
                }
            }
            None => {
                // No debt allowance: every site is an error.
                for (line, what) in sites {
                    out.push(Diagnostic::error(
                        path,
                        line,
                        RULE,
                        format!("{what} on the production I/O path"),
                        "return `Result` (use `Error::Corruption` for malformed on-disk data) or \
                         suppress with `// ldc-lint: allow(panic_safety) — <invariant>`",
                    ));
                }
            }
        }
    }
    // Baseline entries whose file left scope or disappeared.
    for path in baseline.keys() {
        if !files.iter().any(|(p, _)| p == path) {
            out.push(Diagnostic::info(
                path,
                0,
                RULE,
                "baseline entry has no matching file",
                "remove the entry (or run --update-baseline)",
            ));
        }
    }
    out
}

/// Serialises a baseline in the committed format.
pub fn format_baseline(b: &Baseline) -> String {
    let mut out = String::from(
        "# ldc-lint panic-safety baseline — existing debt on the production I/O paths.\n\
         # Counts may only go DOWN. Regenerate with:\n\
         #   cargo run -p ldc-lint -- --workspace --update-baseline\n",
    );
    for (path, c) in b {
        if c.panics > 0 || c.indexes > 0 {
            out.push_str(&format!(
                "{path} panics={} indexes={}\n",
                c.panics, c.indexes
            ));
        }
    }
    out
}

/// Parses the committed baseline format. Unknown lines are errors so the
/// ratchet cannot be silently defeated by a malformed file.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut out = Baseline::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let path = parts
            .next()
            .ok_or(format!("baseline line {}: empty", i + 1))?;
        let mut counts = Counts::default();
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or(format!("baseline line {}: bad field `{kv}`", i + 1))?;
            let v: usize = v
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{v}`", i + 1))?;
            match k {
                "panics" => counts.panics = v,
                "indexes" => counts.indexes = v,
                _ => return Err(format!("baseline line {}: unknown field `{k}`", i + 1)),
            }
        }
        out.insert(path.to_string(), counts);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(src: &str) -> SourceView {
        SourceView::new(src)
    }

    #[test]
    fn scope_takes_files_and_module_directories() {
        assert!(in_scope("crates/lsm/src/db.rs"));
        assert!(in_scope("crates/lsm/src/db/open.rs"));
        assert!(in_scope("crates/lsm/src/scheduler.rs"));
        assert!(!in_scope("crates/lsm/src/db/tests.rs"));
        assert!(!in_scope("crates/lsm/src/memtable.rs"));
    }

    #[test]
    fn counts_panics_and_indexes_outside_tests() {
        let src = "fn f(v: &[u8]) -> u8 { let x = v[0]; maybe().unwrap(); panic!(\"no\"); x }\n\
                   #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n";
        let (c, _) = count_sites(&view(src));
        assert_eq!(c.panics, 2);
        assert_eq!(c.indexes, 1);
    }

    #[test]
    fn type_and_literal_brackets_are_not_indexing() {
        let src = "fn f(a: &[u8], b: [u8; 4]) { let v = vec![1]; let _ = (a, b, v); }";
        let (c, _) = count_sites(&view(src));
        assert_eq!(c.indexes, 0);
        // A lifetime before the bracket is a type position; a plain word is not.
        let src = "struct S<'a> { f: &'a [u8] } fn f<'b>(b: &'b [u8]) -> u8 { b[0] }";
        let (c, _) = count_sites(&view(src));
        assert_eq!(c.indexes, 1);
    }

    #[test]
    fn ratchet_up_fails_down_informs() {
        let path = "crates/lsm/src/wal.rs".to_string();
        let files = vec![(path.clone(), view("fn f() { a.unwrap(); b.unwrap(); }"))];
        let mut b = Baseline::new();
        b.insert(
            path.clone(),
            Counts {
                panics: 1,
                indexes: 0,
            },
        );
        let d = check(&files, &b);
        assert!(d.iter().any(|d| d.message.contains("ratchet violated")));
        b.insert(
            path,
            Counts {
                panics: 5,
                indexes: 0,
            },
        );
        let d = check(&files, &b);
        assert!(d.iter().all(|d| d.severity == crate::diag::Severity::Info));
    }

    #[test]
    fn unbaselined_file_reports_each_site() {
        let files = vec![(
            "crates/lsm/src/cache.rs".to_string(),
            view("fn f() { a.expect(\"x\"); }"),
        )];
        let d = check(&files, &Baseline::new());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn baseline_roundtrip() {
        let mut b = Baseline::new();
        b.insert(
            "crates/lsm/src/db.rs".into(),
            Counts {
                panics: 3,
                indexes: 7,
            },
        );
        let text = format_baseline(&b);
        assert_eq!(parse_baseline(&text).unwrap(), b);
        assert!(parse_baseline("garbage line here").is_err());
    }
}
