//! Rule `determinism`: no wall-clock time, no unseeded entropy, no
//! hash-order-dependent iteration in the simulated-time crates.
//!
//! The paper's UDC/LDC comparisons — and the chaos harness's
//! `(seed, crash point)` replay recipes — are only meaningful if every
//! nanosecond and every random draw flows from the `ldc-ssd` virtual
//! clock and explicit seeds. Scope: non-test code in `ssd`, `lsm`,
//! `core`, `chaos`, `workload`. Shims and `bench` are exempt (the
//! `ycsb-net` open loop legitimately measures host time; the
//! `determinism_taint` rule keeps it out of the compared outputs).

use crate::diag::Diagnostic;
use crate::lexer::{token_positions, SourceView};

/// Stable rule id.
pub const RULE: &str = "determinism";

/// Crates whose `src/` must be deterministic.
pub const SCOPED_CRATES: &[&str] = &["ssd", "lsm", "core", "chaos", "workload"];

/// Forbidden tokens and the fix to suggest.
const FORBIDDEN: &[(&str, &str)] = &[
    (
        "Instant::now",
        "use the ldc-ssd virtual clock (`device.clock().now()`) so time is simulated",
    ),
    (
        "SystemTime",
        "wall-clock time breaks virtual-time determinism; thread `ldc_ssd::Nanos` through instead",
    ),
    (
        "std::time",
        "only virtual time is allowed here; use `ldc_ssd::Nanos` / the device clock",
    ),
    (
        "thread_rng",
        "seed explicitly: `SmallRng::seed_from_u64(<config seed>)`",
    ),
    (
        "from_entropy",
        "seed explicitly: `SmallRng::seed_from_u64(<config seed>)`",
    ),
    (
        "rand::random",
        "draw from a seeded `SmallRng` owned by the caller",
    ),
    (
        "RandomState",
        "the default hasher is seeded per-process; use `BTreeMap` or a fixed-order structure",
    ),
    (
        "Utc::now",
        "wall-clock dates are nondeterministic; pass timestamps in explicitly",
    ),
    (
        "Local::now",
        "wall-clock dates are nondeterministic; pass timestamps in explicitly",
    ),
];

/// Chained-consumer names that make HashMap iteration order-insensitive.
const ORDER_INSENSITIVE: &[&str] = &[
    ".sum()",
    ".count()",
    ".min()",
    ".max()",
    ".min_by_key(",
    ".max_by_key(",
    ".min_by(",
    ".max_by(",
    ".any(",
    ".all(",
    "sort",     // `.sort()`, `.sort_unstable_by_key(...)` on the collected Vec
    "BTreeMap", // re-collected into an ordered map
    "BTreeSet",
    "BinaryHeap",
];

/// Is `path` (workspace-relative, `/`-separated) in this rule's scope?
pub fn in_scope(path: &str) -> bool {
    SCOPED_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Checks one file. `path` is workspace-relative.
pub fn check_file(path: &str, view: &SourceView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &(needle, fix) in FORBIDDEN {
        for at in token_positions(&view.code, needle) {
            if needle == "std::time" {
                // `std::time::Duration` is a plain value type and is fine.
                if view.code[at..].starts_with("std::time::Duration") {
                    continue;
                }
            }
            let line = view.line_of(at);
            if view.is_test_line(line) || view.is_suppressed(line, RULE) {
                continue;
            }
            out.push(Diagnostic::error(
                path,
                line,
                RULE,
                format!("forbidden nondeterminism source `{needle}`"),
                fix,
            ));
        }
    }
    out.extend(check_hashmap_iteration(path, view));
    out
}

/// Flags iteration over identifiers declared as `HashMap` in this file
/// unless the chain feeds an order-insensitive consumer or is sorted
/// immediately afterwards.
fn check_hashmap_iteration(path: &str, view: &SourceView) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let names = hashmap_names(&view.code);
    for name in &names {
        for at in token_positions(&view.code, name) {
            let Some(iter_end) = iteration_call_end(&view.code, at + name.len()) else {
                continue;
            };
            let line = view.line_of(at);
            if view.is_test_line(line) || view.is_suppressed(line, RULE) {
                continue;
            }
            let window_end = (iter_end + 250).min(view.code.len());
            let window = &view.code[iter_end..window_end];
            if ORDER_INSENSITIVE.iter().any(|c| window.contains(c)) {
                continue;
            }
            out.push(Diagnostic::error(
                path,
                line,
                RULE,
                format!("iteration over `HashMap` `{name}` feeds an order-sensitive path"),
                "sort the collected result, use a BTreeMap, or suppress with \
                 `// ldc-lint: allow(determinism) — <why order cannot leak>`",
            ));
        }
    }
    out
}

/// Identifiers declared with a `HashMap` type (fields, lets, or
/// `= HashMap::new()` initialisers) anywhere in the file.
fn hashmap_names(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for at in token_positions(code, "HashMap") {
        // Look back to the start of the declaration (`;`, `{`, `(`, `,`).
        let stmt_start = code[..at]
            .rfind([';', '{', '(', ','])
            .map(|p| p + 1)
            .unwrap_or(0);
        let prefix = &code[stmt_start..at];
        // `name : [wrappers<] HashMap <` or `let [mut] name ... = HashMap::new`
        let Some(colon_or_eq) = prefix.find([':', '=']) else {
            continue;
        };
        let head = prefix[..colon_or_eq].trim();
        let name = head
            .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("");
        if !name.is_empty()
            && name != "mut"
            && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
            && !names.iter().any(|n| n == name)
        {
            names.push(name.to_string());
        }
    }
    names
}

/// If the code after an identifier is a (possibly chained) call ending in
/// `.iter()`, `.keys()`, `.values()`, `.drain()`, or `.into_iter()`, the
/// return value is the offset just past that call's `(`; otherwise `None`.
/// Accepts up to two plain accessor calls in between (e.g.
/// `files.read().keys()`).
fn iteration_call_end(code: &str, mut pos: usize) -> Option<usize> {
    const ITERS: &[&str] = &["iter", "keys", "values", "drain", "into_iter", "iter_mut"];
    let bytes = code.as_bytes();
    for _hop in 0..3 {
        // Expect `.` (skipping whitespace).
        while bytes.get(pos).is_some_and(|b| b.is_ascii_whitespace()) {
            pos += 1;
        }
        if bytes.get(pos) != Some(&b'.') {
            return None;
        }
        pos += 1;
        while bytes.get(pos).is_some_and(|b| b.is_ascii_whitespace()) {
            pos += 1;
        }
        let start = pos;
        while bytes
            .get(pos)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            pos += 1;
        }
        let method = &code[start..pos];
        while bytes.get(pos).is_some_and(|b| b.is_ascii_whitespace()) {
            pos += 1;
        }
        if bytes.get(pos) != Some(&b'(') {
            return None; // field access or something else
        }
        // Skip to the matching `)` (iteration methods take no nested parens
        // in practice; accessors like `.read()` are empty).
        let mut depth = 0usize;
        while pos < bytes.len() {
            match bytes[pos] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        pos += 1;
                        break;
                    }
                }
                _ => {}
            }
            pos += 1;
        }
        if ITERS.contains(&method) {
            return Some(pos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        check_file("crates/lsm/src/x.rs", &SourceView::new(src))
    }

    #[test]
    fn flags_wall_clock_and_entropy() {
        let d = run("fn f() { let t = Instant::now(); let r = thread_rng(); }");
        assert_eq!(d.len(), 2);
        assert!(d[0].message.contains("Instant::now"));
    }

    #[test]
    fn duration_is_allowed() {
        assert!(run("fn f(d: std::time::Duration) {}").is_empty());
        assert_eq!(run("fn f() { std::time::SystemTime::now(); }").len(), 2);
    }

    #[test]
    fn test_code_and_suppressions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { Instant::now(); } }\n";
        assert!(run(src).is_empty());
        let src = "// ldc-lint: allow(determinism) — fixture clock\nfn f() { Instant::now(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn hashmap_iteration_flagged_unless_order_insensitive() {
        let src = "struct S { map: HashMap<u64, u32> }\nfn f(s: &S) { for k in s.map.keys() { emit(k); } }\n";
        assert_eq!(run(src).len(), 1);
        let ok = "struct S { map: HashMap<u64, u32> }\nfn g(s: &S) -> u64 { s.map.values().map(|v| *v as u64).sum() }\n";
        assert!(run(ok).is_empty());
        let sorted = "struct S { map: HashMap<u64, u32> }\nfn h(s: &S) { let mut v: Vec<_> = s.map.keys().collect(); v.sort(); }\n";
        assert!(run(sorted).is_empty());
    }
}
