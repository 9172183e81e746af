//! The four rule families. Each rule exposes a stable `RULE` id (used in
//! diagnostics and in `// ldc-lint: allow(<rule>)` suppressions) and a
//! pure check function over lexed [`crate::lexer::SourceView`]s.

pub mod determinism;
pub mod layering;
pub mod lock_order;
pub mod must_use;
pub mod panic_safety;
pub mod taint;

/// Does a rule's scope list cover `path` (both workspace-relative)? An
/// entry names one file, or — ending in `/` — every file under a module
/// directory except `tests.rs`, the module's out-of-line `#[cfg(test)]`
/// half (the lexer marks test code per file and cannot see the `mod`
/// declaration's attribute).
pub(crate) fn scoped(entries: &[&str], path: &str) -> bool {
    entries.iter().any(|entry| match entry.strip_suffix('/') {
        Some(_) => path.starts_with(entry) && !path.ends_with("/tests.rs"),
        None => *entry == path,
    })
}
