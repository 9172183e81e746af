//! Fixture-driven tests: one failing and one passing snippet per rule
//! family, exercising the public rule APIs exactly as `lint_workspace`
//! does. The snippets live in `tests/fixtures/` so they double as
//! documentation of what each rule accepts and rejects.

use ldc_lint::graph::Workspace;
use ldc_lint::lexer::SourceView;
use ldc_lint::rules::{determinism, layering, lock_order, panic_safety, taint};
use ldc_lint::Severity;

fn errors_of(diags: &[ldc_lint::Diagnostic]) -> Vec<&ldc_lint::Diagnostic> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

#[test]
fn determinism_fixture_fail() {
    let view = SourceView::new(include_str!("fixtures/determinism_fail.rs"));
    let diags = determinism::check_file("crates/lsm/src/fixture.rs", &view);
    let errs = errors_of(&diags);
    assert_eq!(errs.len(), 4, "{diags:?}"); // use std::time, Instant::now, rand::random, HashMap iter
    assert!(errs.iter().any(|d| d.message.contains("Instant::now")));
    assert!(errs.iter().any(|d| d.message.contains("rand::random")));
    assert!(errs.iter().any(|d| d.message.contains("HashMap")));
    // Out-of-scope crates are untouched (bench may measure host time).
    assert!(
        determinism::check_file("crates/bench/src/fixture.rs", &view).is_empty()
            || !determinism::in_scope("crates/bench/src/fixture.rs")
    );
}

#[test]
fn determinism_fixture_pass() {
    let view = SourceView::new(include_str!("fixtures/determinism_pass.rs"));
    let diags = determinism::check_file("crates/lsm/src/fixture.rs", &view);
    assert!(errors_of(&diags).is_empty(), "{diags:?}");
}

#[test]
fn panic_safety_fixture_fail() {
    let view = SourceView::new(include_str!("fixtures/panic_safety_fail.rs"));
    let (counts, sites) = panic_safety::count_sites(&view);
    assert_eq!(counts.panics, 3, "{sites:?}");
    assert_eq!(counts.indexes, 1, "{sites:?}");
    // With no baseline entry, every site is an error.
    let files = vec![("crates/lsm/src/wal.rs".to_string(), view)];
    let diags = panic_safety::check(&files, &panic_safety::Baseline::new());
    assert_eq!(errors_of(&diags).len(), 4, "{diags:?}");
}

#[test]
fn panic_safety_fixture_pass() {
    let view = SourceView::new(include_str!("fixtures/panic_safety_pass.rs"));
    let (counts, sites) = panic_safety::count_sites(&view);
    assert_eq!(counts.panics, 0, "{sites:?}");
    assert_eq!(counts.indexes, 0, "{sites:?}"); // the one index is suppressed with a reason
}

#[test]
fn panic_safety_ratchet_blocks_regressions() {
    let view = SourceView::new(include_str!("fixtures/panic_safety_fail.rs"));
    let files = vec![("crates/lsm/src/wal.rs".to_string(), view)];
    let mut tight = panic_safety::Baseline::new();
    tight.insert(
        "crates/lsm/src/wal.rs".to_string(),
        panic_safety::Counts {
            panics: 2,
            indexes: 1,
        },
    );
    let diags = panic_safety::check(&files, &tight);
    assert!(
        diags.iter().any(|d| d.message.contains("ratchet violated")),
        "{diags:?}"
    );
}

const DESIGN: &str = "[[lock]]\nid = \"lsm/db::tables\"\nrank = 10\n\n\
                      [[lock]]\nid = \"lsm/cache::inner\"\nrank = 20\n\n\
                      [[lock]]\nid = \"obs/metrics::levels\"\nrank = 30\n";
const DB_DECL: &str = "struct Db { tables: Mutex<u32> }\n";
const METRICS_DECL: &str = "struct Metrics { levels: Mutex<u32> }\n";

fn lock_order_run(cache_src: &str) -> Vec<ldc_lint::Diagnostic> {
    let files = vec![
        ("crates/lsm/src/db.rs".to_string(), SourceView::new(DB_DECL)),
        (
            "crates/lsm/src/cache.rs".to_string(),
            SourceView::new(cache_src),
        ),
        ("crates/obs/src/sink.rs".to_string(), SourceView::new("")),
        (
            "crates/obs/src/metrics.rs".to_string(),
            SourceView::new(METRICS_DECL),
        ),
    ];
    lock_order::check(&Workspace::build(&files), &files, DESIGN)
}

#[test]
fn lock_order_fixture_fail() {
    let diags = lock_order_run(include_str!("fixtures/lock_order_fail.rs"));
    let errs = errors_of(&diags);
    assert!(
        errs.iter()
            .any(|d| d.message.contains("violates the declared order")),
        "{diags:?}"
    );
    assert!(
        errs.iter().any(|d| d.message.contains("re-entrant")),
        "{diags:?}"
    );
}

#[test]
fn lock_order_fixture_pass() {
    let diags = lock_order_run(include_str!("fixtures/lock_order_pass.rs"));
    assert!(errors_of(&diags).is_empty(), "{diags:?}");
}

#[test]
fn lock_order_resolves_callees_by_qualifier() {
    let diags = lock_order_run(include_str!("fixtures/lock_order_qualified.rs"));
    let lines: Vec<usize> = errors_of(&diags).iter().map(|d| d.line).collect();
    assert_eq!(
        lines,
        [27],
        "only `self.helper()` is out of order: {diags:?}"
    );
}

#[test]
fn lock_order_lets_temporaries_die_with_their_statement() {
    let diags = lock_order_run(include_str!("fixtures/lock_order_temporaries.rs"));
    let lines: Vec<usize> = errors_of(&diags).iter().map(|d| d.line).collect();
    assert_eq!(
        lines,
        [26],
        "only the borrow-extended guard is re-taken while held: {diags:?}"
    );
}

#[test]
fn layering_fixture_fail() {
    let manifest = include_str!("fixtures/layering_fail.toml");
    let diags = layering::check_manifest("crates/ssd/Cargo.toml", manifest);
    assert_eq!(errors_of(&diags).len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("must not depend on `ldc-lsm`"));

    let view = SourceView::new(include_str!("fixtures/layering_fail.rs"));
    let diags = layering::check_source("crates/lsm/src/compaction.rs", &view);
    assert_eq!(errors_of(&diags).len(), 2, "{diags:?}"); // `use` line + type path use site
}

#[test]
fn layering_fixture_pass() {
    let manifest = include_str!("fixtures/layering_pass.toml");
    assert!(layering::check_manifest("crates/lsm/Cargo.toml", manifest).is_empty());

    let view = SourceView::new(include_str!("fixtures/layering_pass.rs"));
    let diags = layering::check_source("crates/lsm/src/compaction.rs", &view);
    assert!(errors_of(&diags).is_empty(), "{diags:?}");
}

#[test]
fn layering_net_tier_fixture_fail() {
    // Server reaching under the core facade to the engine crate.
    let manifest = include_str!("fixtures/layering_net_fail.toml");
    let diags = layering::check_manifest("crates/server/Cargo.toml", manifest);
    assert_eq!(errors_of(&diags).len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("must not depend on `ldc-lsm`"));

    // Client referencing the server — the arrow must point the other way.
    let view = SourceView::new(include_str!("fixtures/layering_net_fail.rs"));
    let diags = layering::check_source("crates/client/src/client.rs", &view);
    assert_eq!(errors_of(&diags).len(), 2, "{diags:?}"); // `use` line + qualified path
    assert!(diags[0].message.contains("ldc_server"));
}

#[test]
fn layering_net_tier_allowances() {
    // The real dependency direction passes: server -> client/core/obs.
    let ok = "[package]\nname = \"ldc-server\"\n\n[dependencies]\n\
              ldc-obs.workspace = true\nldc-core.workspace = true\n\
              ldc-client.workspace = true\n";
    assert!(layering::check_manifest("crates/server/Cargo.toml", ok).is_empty());
    let view = SourceView::new("use ldc_client::proto::Request;\nuse ldc_core::LdcDb;\n");
    assert!(layering::check_source("crates/server/src/server.rs", &view).is_empty());

    // But the server must use core's re-exports, not the engine directly.
    let bad = SourceView::new("use ldc_lsm::Options;\n");
    let diags = layering::check_source("crates/server/src/server.rs", &bad);
    assert_eq!(errors_of(&diags).len(), 1, "{diags:?}");
}

// Stub declarations for every sink file the taint fixtures reference.
// Paths must match the SINKS table suffixes exactly; each file declares
// all of its table entries so the missing-sink diagnostic stays quiet.
const WAL_STUB: &str = "pub struct LogWriter;\nimpl LogWriter {\n    \
     pub fn add_record(&mut self, payload: &[u8]) -> Result<(), ()> { let _ = payload; Ok(()) }\n    \
     pub fn emit(&mut self, kind: u8, payload: &[u8]) -> Result<(), ()> { let _ = (kind, payload); Ok(()) }\n}\n";
const BUILDER_STUB: &str = "pub struct TableBuilder;\nimpl TableBuilder {\n    \
     pub fn add(&mut self, key: &[u8], value: &[u8]) { let _ = (key, value); }\n    \
     pub fn finish(&mut self) -> u64 { 0 }\n}\n";
const EDIT_STUB: &str = "pub struct VersionEdit;\nimpl VersionEdit {\n    \
     pub fn encode(&self) -> Vec<u8> { Vec::new() }\n}\n";
const SET_STUB: &str = "pub struct VersionSet;\nimpl VersionSet {\n    \
     pub fn log_and_apply(&mut self, seq: u64) { let _ = seq; }\n}\n\
     pub fn write_manifest(number: u64) { let _ = number; }\n";
const CLOCK_STUB: &str = "pub struct VirtualClock;\nimpl VirtualClock {\n    \
     pub fn advance(&self, d: u64) -> u64 { d }\n    \
     pub fn advance_micros(&self, m: u64) -> u64 { m }\n    \
     pub fn rewind_to(&self, t: u64) { let _ = t; }\n}\n";
const PROTO_STUB: &str =
    "pub fn encode_request(id: u64, op: u64) -> Vec<u8> { let _ = (id, op); Vec::new() }\n\
     pub fn encode_response(id: u64) -> Vec<u8> { let _ = id; Vec::new() }\n";
const YCSB_STUB: &str = "pub struct ClosedResult;\nimpl ClosedResult {\n    \
     pub fn json(&self, seed: u64) -> String { let _ = seed; String::new() }\n}\n";

fn taint_run(fixture_src: &str) -> Vec<ldc_lint::Diagnostic> {
    let files: Vec<(String, SourceView)> = vec![
        (
            "crates/lsm/src/wal.rs".to_string(),
            SourceView::new(WAL_STUB),
        ),
        (
            "crates/lsm/src/table/builder.rs".to_string(),
            SourceView::new(BUILDER_STUB),
        ),
        (
            "crates/lsm/src/version/edit.rs".to_string(),
            SourceView::new(EDIT_STUB),
        ),
        (
            "crates/lsm/src/version/set.rs".to_string(),
            SourceView::new(SET_STUB),
        ),
        (
            "crates/ssd/src/clock.rs".to_string(),
            SourceView::new(CLOCK_STUB),
        ),
        (
            "crates/client/src/proto.rs".to_string(),
            SourceView::new(PROTO_STUB),
        ),
        (
            "crates/bench/src/ycsb_net.rs".to_string(),
            SourceView::new(YCSB_STUB),
        ),
        (
            "crates/server/src/fixture.rs".to_string(),
            SourceView::new(fixture_src),
        ),
    ];
    let ws = Workspace::build(&files);
    taint::check(&ws, &files)
}

#[test]
fn taint_fixture_fail_flags_every_sink_class() {
    let diags = taint_run(include_str!("fixtures/taint_fail.rs"));
    let errs = errors_of(&diags);
    assert_eq!(errs.len(), 6, "{diags:?}"); // one flow per sink class
    for class in [
        "wal",
        "sstable",
        "manifest",
        "virtual-clock",
        "wire",
        "bench-json",
    ] {
        assert!(
            errs.iter()
                .any(|d| d.message.contains(&format!("({class})"))),
            "no finding for sink class {class}: {diags:?}"
        );
    }
    // Every finding names the tainted local that flowed in.
    assert!(
        errs.iter()
            .all(|d| d.message.contains("host-derived value")),
        "{diags:?}"
    );
}

#[test]
fn taint_fixture_pass_is_clean() {
    let diags = taint_run(include_str!("fixtures/taint_pass.rs"));
    assert!(errors_of(&diags).is_empty(), "{diags:?}");
}

/// A CPU-feature dispatch under an encoder is a finding unless it carries
/// an `allow` saying why the arms agree: the same fixture is clean as
/// written and reported once the annotation is taken out.
#[test]
fn taint_dispatch_fixture_needs_its_annotation() {
    let run = |src: &str| {
        let files = vec![("crates/lsm/src/wal.rs".to_string(), SourceView::new(src))];
        taint::check(&Workspace::build(&files), &files)
    };
    let annotated = include_str!("fixtures/taint_dispatch.rs");
    let diags = run(annotated);
    assert!(errors_of(&diags).is_empty(), "{diags:?}");

    let bare: String = annotated
        .lines()
        .filter(|l| !l.contains("ldc-lint: allow(determinism_taint)"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(bare, annotated);
    let diags = run(&bare);
    let errs = errors_of(&diags);
    // Once per sink the dispatch sits under (`add_record`, `emit`).
    assert_eq!(errs.len(), 2, "{diags:?}");
    assert!(
        errs.iter().all(|d| d.message.contains("(wal class)")
            && d.message.contains("uses source `is_x86_feature_detected`")),
        "{diags:?}"
    );
}

#[test]
fn json_output_is_parseable_shape() {
    let d = ldc_lint::Diagnostic::error(
        "crates/lsm/src/db.rs",
        42,
        "determinism",
        "forbidden \"token\"",
        "use the virtual clock",
    );
    let j = d.to_json();
    assert!(j.starts_with('{') && j.ends_with('}'));
    for key in [
        "\"file\":",
        "\"line\":42",
        "\"rule\":",
        "\"severity\":\"error\"",
        "\"message\":",
        "\"suggestion\":",
    ] {
        assert!(j.contains(key), "missing {key} in {j}");
    }
}
