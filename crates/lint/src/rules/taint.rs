//! `determinism_taint` — interprocedural determinism-taint analysis.
//!
//! The per-file `determinism` rule bans nondeterminism *tokens* inside the
//! engine crates outright. This rule covers the crates that legitimately
//! touch host time (`server`, `client`, `bench`) by tracking *flows*: a
//! value born from a nondeterministic source must never reach a
//! deterministic sink — the WAL/SSTable/manifest encoders, the virtual
//! clock, the wire-protocol frame encoders, or the same-seed-compared
//! bench JSON.
//!
//! Two analyses run over the workspace call graph
//! ([`Workspace`]):
//!
//! * **Sink purity.** A sink function and its transitive resolved callees
//!   must not contain a source token. A sink that computes host time
//!   *internally* corrupts its output even when every caller is careful.
//! * **Tainted arguments.** Within each function, locals assigned from a
//!   source expression (or from a call to a function whose return value
//!   is host-derived) are tainted; taint spreads through further `let`
//!   bindings that mention a tainted name. Passing a tainted name to a
//!   sink — or to any function that can reach a sink — is reported.
//!
//! Both are deliberately approximate: call edges exist only when the
//! target is unambiguous, and taint does not flow through fields or
//! across function boundaries except via return values. That keeps the
//! rule quiet; genuinely intended flows (the server stamps host queue
//! times into reply frames) carry `// ldc-lint: allow(determinism_taint)`
//! comments with reasons.
//!
//! CPU-feature detection (`is_x86_feature_detected!`) is a source too:
//! a value computed by whichever implementation the machine supports is
//! deterministic only if the implementations agree, which this analysis
//! cannot see. The dispatch in `lsm/src/crc32c.rs` therefore carries an
//! `allow` naming the proptest that pins its arms equal — and because that
//! annotation answers for the value, a source that carries one does not
//! taint the function's return either.
//!
//! The ftl `host_pages_written` counter family is *not* a source: `host_`
//! there means "host writes vs. GC writes" (deterministic workload
//! accounting), not host wall-clock time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::Diagnostic;
use crate::graph::{FnId, Workspace};
use crate::lexer::SourceView;

pub const RULE: &str = "determinism_taint";

/// Nondeterministic source tokens, matched against blanked code.
const SOURCES: &[&str] = &[
    "Instant::now",
    "SystemTime",
    ".elapsed(",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "RandomState",
    "thread::current",
    "ThreadId",
    // Which CPU the process landed on. A value computed one way here and
    // another way there is only as deterministic as the proof that the
    // two ways agree — which the analyzer cannot see, so the dispatch has
    // to say where that proof lives.
    "is_x86_feature_detected",
];

/// Deterministic sinks: `(path suffix, impl qualifier, name, sink class)`.
///
/// The class names the artifact a flow would corrupt; it appears in the
/// diagnostic so the reader knows *what* would stop replaying.
const SINKS: &[(&str, Option<&str>, &str, &str)] = &[
    ("lsm/src/wal.rs", Some("LogWriter"), "add_record", "wal"),
    ("lsm/src/wal.rs", Some("LogWriter"), "emit", "wal"),
    (
        "lsm/src/table/builder.rs",
        Some("TableBuilder"),
        "add",
        "sstable",
    ),
    (
        "lsm/src/table/builder.rs",
        Some("TableBuilder"),
        "finish",
        "sstable",
    ),
    (
        "lsm/src/version/edit.rs",
        Some("VersionEdit"),
        "encode",
        "manifest",
    ),
    (
        "lsm/src/version/set.rs",
        Some("VersionSet"),
        "log_and_apply",
        "manifest",
    ),
    ("lsm/src/version/set.rs", None, "write_manifest", "manifest"),
    (
        "ssd/src/clock.rs",
        Some("VirtualClock"),
        "advance",
        "virtual-clock",
    ),
    (
        "ssd/src/clock.rs",
        Some("VirtualClock"),
        "advance_micros",
        "virtual-clock",
    ),
    (
        "ssd/src/clock.rs",
        Some("VirtualClock"),
        "rewind_to",
        "virtual-clock",
    ),
    ("client/src/proto.rs", None, "encode_request", "wire"),
    ("client/src/proto.rs", None, "encode_response", "wire"),
    (
        "bench/src/ycsb_net.rs",
        Some("ClosedResult"),
        "json",
        "bench-json",
    ),
    (
        "bench/src/experiment.rs",
        None,
        "run_experiment",
        "bench-json",
    ),
    // Every figure's pinned text (`crates/bench/golden/paper/`) passes
    // through the runner's entry; the figures themselves are reached
    // through `FIGURES`' function pointers, which the call graph does not
    // follow, so their shared harness (`run_experiment`) is a sink of its
    // own above.
    ("bench/src/paper.rs", None, "run_paper", "bench-json"),
    ("bench/src/main.rs", None, "tail_mode_json", "bench-json"),
    ("bench/src/main.rs", None, "backlog_det_json", "bench-json"),
];

/// Runs both analyses. `files` must be the same slice the workspace was
/// built from (indices align).
pub fn check(ws: &Workspace, files: &[(String, SourceView)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Locate the declared sinks. A missing sink means the function moved
    // or was renamed without updating this table — surface that loudly
    // rather than silently analysing nothing.
    let mut sink_class: BTreeMap<FnId, &'static str> = BTreeMap::new();
    for &(suffix, qual, name, class) in SINKS {
        match ws.find(suffix, qual, name) {
            Some(id) => {
                sink_class.insert(id, class);
            }
            None => {
                // Fixture runs only see a slice of the tree; only complain
                // when the sink's file is actually present.
                if files.iter().any(|(p, _)| p.ends_with(suffix)) {
                    diags.push(Diagnostic::error(
                        suffix,
                        1,
                        RULE,
                        format!(
                            "declared sink `{}{}{}` not found in {}",
                            qual.map(|q| format!("{q}::")).unwrap_or_default(),
                            "",
                            name,
                            suffix
                        ),
                        "update the SINKS table in rules/taint.rs to match the code",
                    ));
                }
            }
        }
    }

    // Resolved call edges, computed once.
    let edges: BTreeMap<FnId, Vec<FnId>> = ws.all_fns().map(|id| (id, ws.callees(id))).collect();

    // --- Analysis 1: sink purity -------------------------------------
    for (&sink, &class) in &sink_class {
        let mut members = BTreeSet::new();
        members.insert(sink);
        let mut queue: VecDeque<FnId> = edges[&sink].iter().copied().collect();
        while let Some(next) = queue.pop_front() {
            if members.insert(next) {
                queue.extend(edges[&next].iter().copied());
            }
        }
        for member in members {
            let item = ws.item(member);
            if item.is_test {
                continue;
            }
            let Some((open, close)) = item.body else {
                continue;
            };
            let view = &files[member.0].1;
            let body = &view.code[open..close.min(view.code.len())];
            for src in SOURCES {
                if let Some(at) = body.find(src) {
                    let line = view.line_of(open + at);
                    if view.is_suppressed(line, RULE) {
                        continue;
                    }
                    diags.push(Diagnostic::error(
                        ws.path(member),
                        line,
                        RULE,
                        format!(
                            "`{}` reaches deterministic sink `{}` ({} class) but uses source `{}`",
                            item.qualified(),
                            ws.item(sink).qualified(),
                            class,
                            src.trim_matches(['.', '(']),
                        ),
                        "derive the value from the virtual clock or the seeded RNG, \
                         or drop it before it reaches the sink",
                    ));
                }
            }
        }
    }

    // --- Analysis 2: tainted arguments -------------------------------
    // Functions whose *return value* is host-derived: they return
    // something and their body mentions a source (or calls another such
    // function). Fixpoint over the call graph.
    let mut tainted_ret: BTreeSet<FnId> = ws
        .all_fns()
        .filter(|&id| {
            let item = ws.item(id);
            if item.ret.is_empty() {
                return false;
            }
            // A source that carries an `allow` has been argued not to
            // make the value host-derived; it does not taint the return.
            item.body.is_some_and(|(open, close)| {
                let view = &files[id.0].1;
                let body = &view.code[open..close.min(view.code.len())];
                SOURCES.iter().any(|s| {
                    body.match_indices(s)
                        .any(|(at, _)| !view.is_suppressed(view.line_of(open + at), RULE))
                })
            })
        })
        .collect();
    loop {
        let grown: Vec<FnId> = ws
            .all_fns()
            .filter(|id| !tainted_ret.contains(id))
            .filter(|&id| {
                !ws.item(id).ret.is_empty() && edges[&id].iter().any(|c| tainted_ret.contains(c))
            })
            .collect();
        if grown.is_empty() {
            break;
        }
        tainted_ret.extend(grown);
    }

    // Functions that can reach a sink (including the sinks themselves):
    // reverse reachability over the resolved edges.
    let mut reaches_sink: BTreeSet<FnId> = sink_class.keys().copied().collect();
    let mut reverse: BTreeMap<FnId, Vec<FnId>> = BTreeMap::new();
    for (&from, tos) in &edges {
        for &to in tos {
            reverse.entry(to).or_default().push(from);
        }
    }
    let mut queue: VecDeque<FnId> = reaches_sink.iter().copied().collect();
    while let Some(next) = queue.pop_front() {
        for &caller in reverse.get(&next).map(Vec::as_slice).unwrap_or(&[]) {
            if reaches_sink.insert(caller) {
                queue.push_back(caller);
            }
        }
    }
    // Which sink classes each sink-reaching function can hit, for the
    // diagnostic text.
    let classes_of = |id: FnId| -> String {
        let mut all = BTreeSet::new();
        if let Some(c) = sink_class.get(&id) {
            all.insert(*c);
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from(edges[&id].clone());
        while let Some(next) = queue.pop_front() {
            if seen.insert(next) {
                if let Some(c) = sink_class.get(&next) {
                    all.insert(*c);
                }
                queue.extend(edges[&next].iter().copied());
            }
        }
        all.into_iter().collect::<Vec<_>>().join(", ")
    };

    for id in ws.all_fns() {
        let item = ws.item(id);
        if item.is_test {
            continue;
        }
        let Some((open, close)) = item.body else {
            continue;
        };
        let view = &files[id.0].1;
        let code = &view.code;
        let body = &code[open..close.min(code.len())];
        let tainted = tainted_locals(body, |name| {
            ws.named(name).iter().any(|cand| tainted_ret.contains(cand))
        });
        if tainted.is_empty() {
            continue;
        }
        for call in &ws.calls[id.0][id.1] {
            let Some(target) = ws.resolve(id, call) else {
                continue;
            };
            if !reaches_sink.contains(&target) {
                continue;
            }
            // Argument text: from the opening paren after the name to its
            // matching close.
            let Some(args) = call_args(code, call.pos, close) else {
                continue;
            };
            let hit = tainted
                .iter()
                .find(|t| mentions_ident(args, t))
                .cloned()
                .or_else(|| {
                    SOURCES
                        .iter()
                        .find(|s| args.contains(*s))
                        .map(|s| s.trim_matches(['.', '(']).to_string())
                });
            let Some(hit) = hit else { continue };
            if view.is_suppressed(call.line, RULE) {
                continue;
            }
            diags.push(Diagnostic::error(
                ws.path(id),
                call.line,
                RULE,
                format!(
                    "host-derived value `{}` flows into `{}`, which reaches a \
                     deterministic sink ({})",
                    hit,
                    call.name,
                    classes_of(target),
                ),
                "replay-critical bytes must derive from the virtual clock / seeded \
                 RNG; if the flow is intentional metadata, annotate it with \
                 `// ldc-lint: allow(determinism_taint) — reason`",
            ));
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Intraprocedural tainted-local inference: one forward pass over `let`
/// statements. `calls_tainted(name)` reports whether a called function's
/// return value is host-derived.
fn tainted_locals(body: &str, calls_tainted: impl Fn(&str) -> bool) -> Vec<String> {
    let mut tainted: Vec<String> = Vec::new();
    let bytes = body.as_bytes();
    for at in crate::lexer::token_positions(body, "let") {
        let mut i = at + 3;
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        if body[i..].starts_with("mut ") {
            i += 4;
            while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
                i += 1;
            }
        }
        let name_start = i;
        while bytes
            .get(i)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            i += 1;
        }
        if i == name_start {
            continue; // destructuring — not tracked
        }
        let name = &body[name_start..i];
        // `let Some(x) = ..` / `let Foo { .. } = ..` patterns bind inner
        // names we don't model; skip rather than taint the constructor.
        let mut k = i;
        while bytes.get(k).is_some_and(|b| b.is_ascii_whitespace()) {
            k += 1;
        }
        if matches!(bytes.get(k), Some(b'(' | b'{')) {
            continue;
        }
        let Some(eq) = statement_eq(bytes, i) else {
            continue;
        };
        let rhs_end = statement_end(bytes, eq);
        let rhs = &body[eq..rhs_end];
        let is_tainted = SOURCES.iter().any(|s| rhs.contains(s))
            || tainted.iter().any(|t| mentions_ident(rhs, t))
            || called_names(rhs).iter().any(|n| calls_tainted(n));
        if is_tainted && !tainted.iter().any(|t| t == name) {
            tainted.push(name.to_string());
        }
    }
    tainted
}

/// Offset of the `=` that starts this `let`'s initializer, skipping a type
/// ascription. `None` for `let x;`.
fn statement_eq(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    let mut depth = 0i64;
    while i < bytes.len() {
        match bytes[i] {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' if i > 0 && (bytes[i - 1] == b'-' || bytes[i - 1] == b'=') => {}
            b'>' | b')' | b']' => depth -= 1,
            b'=' if depth == 0 && bytes.get(i + 1) != Some(&b'=') => return Some(i + 1),
            b';' | b'{' if depth == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Offset just past the initializer: the `;` at nesting depth zero.
fn statement_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0i64;
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b';' if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Bare names called like `name(` within an expression (macros excluded).
fn called_names(expr: &str) -> Vec<String> {
    let bytes = expr.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if bytes.get(i) == Some(&b'(') && bytes.get(start.wrapping_sub(1)) != Some(&b'!') {
            out.push(expr[start..i].to_string());
        }
    }
    out
}

/// Word-boundary search for an identifier inside `text`.
fn mentions_ident(text: &str, ident: &str) -> bool {
    !crate::lexer::token_positions(text, ident).is_empty()
}

/// Argument text of the call whose name starts at `pos` in `code`.
fn call_args(code: &str, pos: usize, limit: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut i = pos;
    while bytes
        .get(i)
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
    {
        i += 1;
    }
    while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
        i += 1;
    }
    if bytes.get(i) != Some(&b'(') {
        return None;
    }
    let mut depth = 0usize;
    let end = limit.min(bytes.len());
    for k in i..end {
        match bytes[k] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&code[i + 1..k]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<(String, SourceView)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), SourceView::new(s)))
            .collect();
        let ws = Workspace::build(&files);
        check(&ws, &files)
    }

    const CLOCK: &str = "pub struct VirtualClock;\nimpl VirtualClock {\n    pub fn advance(&self, d: u64) -> u64 { d }\n    pub fn advance_micros(&self, m: u64) -> u64 { m }\n    pub fn rewind_to(&self, t: u64) { let _ = t; }\n}\n";

    #[test]
    fn clean_flow_produces_no_findings() {
        let diags = run(&[
            ("crates/ssd/src/clock.rs", CLOCK),
            (
                "crates/lsm/src/io.rs",
                "fn charge(c: &VirtualClock) { let d = 5; c.advance(d); }\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn host_time_into_virtual_clock_is_flagged() {
        let diags = run(&[
            ("crates/ssd/src/clock.rs", CLOCK),
            (
                "crates/lsm/src/io.rs",
                "fn charge(c: &VirtualClock) {\n    let t0 = Instant::now();\n    let d = t0.elapsed().as_nanos() as u64;\n    c.advance(d);\n}\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("virtual-clock"), "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn taint_spreads_through_returning_helpers() {
        // helper() returns host time; the caller passes it onward through
        // an intermediate local into a sink-reaching wrapper.
        let diags = run(&[
            ("crates/ssd/src/clock.rs", CLOCK),
            (
                "crates/lsm/src/io.rs",
                "fn helper() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
                 fn wrapper(c: &VirtualClock, d: u64) { c.advance(d); }\n\
                 fn charge(c: &VirtualClock) {\n    let d = helper();\n    let e = d + 1;\n    wrapper(c, e);\n}\n",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`e`"), "{diags:?}");
    }

    #[test]
    fn impure_sink_body_is_flagged() {
        let diags = run(&[(
            "crates/client/src/proto.rs",
            "pub fn encode_request(id: u64) -> Vec<u8> {\n    let t = SystemTime::now();\n    let _ = t;\n    vec![]\n}\npub fn encode_response(id: u64) -> Vec<u8> { vec![] }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("uses source `SystemTime`"),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_comment_suppresses_a_flow() {
        let diags = run(&[
            ("crates/ssd/src/clock.rs", CLOCK),
            (
                "crates/lsm/src/io.rs",
                "fn charge(c: &VirtualClock) {\n    let d = Instant::now().elapsed().as_nanos() as u64;\n    // ldc-lint: allow(determinism_taint) — test flow\n    c.advance(d);\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn an_allowed_source_does_not_taint_the_return_value() {
        // One annotation at the source answers for every value computed
        // from it: callers of `pick` need none of their own. Without the
        // annotation the flow into the clock is reported.
        let flow = |allow: &str| {
            format!(
                "fn pick() -> u64 {{\n    {allow}\n    if is_x86_feature_detected!(\"sse4.2\") {{ return 1; }}\n    1\n}}\n\
                 fn charge(c: &VirtualClock) {{\n    let d = pick();\n    c.advance(d);\n}}\n"
            )
        };
        let run_flow = |src: &str| {
            run(&[
                ("crates/ssd/src/clock.rs", CLOCK),
                ("crates/lsm/src/io.rs", src),
            ])
        };
        let diags = run_flow(&flow(""));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`d`"), "{diags:?}");
        let diags = run_flow(&flow(
            "// ldc-lint: allow(determinism_taint) — both arms return 1",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_declared_sink_is_reported() {
        let diags = run(&[(
            "crates/client/src/proto.rs",
            "pub fn encode_request_v2(id: u64) -> Vec<u8> { vec![] }\n",
        )]);
        assert!(
            diags.iter().any(|d| d.message.contains("declared sink")),
            "{diags:?}"
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let diags = run(&[
            ("crates/ssd/src/clock.rs", CLOCK),
            (
                "crates/lsm/src/io.rs",
                "#[cfg(test)]\nmod tests {\n    fn charge(c: &VirtualClock) {\n        let d = Instant::now().elapsed().as_nanos() as u64;\n        c.advance(d);\n    }\n}\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
