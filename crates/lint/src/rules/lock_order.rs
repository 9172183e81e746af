//! Rule `lock_order`: lock acquisitions must follow the ranks declared in
//! `crates/lint/lock_order.toml`, and the may-hold-while-acquiring graph
//! must be acyclic.
//!
//! The same table drives the *runtime* sanitizer
//! (`ldc_obs::lockcheck`) — this rule shares its parser, so the static
//! and dynamic checkers can never drift apart.
//!
//! The analysis is lexical but liveness-aware:
//!
//! 1. **Lock discovery** — every `Mutex<...>`/`RwLock<...>` field declared
//!    in the scoped files becomes a lock named `<crate>/<file-stem>::<field>`
//!    (e.g. `lsm/db::core`). A lock that lives in no field (one per map
//!    entry) is found at its constructor instead, when that names a
//!    declared id of its own file; guards on it are tracked under the id's
//!    last segment as the receiver name (`file.lock()` for
//!    `ssd/storage::file`).
//! 2. **Acquisition sites** — `.lock()`, `.read()`, `.write()` calls whose
//!    receiver's last path segment names a known lock field. A guard bound
//!    with `let` lives until its enclosing block closes or it is `drop`ped;
//!    a temporary guard lives to the end of its statement — including one
//!    a `let` initializer reads through (`let v = m.lock().field;`), unless
//!    the initializer borrows through it (`&m.lock().field`).
//! 3. **May-hold-while-acquiring edges** — lock B acquired (directly, or
//!    transitively through a call the workspace graph resolves) while a
//!    guard on lock A is live adds edge A → B. Callees are resolved by
//!    qualifier ([`Workspace::resolve`]): a bare `helper(..)` matches free
//!    functions only, so `drop(guard)` is never some type's `Drop::drop`.
//! 4. **Checking** — every discovered lock must appear in the table; every
//!    edge must climb strictly in rank (a self-edge on a non-sharded lock
//!    is a re-entrant acquisition; sharded locks may nest across
//!    *instances*, which only the runtime checker can tell apart); the
//!    edge graph must be acyclic even where declarations are missing; and
//!    every `lockcheck::Mutex::new("<id>", ..)` constructor must name an
//!    id from the table that matches the file it lives in.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::graph::{Call, CallKind, FnId, Workspace};
use crate::lexer::SourceView;
use ldc_obs::lockcheck::{parse_lock_table, LockDef};

/// Stable rule id.
pub const RULE: &str = "lock_order";

/// Workspace-relative path of the shared lock table.
pub const TABLE_PATH: &str = "crates/lint/lock_order.toml";

/// Files (or, ending in `/`, module directories) whose locks participate
/// in the ordered hierarchy.
pub const SCOPED_FILES: &[&str] = &[
    "crates/chaos/src/fault.rs",
    "crates/ssd/src/device.rs",
    "crates/ssd/src/storage.rs",
    "crates/lsm/src/db.rs",
    "crates/lsm/src/db/",
    "crates/lsm/src/compaction/exec.rs",
    "crates/lsm/src/scheduler.rs",
    "crates/lsm/src/commit.rs",
    "crates/lsm/src/memtable.rs",
    "crates/lsm/src/cache.rs",
    "crates/obs/src/sink.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/trace.rs",
    "crates/server/src/server.rs",
    "crates/sync/src/tailer.rs",
];

/// Is `path` (workspace-relative) in this rule's scope?
pub fn in_scope(path: &str) -> bool {
    super::scoped(SCOPED_FILES, path)
}

/// `crates/lsm/src/db.rs` → `lsm/db`.
fn lock_file_key(path: &str) -> String {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path);
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("?");
    format!("{crate_name}/{stem}")
}

#[derive(Debug, Clone)]
struct Acquisition {
    lock: String,
    /// Byte offset of the call in the file.
    pos: usize,
    /// Byte offset where the guard dies.
    live_until: usize,
    line: usize,
}

/// One may-hold-while-acquiring edge, with the site that witnesses it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Held lock.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// Witness file.
    pub file: String,
    /// Witness line (of the inner acquisition or the call reaching it).
    pub line: usize,
}

/// Runs the rule over `(path, view)` pairs (the slice `ws` was built from)
/// plus the text of [`TABLE_PATH`] (the same TOML the runtime sanitizer
/// embeds).
pub fn check(ws: &Workspace, files: &[(String, SourceView)], table_text: &str) -> Vec<Diagnostic> {
    let scoped: Vec<&(String, SourceView)> = files.iter().filter(|(p, _)| in_scope(p)).collect();
    let mut out = Vec::new();

    // 1. Discover locks.
    let mut locks: BTreeMap<String, (String, usize)> = BTreeMap::new(); // id -> (file, line)
    for (path, view) in &scoped {
        for (field, line) in lock_fields(&view.code, view) {
            locks.insert(
                format!("{}::{field}", lock_file_key(path)),
                (path.clone(), line),
            );
        }
    }

    // 2. Declared table, via the runtime sanitizer's own parser.
    let declared: Vec<LockDef> = match parse_lock_table(table_text) {
        Ok(d) => d,
        Err(e) => {
            out.push(Diagnostic::error(
                TABLE_PATH,
                0,
                RULE,
                format!("lock table does not parse: {e}"),
                "fix the [[lock]] entries; the runtime sanitizer reads the same file",
            ));
            Vec::new()
        }
    };
    let rank: BTreeMap<&str, u32> = declared.iter().map(|d| (d.id.as_str(), d.rank)).collect();
    let sharded: BTreeSet<&str> = declared
        .iter()
        .filter(|d| d.sharded)
        .map(|d| d.id.as_str())
        .collect();
    // A lock that is no struct field (one per map entry, say) is found at
    // its constructor, when that names a declared id of its own file.
    for (path, view) in &scoped {
        let key = lock_file_key(path);
        for (_, line, id) in ctor_ids(view) {
            if let Some(id) = id.filter(|id| {
                rank.contains_key(id.as_str()) && id.split("::").next() == Some(key.as_str())
            }) {
                locks.entry(id).or_insert_with(|| (path.clone(), line));
            }
        }
    }
    for (lock, (file, line)) in &locks {
        if !rank.contains_key(lock.as_str()) && !declared.is_empty() {
            out.push(Diagnostic::error(
                file,
                *line,
                RULE,
                format!("lock `{lock}` is not declared in {TABLE_PATH}"),
                "add a [[lock]] entry at its hierarchy rank so the runtime \
                 sanitizer knows about it too",
            ));
        }
    }
    for def in &declared {
        if !locks.contains_key(&def.id) {
            out.push(Diagnostic::info(
                TABLE_PATH,
                0,
                RULE,
                format!(
                    "declared lock `{}` was not found in the scanned sources",
                    def.id
                ),
                "remove the stale [[lock]] entry",
            ));
        }
    }

    // 2b. Constructor ids: every `Mutex::new("<id>", ..)` /
    // `RwLock::new("<id>", ..)` in scope must name a declared id whose
    // `<crate>/<file-stem>` prefix matches the file. String literals are
    // blanked in `code`, so the literal is read out of `raw` (offsets are
    // shared between the two views).
    for (path, view) in &scoped {
        let key = lock_file_key(path);
        for (ctor, line, id) in ctor_ids(view) {
            let Some(id) = id else {
                out.push(Diagnostic::error(
                    path,
                    line,
                    RULE,
                    format!("`{ctor}::new(..)` does not name its lock id as a string literal"),
                    "pass the `<crate>/<file-stem>::<field>` id from lock_order.toml \
                     as the first argument",
                ));
                continue;
            };
            if !rank.contains_key(id.as_str()) && !declared.is_empty() {
                out.push(Diagnostic::error(
                    path,
                    line,
                    RULE,
                    format!("constructor names lock id `{id}`, which is not in {TABLE_PATH}"),
                    "add the [[lock]] entry or fix the id string",
                ));
            } else if id.split("::").next() != Some(key.as_str()) {
                out.push(Diagnostic::error(
                    path,
                    line,
                    RULE,
                    format!("lock id `{id}` does not match this file's key `{key}`"),
                    "ids are `<crate>/<file-stem>::<field>`; name the lock after \
                     the file that owns it",
                ));
            }
        }
    }

    // 3. Per-function acquisition extraction. A field name may be
    // declared by several files (`state` lives in commit, scheduler, and
    // server); the resolver disambiguates per use site.
    let mut lock_field_names: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for id in locks.keys() {
        let field = id.rsplit("::").next().unwrap_or(id).to_string();
        lock_field_names.entry(field).or_default().push(id.clone());
    }
    let mut fns: BTreeMap<FnId, Vec<Acquisition>> = BTreeMap::new();
    for id in ws.all_fns() {
        let (path, view) = &files[id.0];
        let item = ws.item(id);
        let Some((open, close)) = item.body else {
            continue;
        };
        if in_scope(path) && !item.is_test {
            let body = &view.code[open..close];
            fns.insert(id, acquisitions(path, view, open, body, &lock_field_names));
        }
    }

    // 4. Edges: direct nesting, and nesting through resolved calls.
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    for (&id, acqs) in &fns {
        let file = &files[id.0].0;
        for a in acqs {
            let live = |pos: usize| pos > a.pos && pos < a.live_until;
            for b in acqs.iter().filter(|b| live(b.pos)) {
                edges.insert(Edge {
                    from: a.lock.clone(),
                    to: b.lock.clone(),
                    file: file.clone(),
                    line: b.line,
                });
            }
            for call in ws.calls[id.0][id.1].iter().filter(|c| live(c.pos)) {
                let Some(callee) = followed(ws, id, call) else {
                    continue;
                };
                for to in transitive_locks(ws, callee, &fns) {
                    edges.insert(Edge {
                        from: a.lock.clone(),
                        to,
                        file: file.clone(),
                        line: call.line,
                    });
                }
            }
        }
    }

    // 5. Check edges against the order, with suppression at the witness line.
    let find_view = |file: &str| files.iter().find(|(p, _)| p == file).map(|(_, v)| v);
    for e in &edges {
        let suppressed = find_view(&e.file).is_some_and(|v| v.is_suppressed(e.line, RULE));
        if suppressed {
            continue;
        }
        if e.from == e.to {
            // Sharded locks may nest across distinct instances; only the
            // runtime sanitizer can tell instances apart, so the static
            // rule stays quiet there.
            if !sharded.contains(e.from.as_str()) {
                out.push(Diagnostic::error(
                    &e.file,
                    e.line,
                    RULE,
                    format!(
                        "lock `{}` may be acquired while already held (re-entrant deadlock)",
                        e.from
                    ),
                    "scope the first guard so it drops before the second acquisition",
                ));
            }
            continue;
        }
        if let (Some(&ra), Some(&rb)) = (rank.get(e.from.as_str()), rank.get(e.to.as_str())) {
            if ra >= rb {
                out.push(Diagnostic::error(
                    &e.file,
                    e.line,
                    RULE,
                    format!(
                        "lock `{}` acquired while holding `{}` violates the declared order \
                         ({TABLE_PATH} ranks it lower)",
                        e.to, e.from
                    ),
                    "acquire locks in rank order, restructure to drop the outer guard first, \
                     or suppress with `// ldc-lint: allow(lock_order) — <proof it cannot deadlock>`",
                ));
            }
        }
    }

    // 6. Cycle detection on the raw edge graph (covers undeclared locks).
    if let Some(cycle) = find_cycle(&edges) {
        out.push(Diagnostic::error(
            TABLE_PATH,
            0,
            RULE,
            format!("lock acquisition graph has a cycle: {}", cycle.join(" -> ")),
            "break the cycle by restructuring guard scopes",
        ));
    }
    out
}

/// `Mutex<`/`RwLock<` struct-field declarations: `(field name, line)`.
fn lock_fields(code: &str, view: &SourceView) -> Vec<(String, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for kind in ["Mutex", "RwLock"] {
        for at in crate::lexer::token_positions(code, kind) {
            let mut after = at + kind.len();
            while bytes.get(after).is_some_and(|b| b.is_ascii_whitespace()) {
                after += 1;
            }
            if bytes.get(after) != Some(&b'<') {
                continue; // `Mutex::new(...)` etc.
            }
            let line = view.line_of(at);
            if view.is_test_line(line) {
                continue;
            }
            let stmt_start = code[..at]
                .rfind([';', '{', '(', ','])
                .map(|p| p + 1)
                .unwrap_or(0);
            let prefix = &code[stmt_start..at];
            let Some(colon) = prefix.find(':') else {
                continue;
            };
            let name = prefix[..colon]
                .trim()
                .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
                .to_string();
            if !name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()) {
                out.push((name, line));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// `Mutex::new(` / `RwLock::new(` constructor sites outside test code:
/// `(ctor kind, line, first-argument string literal if present)`. The
/// literal comes from `raw`; `code` has it blanked.
fn ctor_ids(view: &SourceView) -> Vec<(&'static str, usize, Option<String>)> {
    let code = &view.code;
    let raw = view.raw.as_bytes();
    let mut out = Vec::new();
    for kind in ["Mutex", "RwLock"] {
        for at in crate::lexer::token_positions(code, kind) {
            let rest = &code[at + kind.len()..];
            let Some(after) = rest.strip_prefix("::new") else {
                continue;
            };
            if !after.trim_start().starts_with('(') {
                continue;
            }
            let line = view.line_of(at);
            if view.is_test_line(line) {
                continue;
            }
            // First argument, read from the raw text.
            let open = at + kind.len() + rest.len() - after.trim_start().len();
            let mut i = open + 1;
            while raw.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
                i += 1;
            }
            let lit = if raw.get(i) == Some(&b'"') {
                let start = i + 1;
                let mut j = start;
                while raw.get(j).is_some_and(|&b| b != b'"' && b != b'\n') {
                    j += 1;
                }
                (raw.get(j) == Some(&b'"'))
                    .then(|| String::from_utf8_lossy(&raw[start..j]).into_owned())
            } else {
                None
            };
            out.push((kind, line, lit));
        }
    }
    out
}

/// Scans one function body (`view.code[body_start..]`) for lock
/// acquisitions, with guard liveness.
fn acquisitions(
    path: &str,
    view: &SourceView,
    body_start: usize,
    body: &str,
    lock_fields: &BTreeMap<String, Vec<String>>,
) -> Vec<Acquisition> {
    let bytes = body.as_bytes();
    let mut out: Vec<Acquisition> = Vec::new();

    // Acquisition sites: `<field> . (lock|read|write) ( )`.
    for (field, ids) in lock_fields {
        for at in crate::lexer::token_positions(body, field) {
            let rest = &body[at + field.len()..];
            let trimmed = rest.trim_start();
            let Some(m) = ["lock", "read", "write"].iter().find_map(|m| {
                trimmed
                    .strip_prefix('.')
                    .map(|t| t.trim_start())
                    .and_then(|t| t.strip_prefix(m))
                    .map(|t| (m, t))
            }) else {
                continue;
            };
            let Some(args) = m.1.trim_start().strip_prefix('(') else {
                continue;
            };
            let lock_id = resolve_lock_id(path, body, at, ids);
            // Statement bounds.
            let stmt_start = body[..at].rfind(';').map(|p| p + 1).unwrap_or(0);
            let stmt_head = &body[stmt_start..at];
            let args = args.trim_start();
            let after_call = args.strip_prefix(')').unwrap_or(args);
            let bound = stmt_head.contains("let ") && !dies_with_statement(stmt_head, after_call);
            let live_until = if bound {
                guard_scope_end(bytes, at).unwrap_or(body.len())
            } else {
                body[at..].find(';').map(|p| at + p).unwrap_or(body.len())
            };
            // `drop(<binding>)` shortens a bound guard's life.
            let live_until = if bound {
                binding_name(stmt_head)
                    .and_then(|g| {
                        crate::lexer::token_positions(&body[at..live_until], "drop")
                            .into_iter()
                            .find(|&d| {
                                body[at + d..]
                                    .trim_start_matches("drop")
                                    .trim_start()
                                    .trim_start_matches('(')
                                    .trim_start()
                                    .starts_with(&g)
                            })
                            .map(|d| at + d)
                    })
                    .unwrap_or(live_until)
            } else {
                live_until
            };
            out.push(Acquisition {
                lock: lock_id,
                pos: body_start + at,
                live_until: body_start + live_until,
                line: view.line_of(body_start + at),
            });
        }
    }
    out
}

/// Picks which declared lock a use of `<field>.lock()` refers to when
/// several files declare a field of that name. Preference order:
///
/// 1. The receiver segment before the field (`self.scheduler.state` →
///    `scheduler`, `db.tables` → `db`) matched against the ids' file
///    stems — fields reached through a named component belong to that
///    component's file.
/// 2. A lock declared in the *current* file (`self.state` in server.rs
///    is server's own field).
/// 3. The lexicographically first candidate (deterministic fallback).
fn resolve_lock_id(path: &str, body: &str, at: usize, ids: &[String]) -> String {
    if ids.len() == 1 {
        return ids[0].clone();
    }
    fn stem_of(id: &str) -> Option<&str> {
        id.split("::").next().and_then(|k| k.split('/').nth(1))
    }
    let before = body[..at].trim_end();
    if let Some(prev) = before.strip_suffix('.') {
        let owner: String = prev
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if !owner.is_empty() && owner != "self" {
            if let Some(id) = ids.iter().find(|id| stem_of(id) == Some(owner.as_str())) {
                return id.clone();
            }
        }
    }
    let key = lock_file_key(path);
    if let Some(id) = ids
        .iter()
        .find(|id| id.split("::").next() == Some(key.as_str()))
    {
        return id.clone();
    }
    ids[0].clone()
}

/// Whether a guard taken inside a `let` statement is only a temporary of
/// its initializer: `let v = m.lock().field;` and `let v =
/// m.lock().get(k).cloned();` read through the guard, which drops at the
/// `;`. Borrowing through it (`let r = &m.lock().field;`) extends the
/// temporary to the binding's scope, and an `if let`/`while let`
/// scrutinee's temporaries live through its block, so those stay bound.
fn dies_with_statement(stmt_head: &str, after_call: &str) -> bool {
    let head = stmt_head.rsplit(['{', '}']).next().unwrap_or(stmt_head);
    let Some((_, init)) = head
        .trim_start()
        .strip_prefix("let ")
        .and_then(|h| h.split_once('='))
    else {
        return false;
    };
    after_call.trim_start().starts_with('.') && !init.trim_start().starts_with('&')
}

/// For a `let`-bound guard acquired at `at`, the guard lives until the
/// enclosing block closes: scan forward tracking depth; when depth goes
/// negative the block closed.
fn guard_scope_end(bytes: &[u8], at: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(at) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// `let mut name = ...` → `name`.
fn binding_name(stmt_head: &str) -> Option<String> {
    let after_let = stmt_head.rfind("let ").map(|p| &stmt_head[p + 4..])?;
    let after_let = after_let
        .trim_start()
        .trim_start_matches("mut ")
        .trim_start();
    let name: String = after_let
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The callee a call site may take locks through. Bare, `self.` and
/// `Type::` calls are followed by qualifier; `container.get(..)` is not —
/// the receiver's type is unknown, and a workspace-unique name match
/// would fabricate edges into any scoped `fn get`.
fn followed(ws: &Workspace, caller: FnId, call: &Call) -> Option<FnId> {
    (call.kind != CallKind::Method)
        .then(|| ws.resolve(caller, call))
        .flatten()
}

/// Every lock `root` or a function it transitively calls may acquire.
fn transitive_locks(
    ws: &Workspace,
    root: FnId,
    fns: &BTreeMap<FnId, Vec<Acquisition>>,
) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut acc = BTreeSet::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        acc.extend(fns.get(&id).into_iter().flatten().map(|a| a.lock.clone()));
        let calls = ws.calls[id.0][id.1].iter();
        stack.extend(calls.filter_map(|c| followed(ws, id, c)));
    }
    acc
}

/// DFS cycle detection; returns one cycle's node list if present.
fn find_cycle(edges: &BTreeSet<Edge>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        if e.from != e.to {
            adj.entry(&e.from).or_default().push(&e.to);
        }
    }
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        if visited.contains(start) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        // Iterative DFS with explicit backtracking markers.
        enum Op<'a> {
            Enter(&'a str),
            Leave(&'a str),
        }
        let mut ops = vec![Op::Enter(start)];
        while let Some(op) = ops.pop() {
            match op {
                Op::Enter(n) => {
                    if on_path.contains(n) {
                        let from = path.iter().position(|&p| p == n).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[from..].iter().map(|s| s.to_string()).collect();
                        cycle.push(n.to_string());
                        return Some(cycle);
                    }
                    if !visited.insert(n) {
                        continue;
                    }
                    on_path.insert(n);
                    path.push(n);
                    ops.push(Op::Leave(n));
                    for &next in adj.get(n).into_iter().flatten() {
                        ops.push(Op::Enter(next));
                    }
                }
                Op::Leave(n) => {
                    on_path.remove(n);
                    path.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORDER: &str = "[[lock]]\nid = \"lsm/db::tables\"\nrank = 10\n\n\
                         [[lock]]\nid = \"lsm/cache::inner\"\nrank = 20\nsharded = true\n";

    fn run(db_src: &str, cache_src: &str) -> Vec<Diagnostic> {
        let files = vec![
            ("crates/lsm/src/db.rs".to_string(), SourceView::new(db_src)),
            (
                "crates/lsm/src/cache.rs".to_string(),
                SourceView::new(cache_src),
            ),
            ("crates/obs/src/sink.rs".to_string(), SourceView::new("")),
            ("crates/obs/src/metrics.rs".to_string(), SourceView::new("")),
        ];
        check(&Workspace::build(&files), &files, ORDER)
    }

    const DB_OK: &str = "struct Db { tables: Mutex<u32> }\nimpl Db {\n  fn table(&self) {\n    { let t = self.tables.lock(); use_it(t); }\n    other();\n  }\n}\n";
    const CACHE_OK: &str = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn get(&self) { let i = self.inner.lock(); }\n}\n";

    #[test]
    fn scope_takes_files_and_module_directories() {
        assert!(in_scope("crates/lsm/src/db.rs"));
        assert!(in_scope("crates/lsm/src/db/write.rs"));
        assert!(in_scope("crates/lsm/src/scheduler.rs"));
        // A module's out-of-line test half is test code.
        assert!(!in_scope("crates/lsm/src/db/tests.rs"));
        // A prefix is a directory, not a string prefix of sibling files.
        assert!(!in_scope("crates/lsm/src/db_util.rs"));
        assert!(!in_scope("crates/lsm/src/wal.rs"));
    }

    #[test]
    fn clean_code_passes() {
        let d = run(DB_OK, CACHE_OK);
        assert!(
            d.iter().all(|d| d.severity != crate::diag::Severity::Error),
            "{d:?}"
        );
    }

    #[test]
    fn order_violation_is_flagged() {
        // cache lock held while taking the db lock: inner -> tables is backwards.
        let cache = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn bad(&self, db: &Db) {\n    let i = self.inner.lock();\n    let t = db.tables.lock();\n  }\n}\n";
        let d = run(DB_OK, cache);
        assert!(
            d.iter()
                .any(|d| d.message.contains("violates the declared order")),
            "{d:?}"
        );
    }

    #[test]
    fn reentrant_acquisition_is_flagged() {
        let db = "struct Db { tables: Mutex<u32> }\nimpl Db {\n  fn bad(&self) {\n    let a = self.tables.lock();\n    let b = self.tables.lock();\n  }\n}\n";
        let d = run(db, CACHE_OK);
        assert!(d.iter().any(|d| d.message.contains("re-entrant")), "{d:?}");
    }

    #[test]
    fn scoped_guard_does_not_leak() {
        let db = "struct Db { tables: Mutex<u32> }\nimpl Db {\n  fn good(&self) {\n    { let a = self.tables.lock(); }\n    let b = self.tables.lock();\n  }\n}\n";
        let d = run(db, CACHE_OK);
        assert!(d.iter().all(|d| !d.message.contains("re-entrant")), "{d:?}");
    }

    #[test]
    fn interprocedural_edge_through_call() {
        // db fn holds tables and calls cache fn that locks inner: forward
        // order, fine. The reverse direction must fail.
        let db = "struct Db { tables: Mutex<u32> }\nimpl Db {\n  fn outer(&self, c: &C) {\n    let t = self.tables.lock();\n    cache_get(c);\n  }\n}\n";
        let cache = "struct C { inner: Mutex<u32> }\nfn cache_get(c: &C) { let i = c.inner.lock(); }\nfn rev(c: &C, db: &Db) { let i = c.inner.lock(); grab_tables(db); }\nfn grab_tables(db: &Db) { let t = db.tables.lock(); }\n";
        let d = run(db, cache);
        assert!(
            d.iter()
                .any(|d| d.message.contains("violates the declared order")),
            "{d:?}"
        );
        // The forward edge (tables -> inner) alone must not error.
        let cache_fwd =
            "struct C { inner: Mutex<u32> }\nfn cache_get(c: &C) { let i = c.inner.lock(); }\n";
        let d = run(db, cache_fwd);
        assert!(
            d.iter().all(|d| d.severity != crate::diag::Severity::Error),
            "{d:?}"
        );
    }

    #[test]
    fn undeclared_lock_is_flagged() {
        let db = "struct Db { tables: Mutex<u32>, extra: RwLock<u8> }\n";
        let d = run(db, CACHE_OK);
        assert!(
            d.iter().any(|d| d.message.contains("is not declared in")),
            "{d:?}"
        );
    }

    #[test]
    fn drop_ends_guard_life() {
        let db = "struct Db { tables: Mutex<u32> }\nimpl Db {\n  fn good(&self) {\n    let a = self.tables.lock();\n    drop(a);\n    let b = self.tables.lock();\n  }\n}\n";
        let d = run(db, CACHE_OK);
        assert!(d.iter().all(|d| !d.message.contains("re-entrant")), "{d:?}");
    }

    #[test]
    fn malformed_table_is_an_error() {
        let files = vec![("crates/lsm/src/db.rs".to_string(), SourceView::new(""))];
        let d = check(&Workspace::build(&files), &files, "not toml at all");
        assert!(
            d.iter().any(|d| d.message.contains("does not parse")),
            "{d:?}"
        );
    }

    #[test]
    fn sharded_self_edge_is_allowed_statically() {
        // Two cache-shard guards held together: distinct instances at
        // runtime, indistinguishable statically — must not error because
        // the table marks the lock sharded.
        let cache = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn merge(&self, o: &C) {\n    let a = self.inner.lock();\n    let b = o.inner.lock();\n  }\n}\n";
        let d = run(DB_OK, cache);
        assert!(d.iter().all(|d| !d.message.contains("re-entrant")), "{d:?}");
    }

    #[test]
    fn lock_without_a_field_is_found_at_its_constructor() {
        // One lock per map entry: no `Mutex<..>` field declares it, its
        // constructor names it, and guards on it are tracked by receiver.
        let order =
            format!("{ORDER}\n[[lock]]\nid = \"lsm/cache::entry\"\nrank = 30\nsharded = true\n");
        let run_cache = |cache: &str| {
            let files = vec![
                ("crates/lsm/src/db.rs".to_string(), SourceView::new(DB_OK)),
                (
                    "crates/lsm/src/cache.rs".to_string(),
                    SourceView::new(cache),
                ),
            ];
            check(&Workspace::build(&files), &files, &order)
        };
        let head = "struct C { inner: Mutex<u32>, map: HashMap<u32, Arc<Mutex<u32>>> }\nimpl C {\n  fn add(&self) -> Arc<Mutex<u32>> { Arc::new(Mutex::new(\"lsm/cache::entry\", 0)) }\n";
        let d = run_cache(&format!("{head}}}\n"));
        assert!(d.iter().all(|d| !d.message.contains("entry")), "{d:?}");
        // Holding an entry (rank 30) while taking a shard (rank 20).
        let bad = format!(
            "{head}  fn bad(&self) {{\n    let entry = self.map.get(&1).cloned().unwrap();\n    let e = entry.lock();\n    let i = self.inner.lock();\n  }}\n}}\n"
        );
        let d = run_cache(&bad);
        assert!(
            d.iter().any(|d| d
                .message
                .contains("`lsm/cache::inner` acquired while holding `lsm/cache::entry`")),
            "{d:?}"
        );
    }

    #[test]
    fn ctor_id_must_match_table_and_file() {
        // Correct id passes.
        let ok = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn new() -> C { C { inner: Mutex::new(\"lsm/cache::inner\", 0) } }\n}\n";
        let d = run(DB_OK, ok);
        assert!(
            d.iter().all(|d| d.severity != crate::diag::Severity::Error),
            "{d:?}"
        );
        // Unknown id is flagged.
        let bad = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn new() -> C { C { inner: Mutex::new(\"lsm/cache::wrong\", 0) } }\n}\n";
        let d = run(DB_OK, bad);
        assert!(
            d.iter()
                .any(|d| d.message.contains("not in crates/lint/lock_order.toml")),
            "{d:?}"
        );
        // Id owned by another file is flagged.
        let wrong_file = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn new() -> C { C { inner: Mutex::new(\"lsm/db::tables\", 0) } }\n}\n";
        let d = run(DB_OK, wrong_file);
        assert!(
            d.iter()
                .any(|d| d.message.contains("does not match this file's key")),
            "{d:?}"
        );
        // A missing literal is flagged.
        let no_lit = "struct C { inner: Mutex<u32> }\nimpl C {\n  fn new() -> C { C { inner: Mutex::new(0) } }\n}\n";
        let d = run(DB_OK, no_lit);
        assert!(
            d.iter()
                .any(|d| d.message.contains("does not name its lock id")),
            "{d:?}"
        );
    }
}
