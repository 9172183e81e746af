//! Item-level parsing over the [`SourceView`]
//! lexer: functions, their impl-block owners, parameter lists, and return
//! types.
//!
//! This is deliberately not a full Rust parser. The workspace-graph rules
//! (`determinism_taint`, `must_use_result`, `lock_order`) only need to
//! know *which* functions exist, *who* owns them (`impl Type`), whether
//! they return something, and where their bodies are — all of which falls
//! out of brace/angle matching over blanked code. Macros, trait bounds,
//! and expression grammar are never interpreted.

use crate::lexer::{match_brace, SourceView};

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Owning `impl` type (last path segment, generics stripped), if the
    /// function sits inside an `impl` block. For `impl Trait for Type`
    /// this is `Type`.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the item lies inside a test-only region.
    pub is_test: bool,
    /// Raw parameter-list text (blanked), parens stripped.
    pub params: String,
    /// Return-type text after `->` (blanked), empty when the function
    /// returns `()`.
    pub ret: String,
    /// Byte range of the body in `view.code`, `open_brace..=close_brace`.
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` when owned by an impl block, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// All functions of one source file.
#[derive(Debug, Clone)]
pub struct FileIndex {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Crate the file belongs to (`crates/<name>/src/...`).
    pub crate_name: String,
    /// Functions in file order.
    pub fns: Vec<FnItem>,
}

/// Crate name out of a workspace-relative path (`crates/lsm/src/db.rs` →
/// `lsm`); empty for paths outside `crates/`.
pub fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Parses one file into its function index.
pub fn parse_file(path: &str, view: &SourceView) -> FileIndex {
    let code = &view.code;
    let bytes = code.as_bytes();

    // Impl regions: `(type name, body start, body end)`.
    let impls = impl_regions(code);

    let mut fns = Vec::new();
    for at in crate::lexer::token_positions(code, "fn") {
        let line = view.line_of(at);
        // Name.
        let mut i = at + 2;
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        let name_start = i;
        while bytes
            .get(i)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` inside a type like `fn(...)` pointer
        }
        let name = code[name_start..i].to_string();
        // Generics.
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        if bytes.get(i) == Some(&b'<') {
            i = skip_angles(bytes, i);
        }
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        // Parameters.
        if bytes.get(i) != Some(&b'(') {
            continue; // not a function item after all
        }
        let params_open = i;
        let params_close = match_paren(bytes, params_open);
        let params = code[params_open + 1..params_close.min(code.len())]
            .trim()
            .to_string();
        i = (params_close + 1).min(bytes.len());
        // Return type: up to `{`, `;`, or a top-level `where`.
        let mut ret = String::new();
        let sig_rest_start = i;
        let mut body_open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    body_open = Some(i);
                    break;
                }
                b';' => break,
                b'<' => i = skip_angles(bytes, i),
                _ => i += 1,
            }
        }
        let sig_rest = &code[sig_rest_start..i.min(code.len())];
        if let Some(arrow) = sig_rest.find("->") {
            let after = &sig_rest[arrow + 2..];
            let end = after.find(" where ").unwrap_or(after.len());
            ret = after[..end].trim().to_string();
        }
        let body = body_open.map(|open| (open, match_brace(bytes, open)));
        let qual = impls
            .iter()
            .filter(|(_, s, e)| at > *s && at < *e)
            .map(|(t, s, _)| (t.clone(), *s))
            // Innermost enclosing impl wins (nested impls don't occur in
            // practice, but be deterministic about it).
            .max_by_key(|(_, s)| *s)
            .map(|(t, _)| t);
        fns.push(FnItem {
            name,
            qual,
            line,
            is_test: view.is_test_line(line),
            params,
            ret,
            body,
        });
    }
    FileIndex {
        path: path.to_string(),
        crate_name: crate_of(path),
        fns,
    }
}

/// Every `impl` block: `(type, body start, body end)`.
fn impl_regions(code: &str) -> Vec<(String, usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for at in crate::lexer::token_positions(code, "impl") {
        let mut i = at + 4;
        while bytes.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        if bytes.get(i) == Some(&b'<') {
            i = skip_angles(bytes, i);
        }
        // Header text up to the opening brace (skipping generics so a
        // `Fn() -> T` bound cannot hide the brace).
        let header_start = i;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                b'<' => i = skip_angles(bytes, i),
                _ => i += 1,
            }
        }
        let Some(open) = open else { continue };
        let header = &code[header_start..open];
        // `impl Trait for Type` → Type; `impl Type` → Type. Strip a
        // trailing `where` clause first.
        let header = header.split(" where ").next().unwrap_or(header);
        let ty = match header.find(" for ") {
            Some(p) => &header[p + 5..],
            None => header,
        };
        let ty = last_path_segment(ty);
        if ty.is_empty() {
            continue;
        }
        out.push((ty, open, match_brace(bytes, open)));
    }
    out
}

/// `a::b::Type<T>` / `&mut Type` → `Type`.
fn last_path_segment(ty: &str) -> String {
    let ty = ty.trim();
    let ty = ty.split('<').next().unwrap_or(ty).trim();
    ty.rsplit("::")
        .next()
        .unwrap_or(ty)
        .trim_start_matches(['&', ' '])
        .trim()
        .trim_start_matches("mut ")
        .trim()
        .to_string()
}

/// Given the offset of a `<`, returns the offset one past its matching
/// `>`. The `>` of a `->` return-type arrow inside bounds (e.g.
/// `F: Fn() -> u64`) does not close an angle.
fn skip_angles(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            // A stray semicolon/brace means this `<` was a comparison,
            // not generics; bail rather than eat the rest of the file.
            b'{' | b';' => return open + 1,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Given the offset of a `(`, returns the offset of its matching `)`.
fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileIndex {
        parse_file("crates/lsm/src/x.rs", &SourceView::new(src))
    }

    #[test]
    fn free_and_impl_fns_with_quals() {
        let src = "fn free(a: u32) -> u64 { a as u64 }\n\
                   struct S;\n\
                   impl S {\n    fn method(&self) {}\n}\n\
                   impl std::fmt::Display for S {\n    fn fmt(&self, f: &mut F) -> R { todo!() }\n}\n";
        let idx = parse(src);
        let names: Vec<(String, Option<String>)> = idx
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.qual.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("S".into())),
                ("fmt".into(), Some("S".into())),
            ]
        );
        assert_eq!(idx.fns[0].ret, "u64");
        assert_eq!(idx.fns[1].ret, "");
        assert_eq!(idx.crate_name, "lsm");
    }

    #[test]
    fn generic_fns_and_closure_bounds_parse() {
        let src = "fn apply<F: Fn(u32) -> u64>(f: F) -> u64 { f(1) }\n\
                   impl<T: Clone> Wrap<T> {\n    fn get(&self) -> T { self.0.clone() }\n}\n";
        let idx = parse(src);
        assert_eq!(idx.fns[0].name, "apply");
        assert_eq!(idx.fns[0].ret, "u64");
        assert_eq!(idx.fns[1].qual.as_deref(), Some("Wrap"));
        assert_eq!(idx.fns[1].ret, "T");
    }

    #[test]
    fn trait_decls_have_no_body_and_tests_are_marked() {
        let src = "trait T {\n    fn decl(&self) -> Result<(), E>;\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let idx = parse(src);
        assert_eq!(idx.fns[0].name, "decl");
        assert!(idx.fns[0].body.is_none());
        assert!(idx.fns[0].ret.contains("Result"));
        assert!(idx.fns[1].is_test);
    }

    #[test]
    fn where_clause_does_not_leak_into_ret() {
        let src = "fn f<T>(x: T) -> Vec<T> where T: Clone { vec![x] }\n";
        let idx = parse(src);
        assert_eq!(idx.fns[0].ret, "Vec<T>");
        assert!(idx.fns[0].body.is_some());
    }
}
