//! Lightweight item/expression parser over [`crate::tokens`].
//!
//! Produces per-file function definitions (name, method-ness, `impl` owner,
//! body token range) plus the structural queries the passes need: call
//! sites, `for` loops, index expressions, and `==` comparisons — all with
//! exact lines, so findings point at real code. This is deliberately not a
//! full Rust grammar: it brace-matches, it never builds an AST, and it
//! degrades to "no structure found" rather than erroring on exotic syntax.
//!
//! Closures are *not* separate functions here: a call or acquisition inside
//! a closure belongs to the enclosing `fn`'s body range, which is exactly
//! what interprocedural propagation wants (the closure runs on the caller's
//! stack, under the caller's guards and budgets).

use crate::source::SourceFile;
use crate::tokens::{tokenize, Tok, TokKind};

/// One `fn` item.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// First parameter is (some flavor of) `self`.
    pub is_method: bool,
    /// Last path segment of the surrounding `impl` type, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token indices of the body braces `(open, close)`, both inclusive;
    /// `None` for trait/extern declarations without a body.
    pub body: Option<(usize, usize)>,
}

/// A parsed file: comment-free token stream plus the functions found in it.
#[derive(Debug)]
pub struct ParsedFile {
    /// All non-comment tokens, in source order.
    pub toks: Vec<Tok>,
    /// Every `fn` item (nested fns included), in source order.
    pub fns: Vec<FnDef>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free function (or imported name).
    Free,
    /// `recv.name(…)` — receiver identifier, when it is a plain ident
    /// (`self.collect()` → `Some("self")`; `foo().collect()` → `None`).
    Method(Option<String>),
    /// `Qualifier::name(…)`.
    Path(String),
}

/// One call site inside a body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name.
    pub name: String,
    /// Call form.
    pub kind: CallKind,
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
}

/// One `for pat in expr { … }` loop.
#[derive(Debug)]
pub struct ForLoop {
    /// Identifiers bound by the pattern (`mut`/`ref`/`_` excluded).
    pub vars: Vec<String>,
    /// Token range `[start, end)` of the iterated expression.
    pub expr: (usize, usize),
    /// Token indices of the body braces, inclusive.
    pub body: (usize, usize),
    /// The expression contains a `..`/`..=` at top level (range loop).
    pub is_range: bool,
    /// The expression calls `.enumerate()`.
    pub has_enumerate: bool,
    /// 1-based line of the `for` keyword.
    pub line: usize,
}

/// One `base[…]` index expression.
#[derive(Debug)]
pub struct IndexSite {
    /// The identifier immediately before `[`.
    pub base: String,
    /// The base is a field access (`recv.base[…]`).
    pub base_is_field: bool,
    /// Token range `[start, end)` of the index expression between brackets.
    pub index: (usize, usize),
    /// Token index of the `[`.
    pub tok: usize,
    /// 1-based line.
    pub line: usize,
}

/// Keywords that look like call sites when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "move", "fn", "as", "else", "unsafe",
    "let", "mut", "ref", "box", "await", "yield",
];

impl ParsedFile {
    /// Parses a file into functions + token stream.
    pub fn parse(file: &SourceFile) -> ParsedFile {
        let toks: Vec<Tok> = tokenize(&file.raw)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let fns = find_fns(&file.raw, &toks);
        ParsedFile { toks, fns }
    }

    /// Text of token `i`.
    pub fn text<'a>(&self, src: &'a str, i: usize) -> &'a str {
        self.toks[i].text(src)
    }

    /// True if token `i` is punctuation `p`.
    pub fn is_punct(&self, src: &str, i: usize, p: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == p)
    }

    /// The function (index into `fns`) whose body contains token `i`, if
    /// any; nested fns win over their enclosing fn.
    pub fn enclosing_fn(&self, i: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_span = usize::MAX;
        for (fi, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if open < i && i < close && close - open < best_span {
                    best = Some(fi);
                    best_span = close - open;
                }
            }
        }
        best
    }

    /// All call sites within token range `[start, end)`.
    pub fn call_sites(&self, src: &str, start: usize, end: usize) -> Vec<CallSite> {
        let mut out = Vec::new();
        for i in start..end.min(self.toks.len()) {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident || !self.is_punct(src, i + 1, "(") {
                continue;
            }
            let name = t.text(src);
            let kind = if i > start && self.is_punct(src, i - 1, ".") {
                let recv = if i >= 2 && self.toks[i - 2].kind == TokKind::Ident {
                    Some(self.text(src, i - 2).to_string())
                } else {
                    None
                };
                CallKind::Method(recv)
            } else if i > start && self.is_punct(src, i - 1, "::") {
                let q = if i >= 2 && self.toks[i - 2].kind == TokKind::Ident {
                    self.text(src, i - 2).to_string()
                } else {
                    String::new()
                };
                CallKind::Path(q)
            } else {
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                CallKind::Free
            };
            out.push(CallSite {
                name: name.to_string(),
                kind,
                tok: i,
                line: t.line,
            });
        }
        out
    }

    /// All `for` loops within token range `[start, end)`.
    pub fn for_loops(&self, src: &str, start: usize, end: usize) -> Vec<ForLoop> {
        let mut out = Vec::new();
        let end = end.min(self.toks.len());
        for i in start..end {
            let t = &self.toks[i];
            if t.kind != TokKind::Ident || t.text(src) != "for" {
                continue;
            }
            // skip `for<'a>` (HRTB) and `impl X for Y`
            if self.is_punct(src, i + 1, "<") {
                continue;
            }
            if i > 0 && self.toks[i - 1].kind == TokKind::Ident {
                let prev = self.text(src, i - 1);
                if prev == "impl" || prev == "for" {
                    continue;
                }
            }
            // find `in` at bracket depth 0
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_at = None;
            while j < end {
                let tj = &self.toks[j];
                let txt = tj.text(src);
                match txt {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "in" if tj.kind == TokKind::Ident && depth == 0 => {
                        in_at = Some(j);
                        break;
                    }
                    "{" | ";" => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(in_at) = in_at else { continue };
            let vars: Vec<String> = (i + 1..in_at)
                .filter(|&k| self.toks[k].kind == TokKind::Ident)
                .map(|k| self.text(src, k).to_string())
                .filter(|v| v != "mut" && v != "ref" && v != "_")
                .collect();
            // expression runs to the body `{` at depth 0 (struct literals
            // need parens in for-expressions, so the first depth-0 `{` is
            // the body — closures inside the expr are guarded by |…| pairs
            // only, which never contain a bare depth-0 `{` before their own)
            let mut k = in_at + 1;
            let mut depth = 0i32;
            let mut open = None;
            while k < end {
                let txt = self.toks[k].text(src);
                match txt {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let Some(open) = open else { continue };
            let Some(close) = self.match_brace(src, open, end) else {
                continue;
            };
            let expr = (in_at + 1, open);
            let is_range = (expr.0..expr.1).any(|k| matches!(self.toks[k].text(src), ".." | "..="));
            let has_enumerate = (expr.0..expr.1).any(|k| self.toks[k].text(src) == "enumerate");
            out.push(ForLoop {
                vars,
                expr,
                body: (open, close),
                is_range,
                has_enumerate,
                line: t.line,
            });
        }
        out
    }

    /// All index expressions within token range `[start, end)`.
    pub fn index_sites(&self, src: &str, start: usize, end: usize) -> Vec<IndexSite> {
        let mut out = Vec::new();
        let end = end.min(self.toks.len());
        for i in start..end {
            if !self.is_punct(src, i, "[") || i == 0 {
                continue;
            }
            if self.toks[i - 1].kind != TokKind::Ident {
                continue;
            }
            let base = self.text(src, i - 1);
            if NON_CALL_KEYWORDS.contains(&base) {
                continue;
            }
            let base_is_field = i >= 2 && self.is_punct(src, i - 2, ".");
            // match the bracket
            let mut depth = 0i32;
            let mut close = None;
            for k in i..end {
                match self.toks[k].text(src) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(k);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let Some(close) = close else { continue };
            out.push(IndexSite {
                base: base.to_string(),
                base_is_field,
                index: (i + 1, close),
                tok: i,
                line: self.toks[i].line,
            });
        }
        out
    }

    /// Token indices of `==` comparisons within `[start, end)`.
    pub fn eq_comparisons(&self, src: &str, start: usize, end: usize) -> Vec<usize> {
        (start..end.min(self.toks.len()))
            .filter(|&i| self.is_punct(src, i, "=="))
            .collect()
    }

    /// Token index of the `}` matching the `{` at `open`.
    pub fn match_brace(&self, src: &str, open: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        for k in open..end.min(self.toks.len()) {
            match self.toks[k].text(src) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Token index of the start of the statement containing token `i`:
    /// one past the nearest preceding `;`, `{` or `}` (approximate in the
    /// presence of nested blocks, which is fine for guard heuristics).
    pub fn stmt_start(&self, src: &str, i: usize, floor: usize) -> usize {
        let mut j = i;
        while j > floor {
            if matches!(self.toks[j - 1].text(src), ";" | "{" | "}") {
                break;
            }
            j -= 1;
        }
        j
    }
}

/// Finds every `fn` item in the token stream.
fn find_fns(src: &str, toks: &[Tok]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    // impl regions: (brace_open_tok, brace_close_tok, owner)
    let impls = find_impls(src, toks);
    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text(src) != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text(src).to_string();
        // scan for the body `{` at paren/bracket depth 0, or `;`
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut open = None;
        while j < n {
            match toks[j].text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let body = open.and_then(|o| {
            let mut d = 0i32;
            for (k, tok) in toks.iter().enumerate().skip(o) {
                match tok.text(src) {
                    "{" => d += 1,
                    "}" => {
                        d -= 1;
                        if d == 0 {
                            return Some((o, k));
                        }
                    }
                    _ => {}
                }
            }
            None
        });
        // method: first param token after the param-list `(` is `self`,
        // optionally behind `&`, a lifetime, and `mut`
        let is_method = {
            let mut k = i + 2;
            // skip generics before the param list
            let mut found = false;
            let limit = open.unwrap_or(j.min(n));
            while k < limit {
                if toks[k].text(src) == "(" {
                    found = true;
                    break;
                }
                k += 1;
            }
            if found {
                let mut p = k + 1;
                while p < limit
                    && (toks[p].text(src) == "&"
                        || toks[p].kind == TokKind::Lifetime
                        || toks[p].text(src) == "mut")
                {
                    p += 1;
                }
                p < limit && toks[p].text(src) == "self"
            } else {
                false
            }
        };
        let owner = impls
            .iter()
            .filter(|(o, c, _)| *o < i && i < *c)
            .min_by_key(|(o, c, _)| c - o)
            .map(|(_, _, name)| name.clone());
        fns.push(FnDef {
            name,
            is_method,
            owner,
            line: t.line,
            body,
        });
        i = open.map(|o| o + 1).unwrap_or(j.max(i + 1));
    }
    fns
}

/// Finds `impl` blocks and the last path segment of their self type.
fn find_impls(src: &str, toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let n = toks.len();
    let mut out = Vec::new();
    for i in 0..n {
        if toks[i].kind != TokKind::Ident || toks[i].text(src) != "impl" {
            continue;
        }
        // collect path idents at angle depth 0 until `{` / `where`;
        // a `for` resets (trait impls name the type after `for`)
        let mut angle = 0i32;
        let mut last_seg: Option<String> = None;
        let mut open = None;
        let mut j = i + 1;
        while j < n {
            let txt = toks[j].text(src);
            match txt {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "for" if angle <= 0 => last_seg = None,
                "where" if angle <= 0 => {}
                "{" if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" if angle <= 0 => break,
                _ => {
                    if toks[j].kind == TokKind::Ident && angle <= 0 && txt != "where" {
                        last_seg = Some(txt.to_string());
                    }
                }
            }
            j += 1;
        }
        let (Some(open), Some(name)) = (open, last_seg) else {
            continue;
        };
        // brace-match
        let mut d = 0i32;
        for (k, tok) in toks.iter().enumerate().skip(open) {
            match tok.text(src) {
                "{" => d += 1,
                "}" => {
                    d -= 1;
                    if d == 0 {
                        out.push((open, k, name));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> (ParsedFile, String) {
        let f = SourceFile::from_source("t.rs".into(), src.to_string());
        (ParsedFile::parse(&f), src.to_string())
    }

    #[test]
    fn finds_fns_methods_and_owners() {
        let src = "impl Cache {\n  fn lookup(&self, k: u64) -> u64 { k }\n}\nfn free_fn(x: u64) -> u64 { x }\nimpl Trait for Other { fn m(self) {} }\n";
        let (pf, src) = parsed(src);
        assert_eq!(pf.fns.len(), 3);
        assert_eq!(pf.fns[0].name, "lookup");
        assert!(pf.fns[0].is_method);
        assert_eq!(pf.fns[0].owner.as_deref(), Some("Cache"));
        assert_eq!(pf.fns[1].name, "free_fn");
        assert!(!pf.fns[1].is_method);
        assert_eq!(pf.fns[1].owner, None);
        assert_eq!(pf.fns[2].owner.as_deref(), Some("Other"));
        let _ = src;
    }

    #[test]
    fn call_sites_classify_forms() {
        let src = "fn f() { g(); self.h(); x.k(); Foo::new(); if (a) {} }\n";
        let (pf, src) = parsed(src);
        let (open, close) = pf.fns[0].body.unwrap();
        let calls = pf.call_sites(&src, open, close);
        let by_name: Vec<(&str, &CallKind)> =
            calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert!(by_name.contains(&("g", &CallKind::Free)));
        assert!(by_name
            .iter()
            .any(|(n, k)| *n == "h" && **k == CallKind::Method(Some("self".into()))));
        assert!(by_name
            .iter()
            .any(|(n, k)| *n == "k" && **k == CallKind::Method(Some("x".into()))));
        assert!(by_name
            .iter()
            .any(|(n, k)| *n == "new" && **k == CallKind::Path("Foo".into())));
        assert!(!by_name.iter().any(|(n, _)| *n == "if"));
    }

    #[test]
    fn for_loops_extract_vars_and_shape() {
        let src = "fn f(v: &[u64]) { for (i, x) in v.iter().enumerate() { let _ = i; } for t in 0..v.len() {} }\n";
        let (pf, src) = parsed(src);
        let (open, close) = pf.fns[0].body.unwrap();
        let loops = pf.for_loops(&src, open, close);
        assert_eq!(loops.len(), 2, "{loops:?}");
        assert_eq!(loops[0].vars, ["i", "x"]);
        assert!(loops[0].has_enumerate);
        assert!(!loops[0].is_range);
        assert_eq!(loops[1].vars, ["t"]);
        assert!(loops[1].is_range);
    }

    #[test]
    fn index_sites_and_fields() {
        let src = "fn f() { let a = xs[i]; let b = c.sel[j + 1]; let v = vec![1]; }\n";
        let (pf, src) = parsed(src);
        let (open, close) = pf.fns[0].body.unwrap();
        let sites = pf.index_sites(&src, open, close);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0].base, "xs");
        assert!(!sites[0].base_is_field);
        assert_eq!(sites[1].base, "sel");
        assert!(sites[1].base_is_field);
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let src = "fn outer() { fn inner() { marker(); } }\n";
        let (pf, src) = parsed(src);
        let (o, c) = pf.fns[1].body.unwrap();
        let calls = pf.call_sites(&src, o, c);
        let fi = pf.enclosing_fn(calls[0].tok).unwrap();
        assert_eq!(pf.fns[fi].name, "inner");
    }
}
