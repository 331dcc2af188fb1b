//! Lightweight source model for the lint passes.
//!
//! The passes operate on a *stripped* view of each file: comments and the
//! contents of string/char literals are blanked with spaces (newlines are
//! preserved), so pattern scans never match inside documentation or literal
//! text, and every byte offset in the stripped view maps to the same line
//! as in the raw file. Stripping is built on the real tokenizer in
//! [`crate::tokens`], so raw strings (`r#"…"#`), nested block comments and
//! escaped-quote char literals (`'\''`) are all handled exactly.
//!
//! The model also computes, per line:
//!
//! - whether the line sits inside a `#[cfg(test)] mod … { … }` region
//!   (test code is exempt from every pass), and
//! - inline waivers: a *plain* (non-doc) comment `jits-lint: allow(rule)`
//!   waives the named rule on its own line and the line below, mirroring
//!   `#[allow(..)]` ergonomics. Doc comments never declare waivers — they
//!   talk *about* the syntax too often.
//!
//! Waiver checks record which waivers actually suppressed something, so the
//! unused-waiver audit ([`SourceFile::unused_waivers`]) can keep the waiver
//! surface from outliving the code it excuses.

use crate::tokens::{self, TokKind};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// One loaded, pre-processed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as reported in violations (repo-relative when walking the repo).
    pub path: String,
    /// Raw file contents.
    pub raw: String,
    /// Contents with comments and literal bodies blanked (same length and
    /// line structure as `raw`).
    pub code: String,
    /// Per line (0-based): inside a `#[cfg(test)]` module.
    pub in_test: Vec<bool>,
    /// Per line (0-based): rules waived on this line.
    pub waivers: Vec<Vec<String>>,
    /// Waivers that suppressed at least one finding this run, keyed by
    /// (0-based waiver line, rule). Interior-mutable: recording a use is
    /// not a mutation of the source model.
    used_waivers: RefCell<BTreeSet<(usize, String)>>,
}

impl SourceFile {
    /// Loads and pre-processes a file.
    pub fn load(path: &Path, display_path: String) -> std::io::Result<SourceFile> {
        let raw = fs::read_to_string(path)?;
        Ok(SourceFile::from_source(display_path, raw))
    }

    /// Builds the model from in-memory source (used by unit tests).
    pub fn from_source(path: String, raw: String) -> SourceFile {
        let code = tokens::strip(&raw);
        let in_test = test_regions(&code);
        let waivers = parse_waivers(&raw);
        SourceFile {
            path,
            raw,
            code,
            in_test,
            waivers,
            used_waivers: RefCell::new(BTreeSet::new()),
        }
    }

    /// 1-based line number of a byte offset into `code`/`raw`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.code[..offset.min(self.code.len())]
            .bytes()
            .filter(|&b| b == b'\n')
            .count()
            + 1
    }

    /// True if the (1-based) line is inside a `#[cfg(test)]` module.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// True if `rule` is waived on the (1-based) line, either by a waiver
    /// comment on the line itself or on the line above. A `true` result
    /// records the match, marking the waiver as used for the audit — call
    /// this only when a finding is actually being suppressed.
    pub fn is_waived(&self, line: usize, rule: &str) -> bool {
        let idx = line.saturating_sub(1);
        let here = self
            .waivers
            .get(idx)
            .is_some_and(|ws| ws.iter().any(|w| w == rule));
        if here {
            self.used_waivers
                .borrow_mut()
                .insert((idx, rule.to_string()));
            return true;
        }
        let above = idx > 0
            && self
                .waivers
                .get(idx - 1)
                .is_some_and(|ws| ws.iter().any(|w| w == rule));
        if above {
            self.used_waivers
                .borrow_mut()
                .insert((idx - 1, rule.to_string()));
            return true;
        }
        false
    }

    /// Waivers that suppressed nothing this run: (1-based line, rule).
    /// Waivers inside `#[cfg(test)]` regions are exempt (the passes never
    /// fire there, so "unused" is meaningless).
    pub fn unused_waivers(&self) -> Vec<(usize, String)> {
        let used = self.used_waivers.borrow();
        let mut out = Vec::new();
        for (idx, rules) in self.waivers.iter().enumerate() {
            if self.is_test_line(idx + 1) {
                continue;
            }
            for rule in rules {
                if !used.contains(&(idx, rule.clone())) {
                    out.push((idx + 1, rule.clone()));
                }
            }
        }
        out
    }
}

/// Marks the lines covered by every `#[cfg(test)] mod … { … }` region.
fn test_regions(code: &str) -> Vec<bool> {
    let n_lines = code.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut mask = vec![false; n_lines];
    let b = code.as_bytes();
    let mut search = 0usize;
    while let Some(found) = code[search..].find("#[cfg(test)") {
        let attr = search + found;
        // the attribute itself is test-only code
        // find the `mod` keyword after the attribute (skipping more attrs)
        let j = attr;
        let body_open = match code[j..].find('{') {
            // require a `mod` keyword between the attribute and `{`;
            // `#[cfg(test)]` attached to something else (fn, use) is skipped
            Some(rel) if code[attr..j + rel].contains("mod ") => Some(j + rel),
            _ => None,
        };
        let Some(open) = body_open else {
            search = attr + 1;
            continue;
        };
        // brace-match
        let mut depth = 0usize;
        let mut k = open;
        while k < b.len() {
            match b[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let first = code[..attr].bytes().filter(|&x| x == b'\n').count();
        let last = code[..k.min(b.len())]
            .bytes()
            .filter(|&x| x == b'\n')
            .count();
        for line in mask.iter_mut().take(last + 1).skip(first) {
            *line = true;
        }
        search = k.min(b.len()).max(attr + 1);
    }
    mask
}

/// Parses `jits-lint: allow(rule-a, rule-b)` waiver comments per line.
/// Only plain comments qualify; doc comments (`///`, `//!`, `/**`, `/*!`)
/// are prose and often *mention* the waiver syntax.
fn parse_waivers(raw: &str) -> Vec<Vec<String>> {
    let n_lines = raw.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut out = vec![Vec::new(); n_lines];
    for tok in tokens::tokenize(raw) {
        let text = tok.text(raw);
        let is_plain = match tok.kind {
            TokKind::LineComment => !text.starts_with("///") && !text.starts_with("//!"),
            TokKind::BlockComment => !text.starts_with("/**") && !text.starts_with("/*!"),
            _ => false,
        };
        if !is_plain {
            continue;
        }
        let mut search = 0usize;
        while let Some(pos) = text[search..].find("jits-lint: allow(") {
            let at = search + pos;
            let rest = &text[at + "jits-lint: allow(".len()..];
            let Some(end) = rest.find(')') else {
                break;
            };
            // the waiver's line within a (possibly multi-line) comment
            let line = tok.line + text[..at].bytes().filter(|&b| b == b'\n').count();
            for rule in rest[..end].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    out[line - 1].push(rule.to_string());
                }
            }
            search = at + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::strip;

    #[test]
    fn strips_comments_and_strings() {
        let src = "let x = \"Instant::now()\"; // Instant::now()\nlet y = 1; /* panic!() */\n";
        let s = strip(src);
        assert!(!s.contains("Instant::now"));
        assert!(!s.contains("panic!"));
        assert_eq!(s.len(), src.len());
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn strips_raw_strings_and_chars() {
        let src =
            "let p = r#\"unwrap()\"#; let c = 'u'; let nl = '\\n'; let lt: &'static str = \"x\";";
        let s = strip(src);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("'static"), "lifetimes survive: {s}");
    }

    #[test]
    fn escaped_quote_char_literal_leaves_no_stray_quote() {
        // regression: the pre-tokenizer stripper blanked only part of `'\''`
        // and leaked a stray `'` that corrupted everything after it
        let src = "let q = '\\''; let z = \"secret()\"; tail()";
        let s = strip(src);
        assert!(!s.contains('\''), "{s}");
        assert!(!s.contains("secret"), "{s}");
        assert!(s.contains("tail()"), "{s}");
    }

    #[test]
    fn raw_string_with_embedded_quote_hash_terminates_correctly() {
        // regression: `"#` inside an r##-string must not close it
        let src = "let p = r##\"has \"# inside\"##; after()";
        let s = strip(src);
        assert!(!s.contains("inside"), "{s}");
        assert!(s.contains("after()"), "{s}");
    }

    #[test]
    fn nested_block_comments_terminate_at_outer_close() {
        let src = "/* a /* b */ hidden() */ visible()";
        let s = strip(src);
        assert!(!s.contains("hidden"), "{s}");
        assert!(s.contains("visible()"), "{s}");
    }

    #[test]
    fn doc_comments_do_not_leak() {
        let src = "/// call .unwrap() freely\nfn f() {}\n//! SystemTime::now\n";
        let s = strip(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("SystemTime"));
    }

    #[test]
    fn test_region_detection() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::from_source("t.rs".into(), src.into());
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn waivers_cover_same_and_next_line() {
        let src = "// jits-lint: allow(hash-iteration) -- sorted right after\nfor v in map.iter() {}\nfor v in map.iter() {}\n";
        let f = SourceFile::from_source("t.rs".into(), src.into());
        assert!(f.is_waived(1, "hash-iteration"));
        assert!(f.is_waived(2, "hash-iteration"));
        assert!(!f.is_waived(3, "hash-iteration"));
        assert!(!f.is_waived(2, "epoch-safety"));
    }

    #[test]
    fn doc_comments_do_not_declare_waivers() {
        let src = "//! Waive with `jits-lint: allow(epoch-safety)`.\nfn f() {}\n";
        let f = SourceFile::from_source("t.rs".into(), src.into());
        assert!(!f.is_waived(1, "epoch-safety"));
        assert!(!f.is_waived(2, "epoch-safety"));
        assert!(f.unused_waivers().is_empty());
    }

    #[test]
    fn waiver_usage_is_recorded_for_the_audit() {
        let src = "// jits-lint: allow(hash-iteration) -- used below\nm.iter();\n// jits-lint: allow(batch-bounds) -- stale\nlet x = 1;\n";
        let f = SourceFile::from_source("t.rs".into(), src.into());
        assert!(f.is_waived(2, "hash-iteration"));
        let unused = f.unused_waivers();
        assert_eq!(unused, vec![(3, "batch-bounds".to_string())]);
    }
}
