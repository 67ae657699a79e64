//! Source discovery and the per-line source model the rules run over.
//!
//! Each file is lexed exactly once (`lex::lex`); the token stream is
//! kept on the [`SourceFile`] for the token-level rules, and every
//! per-line view the line rules read is derived from it: the "code"
//! view with comments removed and string/char literal *contents*
//! blanked, the comment text (suppressions and justification comments
//! live there), and which lines belong to `#[cfg(test)]` items. It is
//! a line/token model in the spirit of rust-lang's `tidy`, not a Rust
//! parser: enough precision for the workspace's rule set while keeping
//! the crate dependency-free and fast.

use crate::lex::{lex, Tok, TokKind};
use std::fs;
use std::path::{Path, PathBuf};

/// One physical source line, split into views the rules consume.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// The line exactly as it appears in the file.
    pub raw: String,
    /// The line with comments removed and string/char literal contents
    /// blanked (quotes remain, contents do not), so token searches never
    /// match inside literals or comments.
    pub code: String,
    /// The comment text on this line, including its leading `//`, `///`,
    /// `//!` or `/*` marker; empty when the line has no comment.
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

impl SourceLine {
    /// Whether the line carries any non-comment code.
    pub fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }

    /// Whether the line's comment is a doc comment (`///` or `//!`).
    pub fn is_doc_comment(&self) -> bool {
        self.comment.starts_with("///") || self.comment.starts_with("//!")
    }
}

/// One scanned `.rs` file plus the workspace context rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// The owning crate (`adc-core`, `adc-sim`, ...), from the
    /// `crates/<name>/src/...` path shape.
    pub krate: String,
    /// Whether this is library code: under `src/`, not under `src/bin/`
    /// and not a `main.rs`.
    pub is_lib: bool,
    /// One entry per line of `text.lines()`, so line `i` is 1-based
    /// line `i + 1` everywhere (findings, `--fix`).
    pub lines: Vec<SourceLine>,
    /// The file's token stream; the per-line views derive from it.
    pub toks: Vec<Tok>,
}

impl SourceFile {
    /// Whether a 1-based line is test-only: inside a `#[cfg(test)]`
    /// region, or anywhere in an integration-test file.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.rel.contains("/tests/")
            || self
                .lines
                .get(line.saturating_sub(1))
                .is_some_and(|l| l.in_test)
    }

    /// The tokens in a half-open index range (clamped to the stream),
    /// as the symbol index records item bodies and initializers.
    pub fn toks_in(&self, (from, to): (usize, usize)) -> &[Tok] {
        &self.toks[from.min(self.toks.len())..to.min(self.toks.len())]
    }
}

/// Walks `root/crates/*/src` and `root/crates/*/tests` and returns
/// every `.rs` file outside `crates/adc-lint`, sorted by relative path
/// so output and JSON are stable across platforms. The lint does not
/// lint itself: its sources quote suppression syntax in docs and
/// fixtures, and no rule scopes it anyway. Integration-test files scan as non-library
/// (`is_lib == false`), so only the rules that opt into test code (the
/// metric-name agreement check, suppression handling) see them.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let krate = match crate_dir.file_name().and_then(|n| n.to_str()) {
            Some(name) if name != "adc-lint" => name.to_string(),
            _ => continue,
        };
        let mut rs_files = Vec::new();
        for sub in ["src", "tests"] {
            let dir = crate_dir.join(sub);
            if dir.is_dir() {
                collect_rs_files(&dir, &mut rs_files)?;
            }
        }
        rs_files.sort();
        for path in rs_files {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let is_lib =
                rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("/main.rs");
            files.push(parse_source(&rel, &krate, is_lib, &text));
        }
    }
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses raw source text into the per-line model. Public so tests and
/// fixtures can run rules over in-memory snippets.
pub fn parse_source(rel: &str, krate: &str, is_lib: bool, text: &str) -> SourceFile {
    let toks = lex(text);
    let mut lines = line_views(text, &toks);
    for (first, last) in cfg_test_regions(&toks) {
        for line in lines.iter_mut().take(last).skip(first - 1) {
            line.in_test = true;
        }
    }
    SourceFile {
        rel: rel.to_string(),
        krate: krate.to_string(),
        is_lib,
        lines,
        toks,
    }
}

/// Builds one [`SourceLine`] per entry of `text.lines()` from the token
/// stream: comment tokens feed the comment view (a multi-line block
/// comment is split at its line breaks), a string literal becomes `""`
/// (one quote on its first line, one on its last), a char literal
/// becomes `' '`, and every other token and the whitespace between
/// tokens is copied into the code view as-is.
fn line_views(text: &str, toks: &[Tok]) -> Vec<SourceLine> {
    let mut out = Vec::new();
    let mut k = 0;
    for raw in text.lines() {
        // `lines()` yields subslices of `text`, so the pointer difference
        // is the line's byte offset; `to` excludes the line terminator.
        let from = raw.as_ptr() as usize - text.as_ptr() as usize;
        let to = from + raw.len();
        let mut code = String::new();
        let mut comment = String::new();
        while toks.get(k).is_some_and(|t| t.end <= from) {
            k += 1;
        }
        let mut cursor = from;
        for t in toks[k..].iter().take_while(|t| t.start < to) {
            let (a, b) = (t.start.max(from), t.end.min(to));
            code.push_str(&text[cursor..a]);
            match t.kind {
                TokKind::Comment => comment.push_str(&text[a..b]),
                TokKind::Str => {
                    if t.start >= from {
                        code.push('"');
                    }
                    if t.end <= to {
                        code.push('"');
                    }
                }
                TokKind::Char => code.push_str("' '"),
                _ => code.push_str(&text[a..b]),
            }
            cursor = b;
        }
        code.push_str(&text[cursor..to]);
        out.push(SourceLine {
            raw: raw.to_string(),
            code,
            comment,
            in_test: false,
        });
    }
    out
}

/// 1-based inclusive line ranges of every `#[cfg(test)]` or
/// `#[cfg(all(test, ...))]` item: from the attribute to the `}` closing
/// the first `{` after it, or to the first `;` at depth 0 when no `{`
/// comes first (`#[cfg(test)] use ...;`). Braces inside literals and
/// comments are not punctuation tokens, so they cannot unbalance it.
fn cfg_test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let view: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let spells = |at: usize, words: &[&str]| {
        words.iter().enumerate().all(|(o, w)| {
            view.get(at + o)
                .is_some_and(|t| matches!(t.kind, TokKind::Punct | TokKind::Ident) && t.text == *w)
        })
    };
    let mut regions = Vec::new();
    let mut k = 0;
    while k < view.len() {
        let attr = spells(k, &["#", "[", "cfg", "("])
            && (spells(k + 4, &["test", ")"]) || spells(k + 4, &["all", "(", "test"]));
        if !attr {
            k += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        let mut end = view.len();
        for (j, t) in view.iter().enumerate().skip(k) {
            let closes = match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    depth += 1;
                    opened = true;
                    false
                }
                (TokKind::Punct, "}") => {
                    depth -= 1;
                    opened && depth <= 0
                }
                (TokKind::Punct, ";") => !opened && depth == 0,
                _ => false,
            };
            if closes {
                end = j;
                break;
            }
        }
        // An item left open at end of input runs to the last line.
        let last = view.get(end).map_or(usize::MAX, |t| t.line);
        regions.push((view[k].line, last));
        k = end + 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        parse_source("crates/x/src/lib.rs", "x", true, text)
    }

    #[test]
    fn strings_and_comments_are_stripped_from_code() {
        let f = parse("let x = \"HashMap in a string\"; // HashMap in a comment\nlet y = 1;");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
        assert!(f.lines[0].has_code());
    }

    #[test]
    fn raw_strings_are_stripped() {
        let f = parse("let x = r#\"unwrap() . \"#; let z = 2;");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let z = 2;"));
        // A raw byte string ending in a backslash: the backslash escapes
        // nothing, so the quote after it closes the literal.
        let f = parse("let p = br\"dir\\\"; let m = HashMap::new();\nlet n = 1;");
        assert_eq!(f.lines[0].code, "let p = \"\"; let m = HashMap::new();");
        assert_eq!(f.lines[1].code, "let n = 1;");
    }

    #[test]
    fn multi_line_strings_keep_one_quote_at_each_end() {
        let f = parse("let s = \"HashMap\nunwrap()\nSystemTime\"; x();");
        let code: Vec<&str> = f.lines.iter().map(|l| l.code.as_str()).collect();
        assert_eq!(code, vec!["let s = \"", "", "\"; x();"]);
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let f = parse("let q = '\"'; let h = \"HashMap\";");
        assert!(!f.lines[0].code.contains("HashMap"));
        let f = parse("let a = '\\''; let b = b'x'; let c = '{';");
        assert_eq!(f.lines[0].code, "let a = ' '; let b = b' '; let c = ' ';");
    }

    #[test]
    fn lifetimes_are_kept_as_code() {
        let f = parse("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = parse("/* HashMap\n still HashMap */ let x = 1;");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("let x = 1;"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let f = parse("/// docs with unwrap()\npub fn g() {}");
        assert!(!f.lines[0].has_code());
        assert!(f.lines[0].is_doc_comment());
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text =
            "pub fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\npub fn c() {}";
        let f = parse(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_use_ends_at_its_semicolon() {
        let text = "#[cfg(test)]\nuse std::collections::HashMap;\npub fn a() {}\n\
                    #[cfg(all(test, feature = \"x\"))] use y;\npub fn b() {}";
        let f = parse(text);
        let in_test: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(in_test, vec![true, true, false, true, false]);
    }

    #[test]
    fn braces_in_literals_and_comments_do_not_unbalance_test_regions() {
        let text = "#[cfg(test)]\nmod t {\n  const O: &str = \"{{\"; // }\n  const C: char = '}';\n}\nfn real() {}";
        let f = parse(text);
        assert!(f.lines[..5].iter().all(|l| l.in_test));
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn views_follow_text_lines_for_crlf_and_missing_final_newline() {
        for text in [
            "fn a() {} // one\r\n/* two\r\n three */ let b = \"s\";\r\nlet c = 3;",
            "fn a() {} // one\n/* two\n three */ let b = \"s\";\nlet c = 3;\n",
        ] {
            let f = parse(text);
            assert_eq!(f.lines.len(), text.lines().count());
            let raw: Vec<&str> = f.lines.iter().map(|l| l.raw.as_str()).collect();
            assert_eq!(raw, text.lines().collect::<Vec<_>>());
            let code: Vec<&str> = f.lines.iter().map(|l| l.code.as_str()).collect();
            assert_eq!(code, vec!["fn a() {} ", "", " let b = \"\";", "let c = 3;"]);
            let comment: Vec<&str> = f.lines.iter().map(|l| l.comment.as_str()).collect();
            assert_eq!(comment, vec!["// one", "/* two", " three */", ""]);
        }
    }

    #[test]
    fn nested_braces_inside_test_mod_are_tracked() {
        let text = "#[cfg(test)]\nmod t {\n fn a() { if x { y(); } }\n}\nfn real() {}";
        let f = parse(text);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[4].in_test);
    }
}
