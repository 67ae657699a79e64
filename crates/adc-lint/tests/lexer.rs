//! Property tests for the token lexer and the line views derived from
//! it.
//!
//! A deterministic PRNG (no proptest dependency) strings together
//! Rust-ish fragments. On well-formed snippets the per-line views
//! `scan::parse_source` derives from the tokens must hide every
//! literal and comment body from the code view and keep every comment
//! in the comment view of its line; on any snippet (hostile tails
//! included) the lexer must not panic and must keep the structural
//! invariants every downstream pass relies on.

use adc_lint::lex::lex;
use adc_lint::scan::parse_source;

/// Minimal multiplicative-congruential PRNG (Lehmer / MINSTD values),
/// deterministic across platforms so failures reproduce from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[(self.next() as usize) % xs.len()]
    }
}

/// Well-formed fragments: every literal and comment is terminated.
const WELL_FORMED: &[&str] = &[
    "fn f() { g(); }",
    "let x = 1;",
    "let y = 1.5e3 + 0x_ff;",
    "let s = \"text with spaces\";",
    "let e = \"esc \\\" quote\";",
    "let r = r\"raw body\";",
    "let rh = r#\"raw \"q\" body\"#;",
    "let c = 'x';",
    "let nl = '\\n';",
    "fn g<'a>(v: &'a str) -> &'a str { v }",
    "// line comment with fn and \" quote\n",
    "/// doc comment\n",
    "/* block */",
    "/* multi\nline\nblock */",
    "/* nested /* inner */ outer */",
    "a.b.c(0..5);",
    "m::n::p(x => y);",
    "#[cfg(test)]\n",
    "\n",
    "    ",
    "let t = (1, [2, 3], {4});",
];

/// Words that occur only inside the string, char and comment bodies of
/// [`WELL_FORMED`], never in its code: none may reach a code view.
const BODY_WORDS: &[&str] = &[
    "text", "spaces", "esc", "quote", "raw", "body", "line", "comment", "doc", "block", "multi",
    "inner", "outer", "'x'", "'\\n'",
];

/// Hostile fragments for the lexer invariants only: unterminated
/// constructs, whose classification at EOF is left unspecified.
const HOSTILE: &[&str] = &[
    "\"unterminated",
    "r#\"unterminated raw",
    "/* unterminated block",
    "'",
    "'\\",
    "r#",
    "b",
    "\\",
    "\u{1F980} unicode 🦀",
    "'lt",
];

/// Checks the derived line views of a well-formed snippet built from
/// `fragments`, each starting on a fresh line.
fn assert_views(text: &str, fragments: &[&str], seed: u64) {
    let file = parse_source("crates/x/src/lib.rs", "x", true, text);
    assert_eq!(file.lines.len(), text.lines().count(), "seed {seed}");
    for (i, line) in file.lines.iter().enumerate() {
        for word in BODY_WORDS {
            assert!(
                !line.code.contains(word),
                "seed {seed}: `{word}` leaked into the code view of line {}: {:?}",
                i + 1,
                line.code
            );
        }
    }
    let mut at = 0;
    for fragment in fragments {
        let is_comment = fragment.starts_with("//") || fragment.starts_with("/*");
        for (off, piece) in fragment.lines().enumerate() {
            let line = &file.lines[at + off];
            if is_comment {
                assert_eq!(line.comment, piece, "seed {seed}, line {}", at + off + 1);
                assert!(!line.has_code(), "seed {seed}, line {}", at + off + 1);
            } else {
                assert!(
                    line.comment.is_empty(),
                    "seed {seed}, line {}",
                    at + off + 1
                );
            }
        }
        // Each fragment is followed by one '\n'; one ending in '\n' adds
        // an empty line.
        at += fragment.lines().count() + usize::from(fragment.ends_with('\n'));
    }
}

/// Property: on generated well-formed snippets the derived views hide
/// literal and comment bodies from code and keep comments on their
/// lines; on any snippet (hostile tails included) the lexer does not
/// panic and returns tokens with sorted, in-bounds, non-overlapping
/// spans and non-decreasing line numbers.
#[test]
fn generated_snippets_hold_lexer_invariants() {
    for seed in 0..300u64 {
        let mut rng = Rng(seed.wrapping_mul(2654435761).wrapping_add(seed) | 1);
        let n = 1 + (rng.next() as usize) % 40;
        let mut text = String::new();
        let mut fragments = Vec::new();
        for _ in 0..n {
            let fragment = rng.pick(WELL_FORMED);
            text.push_str(fragment);
            text.push('\n');
            fragments.push(fragment);
        }
        assert_views(&text, &fragments, seed);

        // Hostile tail: lexer invariants only.
        let mut hostile = text;
        hostile.push_str(rng.pick(HOSTILE));
        let toks = lex(&hostile);
        let mut prev_end = 0;
        let mut prev_line = 1;
        for t in &toks {
            assert!(t.start >= prev_end, "overlapping spans in seed {seed}");
            assert!(t.end >= t.start, "inverted span in seed {seed}");
            assert!(t.end <= hostile.len(), "span out of bounds in seed {seed}");
            assert!(
                hostile.is_char_boundary(t.start) && hostile.is_char_boundary(t.end),
                "span splits a char in seed {seed}"
            );
            assert!(t.line >= prev_line, "line went backwards in seed {seed}");
            prev_end = t.end;
            prev_line = t.line;
        }
        // The derived views must not panic on unterminated input either.
        let file = parse_source("crates/x/src/lib.rs", "x", true, &hostile);
        assert_eq!(file.lines.len(), hostile.lines().count(), "seed {seed}");
        // Determinism: lexing is a pure function of the input.
        assert_eq!(toks.len(), lex(&hostile).len(), "non-deterministic lex");
    }
}
