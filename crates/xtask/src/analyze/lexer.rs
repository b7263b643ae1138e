//! A dependency-free Rust token lexer with source positions.
//!
//! `syn`/`proc-macro2` are unavailable offline, so xtask carries its
//! own lexer — the only one: every pass, the determinism lint included,
//! reads this stream. It produces a flat token stream — identifiers,
//! punctuation, string/char/number literals, lifetimes — with a 1-based
//! line for every token, while stripping comments (line, and nested
//! block), recording `lint:allow(...)` comments per line, and marking
//! which tokens sit inside `#[cfg(test)]` regions. String literal
//! *contents* are kept as one `Str` token (so a `HashMap` inside a
//! string is never an identifier): the registry pass needs the literal
//! component/kind/key arguments at emission call sites.

use std::collections::{BTreeMap, BTreeSet};

/// Kind of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `impl`, `HashMap`, …).
    Ident,
    /// String or byte-string literal (plain or raw); `text` holds the
    /// contents with simple escapes decoded.
    Str,
    /// Char or byte-char literal (contents discarded).
    Char,
    /// Numeric literal (contents kept verbatim).
    Num,
    /// Lifetime (`'a`, `'static`); `text` holds the name without `'`.
    Lifetime,
    /// One punctuation character (`{`, `:`, `!`, …). Multi-character
    /// operators arrive as consecutive single-char tokens.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for per-kind contents).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// True when the token is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes() == [c as u8]
    }

    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// A lexed file: the token stream plus per-line `lint:allow` rule sets.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream in source order.
    pub toks: Vec<Tok>,
    /// 1-based line → rule names allowed on that line.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
    /// Parallel to `toks`: true for tokens inside a `#[cfg(test)]`
    /// region (attribute through the item's closing brace).
    pub in_test: Vec<bool>,
}

impl Lexed {
    /// True when `line` (or the line directly above) carries
    /// `lint:allow(rule)` — the line-scoped binding every pass shares.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows.get(&line).is_some_and(|s| s.contains(rule))
            || (line > 1
                && self
                    .allows
                    .get(&(line - 1))
                    .is_some_and(|s| s.contains(rule)))
    }
}

/// Lexes `source` into a token stream. Never fails: unterminated
/// constructs simply end the stream at end of input.
pub fn lex(source: &str) -> Lexed {
    let b: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                record_allows(&text, line, &mut out.allows);
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text: String = b[start..i.min(b.len())].iter().collect();
                record_allows(&text, start_line, &mut out.allows);
            }
            '"' => {
                let start_line = line;
                let mut s = String::new();
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => {
                            match b.get(i + 1) {
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some('r') => s.push('\r'),
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                Some('\n') => line += 1, // line continuation
                                _ => {}
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            s.push('\n');
                            line += 1;
                            i += 1;
                        }
                        ch => {
                            s.push(ch);
                            i += 1;
                        }
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: s,
                    line: start_line,
                });
            }
            'r' if matches!(b.get(i + 1), Some(&'"') | Some(&'#')) && raw_string_at(&b, i) => {
                let start_line = line;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                // raw_string_at guaranteed b[j] == '"'.
                i = j + 1;
                let mut s = String::new();
                'raw: while i < b.len() {
                    if b[i] == '\n' {
                        line += 1;
                    } else if b[i] == '"' {
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while seen < hashes && b.get(k) == Some(&'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            i = k;
                            break 'raw;
                        }
                    }
                    s.push(b[i]);
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: s,
                    line: start_line,
                });
            }
            '\'' => {
                // Char literal vs lifetime. A char literal closes within a
                // few chars; a lifetime is 'ident with no closing quote.
                if b.get(i + 1) == Some(&'\\') {
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                } else if b.get(i + 2) == Some(&'\'') {
                    i += 3;
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                } else {
                    // Lifetime: 'ident with no closing quote.
                    let start = i + 1;
                    let mut j = start;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[start..j].iter().collect(),
                        line,
                    });
                    i = j;
                }
            }
            // Byte-string prefixes: skip the `b` so the string / raw-string
            // branch handles the body next iteration. These arms only fire
            // when `b` starts a token (a preceding identifier would have
            // been consumed whole by the ident branch below).
            'b' if b.get(i + 1) == Some(&'"') => i += 1,
            'b' if b.get(i + 1) == Some(&'r') && raw_string_at(&b, i + 1) => i += 1,
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop `1..=2` range punctuation from being eaten.
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out.in_test = test_regions(&out.toks);
    out
}

/// Marks the tokens of every `#[cfg(test)]` item by brace matching: the
/// attribute arms the next `{`, whose region runs to its matching `}`;
/// a `;` first means the attribute scoped one braceless item
/// (`#[cfg(test)] use …;`) and disarms it.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    // Brace depths at which test regions opened.
    let mut open: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut pending = false;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let mut next = i + 1;
        let mut closed = false;
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Attribute `#[ ... ]`: detect cfg(test) anywhere inside.
            let (mut bd, mut saw_cfg, mut saw_test) = (1usize, false, false);
            next = i + 2;
            while next < toks.len() && bd > 0 {
                let tj = &toks[next];
                if tj.is_punct('[') {
                    bd += 1;
                } else if tj.is_punct(']') {
                    bd -= 1;
                }
                saw_cfg |= tj.is_ident("cfg");
                saw_test |= tj.is_ident("test");
                next += 1;
            }
            pending |= saw_cfg && saw_test;
        } else if t.is_punct('{') {
            depth += 1;
            if pending {
                open.push(depth);
                pending = false;
            }
        } else if t.is_punct('}') {
            closed = open.last() == Some(&depth);
            depth = depth.saturating_sub(1);
        }
        let inside = pending || !open.is_empty();
        mask[i..next].fill(inside);
        if closed {
            open.pop();
        }
        if t.is_punct(';') {
            pending = false;
        }
        i = next;
    }
    mask
}

/// True when the `r` at `i` starts a raw string (`r"`, `r#"`, `r##"`, …)
/// rather than a raw identifier (`r#type`) or a plain ident.
fn raw_string_at(b: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

/// Records every rule named in `lint:allow(a, b)` comments onto `line`.
/// Every name is kept: each pass looks up the ones it understands
/// (`unwrap`, `expect`, `index`, `alloc`, `cast`, …).
fn record_allows(comment: &str, line: usize, allows: &mut BTreeMap<usize, BTreeSet<String>>) {
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        let tail = &rest[at + "lint:allow(".len()..];
        let Some(close) = tail.find(')') else { break };
        for rule in tail[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                allows.entry(line).or_default().insert(rule.to_string());
            }
        }
        rest = &tail[close..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(l: &Lexed) -> Vec<(&str, usize)> {
        l.toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect()
    }

    #[test]
    fn basic_stream_with_lines() {
        let l = lex("fn foo() {\n    bar();\n}\n");
        assert_eq!(idents(&l), vec![("fn", 1), ("foo", 1), ("bar", 2)]);
    }

    #[test]
    fn string_contents_are_kept_with_escapes_decoded() {
        let l = lex("emit(\"net\", \"a\\\"b\")");
        let strs: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["net", "a\"b"]);
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex("let x = r#\"multi\nline \"q\" body\"#; r#type");
        let strs: Vec<(&str, usize)> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(strs, vec![("multi\nline \"q\" body", 1)]);
        // Raw identifier survives as ident tokens, and line advanced past
        // the embedded newline.
        let last = l.toks.last().expect("tokens");
        assert_eq!((last.text.as_str(), last.line), ("type", 2));
    }

    #[test]
    fn comments_stripped_and_allows_recorded() {
        let l = lex("a(); // lint:allow(unwrap, index)\n/* nested /* deep */ lint:allow(threads) */\nb();\n");
        assert!(l.allowed(1, "unwrap"));
        assert!(l.allowed(1, "index"));
        assert!(l.allowed(2, "threads"));
        assert!(l.allowed(3, "threads"), "allow reaches the next line");
        assert!(!l.allowed(3, "unwrap"));
        assert_eq!(idents(&l), vec![("a", 1), ("b", 3)]);
    }

    #[test]
    fn lifetimes_chars_numbers() {
        let l = lex("fn f<'a>(x: &'a str) -> char { '\\n' } let n = 1_000u64; let r = 0..=2;");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Char));
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1_000u64"));
        // Range `0..=2` keeps its punctuation.
        assert!(l.toks.iter().filter(|t| t.is_punct('.')).count() >= 2);
    }

    #[test]
    fn byte_strings_lex_as_strings() {
        let l = lex("let x = b\"bytes\"; let y = br#\"raw bytes\"#;");
        let strs: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["bytes", "raw bytes"]);
    }
}
