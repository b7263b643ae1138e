//! A dependency-free Rust token lexer with source positions.
//!
//! `syn`/`proc-macro2` are unavailable offline, so xtask carries its
//! own lexer — the only one: every pass reads this stream. It produces
//! a flat token stream — identifiers, punctuation, string/char/number
//! literals, lifetimes — with a 1-based line for every token, while
//! stripping comments (line, and nested block), recording the rules
//! `lint:allow` comments name per line, and marking which tokens sit
//! inside `#[cfg(test)]` regions. String literal *contents* are kept as
//! one `Str` token (so a `HashMap` inside a string is never an
//! identifier): the registry pass needs the literal component/kind/key
//! arguments at emission call sites.

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
    /// True when `line` (or the line directly above) carries a
    /// `lint:allow` comment naming `rule` — the line-scoped binding every
    /// pass shares.
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

/// Records every rule a `lint:allow` comment names (comma-separated)
/// onto `line`.
/// Every name is kept: each pass looks up the one it understands
/// (`cast`).
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

    fn strs(l: &Lexed) -> Vec<(&str, usize)> {
        l.toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| (t.text.as_str(), t.line))
            .collect()
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex("let x = r#\"multi\nline \"q\" body\"#; r#type");
        assert_eq!(strs(&l), vec![("multi\nline \"q\" body", 1)]);
        // Raw identifier survives as ident tokens, and line advanced past
        // the embedded newline.
        let last = l.toks.last().expect("tokens");
        assert_eq!((last.text.as_str(), last.line), ("type", 2));
        // Hash depth 2: an embedded `"#` does not close the string early,
        // and the code after it keeps its line.
        let l = lex("const R: &str = r##\"has \"# inside HashMap\"##;\nfn g() {}\n");
        assert_eq!(strs(&l), vec![("has \"# inside HashMap", 1)]);
        assert_eq!(
            idents(&l),
            vec![("const", 1), ("R", 1), ("str", 1), ("fn", 2), ("g", 2)]
        );
        // Three lines of raw string: the next item is on line 4.
        let l = lex("const R: &str = r#\"one HashMap\ntwo SystemTime\nthree\"#;\nfn g() {}\n");
        assert_eq!(idents(&l)[3..], [("fn", 4), ("g", 4)]);
    }

    #[test]
    fn multi_line_strings_keep_later_lines_straight() {
        let l = lex("const S: &str = \"first HashMap\nsecond\";\nfn g() {}\n");
        assert_eq!(strs(&l), vec![("first HashMap\nsecond", 1)]);
        assert_eq!(idents(&l)[3..], [("fn", 3), ("g", 3)]);
        // A `\`-newline continuation still advances the line counter.
        let l = lex("const S: &str = \"continued \\\n tail HashMap\";\nfn g() {}\n");
        assert_eq!(strs(&l).len(), 1);
        assert_eq!(idents(&l)[3..], [("fn", 3), ("g", 3)]);
    }

    #[test]
    fn string_and_comment_contents_are_inert() {
        let l = lex("// HashMap is banned here\nfn f() -> &'static str { \"HashMap Instant::now .unwrap()\" }\nconst R: &str = r#\"SystemTime panic!\"#;\n/* outer /* inner HashMap */ still SystemTime */\nfn g() {}\n");
        assert_eq!(
            idents(&l),
            vec![
                ("fn", 2),
                ("f", 2),
                ("str", 2),
                ("const", 3),
                ("R", 3),
                ("str", 3),
                ("fn", 5),
                ("g", 5),
            ]
        );
        assert!(!l.toks.iter().any(|t| t.is_punct('!')));
    }

    #[test]
    fn comments_stripped_and_allows_recorded() {
        let l = lex(
            "a(); // lint:allow(other, cast)\n/* nested /* deep */ lint:allow(cast) */\nb();\n",
        );
        assert!(l.allowed(1, "other"));
        assert!(l.allowed(1, "cast"));
        assert!(l.allowed(2, "cast"));
        assert!(l.allowed(3, "cast"), "allow reaches the next line");
        assert!(!l.allowed(3, "other"));
        assert_eq!(idents(&l), vec![("a", 1), ("b", 3)]);
        // An allow inside a nested block comment spanning lines 1–3 lands
        // on the comment's start line (and the line after it).
        let l = lex("/* outer\n /* deep */\n lint:allow(cast) */\nc();\n");
        assert_eq!(l.allows.keys().collect::<Vec<_>>(), vec![&1]);
        assert!(l.allowed(2, "cast"));
        assert!(!l.allowed(3, "cast"));
        assert_eq!(idents(&l), vec![("c", 4)]);
    }

    #[test]
    fn allow_binds_to_its_own_line_and_the_next() {
        // On a multi-line chain the allow has to sit on (or directly
        // above) the site's line: one on the statement's first line does
        // not reach two lines down.
        let chain = |c2: &str, c3: &str, c4: &str| {
            lex(&format!("fn f(o: Option<u8>) -> u8 {{\n    o{c2}\n        .map(|x| x + 1){c3}\n        .unwrap(){c4}\n}}\n"))
        };
        let allow = " // lint:allow(cast)";
        assert!(chain("", "", allow).allowed(4, "cast"));
        assert!(chain("", allow, "").allowed(4, "cast"));
        assert!(!chain(allow, "", "").allowed(4, "cast"));
        let l = chain("", "", "");
        let unwrap = l.toks.iter().find(|t| t.is_ident("unwrap"));
        assert_eq!(unwrap.map(|t| t.line), Some(4));
        // …and only for the rule it names.
        assert!(!chain("", "", allow).allowed(4, "other"));
    }

    #[test]
    fn lifetimes_chars_numbers() {
        let l = lex("fn f<'a>(x: &'a str) -> char { '\\n' } let n = 1_000u64; let r = 0..=2;\nfn g<'b>(o: &'b str) {}\n");
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
        // A lifetime is not an unterminated char literal: the tokens after
        // it, and on the next line, keep their lines.
        let tail: Vec<(&str, usize)> = idents(&l).into_iter().skip(9).collect();
        assert_eq!(tail, vec![("fn", 2), ("g", 2), ("o", 2), ("str", 2)]);
    }

    #[test]
    fn cfg_test_regions_end_with_their_item() {
        // The identifiers outside every `#[cfg(test)]` region.
        let live = |src: &str| -> Vec<String> {
            let l = lex(src);
            let pairs = l.toks.iter().zip(&l.in_test);
            let live = pairs.filter(|(t, &m)| t.kind == TokKind::Ident && !m);
            live.map(|(t, _)| t.text.clone()).collect()
        };
        // A test module closes at its brace; code after it is live.
        let got = live("#[cfg(test)]\nmod tests { fn t() {} }\nfn after() {}\n");
        assert_eq!(got, vec!["fn", "after"]);
        // A braceless `#[cfg(test)]` item ends at its `;`: the next
        // item's braces are not a test body.
        let got = live("#[cfg(test)]\nuse x::HashMap;\nfn lib() {}\n");
        assert_eq!(got, vec!["fn", "lib"]);
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
