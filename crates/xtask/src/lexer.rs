//! A small dependency-free Rust lexer for the `cargo xtask audit` rule
//! engine.
//!
//! A line-by-line scan over text with comments and strings blanked out is
//! blind to token boundaries (`MyHashMap` would match `HashMap`) and cannot
//! express structural rules like "every `Ordering::*` use needs a
//! justification" or "this lock is acquired while that one is held". This module
//! lexes source into a flat token stream with line numbers, plus a
//! delimiter-matching table, which is all the structure the rules in
//! [`crate::rules`] need:
//!
//! * Comments are **kept as tokens** (the justification-comment rules need
//!   them); string/char literal *content* is opaque (only the fact that a
//!   literal sits there is recorded), so prose can never false-positive.
//! * Raw strings (`r"…"`, `r#"…"#`), byte strings, raw identifiers
//!   (`r#type`), lifetimes vs. char literals, and nested block comments
//!   are handled correctly — the classic failure modes of regex scanners.
//! * [`match_delims`] pairs `(`/`)`, `[`/`]`, `{`/`}` so rules can jump
//!   over groups and find enclosing scopes without building a tree.
//!
//! The lexer is intentionally lossy where the rules do not care: numeric
//! literal shapes (`1e-3` splits into `1e`, `-`, `3`) and literal contents
//! are not preserved. It never fails: unbalanced delimiters and unclosed
//! literals at end-of-file degrade to unmatched/opaque tokens, and the
//! diagnostics stay best-effort rather than aborting the audit.

/// The kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#type` → `type`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`, `'claim`).
    Lifetime,
    /// Numeric literal (possibly split around exponent signs; opaque).
    Num,
    /// String literal of any flavor (content opaque).
    Str,
    /// Char or byte literal (content opaque).
    Char,
    /// `// …` comment, doc comments included; text preserved.
    LineComment,
    /// `/* … */` comment (nesting handled); text preserved.
    BlockComment,
    /// Any other single punctuation character.
    Punct,
    /// Opening delimiter: `(`, `[`, or `{`.
    Open,
    /// Closing delimiter: `)`, `]`, or `}`.
    Close,
}

/// One lexed token: kind, 1-based line, and (for idents, comments, and
/// punctuation) its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Token text: the identifier, the full comment (markers included),
    /// or the punctuation/delimiter character. Empty for literals.
    pub text: String,
}

impl Tok {
    /// Whether this token is a (line or block) comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation/delimiter character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, TokKind::Punct | TokKind::Open | TokKind::Close)
            && self.text.starts_with(c)
    }
}

/// Lexes `source` into a flat token stream. Never fails; see the module
/// docs for the degradation rules.
pub fn lex(source: &str) -> Vec<Tok> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let n = chars.len();
    let at = |j: usize| chars.get(j).copied().unwrap_or('\0');

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == '/' => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::LineComment,
                    line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '/' if at(i + 1) == '*' => {
                let (start, start_line) = (i, line);
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && at(i + 1) == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && at(i + 1) == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::BlockComment,
                    line: start_line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '"' => {
                let start_line = line;
                i = skip_string(&chars, i + 1, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    line: start_line,
                    text: String::new(),
                });
            }
            '\'' => {
                // Lifetime/label vs char literal: a char literal closes with
                // a quote right after one (possibly escaped) character.
                let nxt = at(i + 1);
                if nxt == '\\' || (nxt != '\0' && at(i + 2) == '\'') {
                    let start_line = line;
                    i += 1; // past the opening quote
                    if at(i) == '\\' {
                        i += 2; // escape lead-in; '\u{…}' closes at the quote below
                        while i < n && chars[i] != '\'' {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                    i += 1; // closing quote
                    toks.push(Tok {
                        kind: TokKind::Char,
                        line: start_line,
                        text: String::new(),
                    });
                } else {
                    let start = i + 1;
                    i += 1;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        line,
                        text: chars[start..i].iter().collect(),
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Literal prefixes and raw identifiers.
                if (word == "r" || word == "br") && (at(i) == '"' || at(i) == '#') {
                    if let Some((end, kind)) = raw_string_end(&chars, i, &mut line) {
                        i = end;
                        toks.push(Tok {
                            kind,
                            line,
                            text: String::new(),
                        });
                        continue;
                    }
                    if word == "r" && at(i) == '#' {
                        // Raw identifier r#name.
                        let id_start = i + 1;
                        i += 1;
                        while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                            i += 1;
                        }
                        toks.push(Tok {
                            kind: TokKind::Ident,
                            line,
                            text: chars[id_start..i].iter().collect(),
                        });
                        continue;
                    }
                }
                if word == "b" && at(i) == '"' {
                    let start_line = line;
                    i = skip_string(&chars, i + 1, &mut line);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        line: start_line,
                        text: String::new(),
                    });
                    continue;
                }
                if word == "b" && at(i) == '\'' {
                    i += 2; // quote + first content char (or escape lead-in)
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    toks.push(Tok {
                        kind: TokKind::Char,
                        line,
                        text: String::new(),
                    });
                    continue;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    line,
                    text: word,
                });
            }
            c if c.is_ascii_digit() => {
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // `2.5` continues the number; `0..n` does not.
                if at(i) == '.' && at(i + 1).is_ascii_digit() {
                    i += 1;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    line,
                    text: String::new(),
                });
            }
            '(' | '[' | '{' => {
                toks.push(Tok {
                    kind: TokKind::Open,
                    line,
                    text: c.to_string(),
                });
                i += 1;
            }
            ')' | ']' | '}' => {
                toks.push(Tok {
                    kind: TokKind::Close,
                    line,
                    text: c.to_string(),
                });
                i += 1;
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    line,
                    text: c.to_string(),
                });
                i += 1;
            }
        }
    }
    toks
}

/// Advances past a (non-raw) string body starting just after the opening
/// quote; returns the index after the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let n = chars.len();
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// From the position right after an `r`/`br` prefix, consumes `#…"…"#…` if
/// it really is a raw (byte) string; returns the end index and token kind.
fn raw_string_end(chars: &[char], start: usize, line: &mut usize) -> Option<(usize, TokKind)> {
    let n = chars.len();
    let mut i = start;
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || chars[i] != '"' {
        return None; // r#ident, not a raw string
    }
    i += 1;
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut h = 0usize;
            let mut j = i + 1;
            while j < n && chars[j] == '#' && h < hashes {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return Some((j, TokKind::Str));
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    Some((i, TokKind::Str))
}

/// For each `Open`/`Close` token index, the index of its partner
/// (`usize::MAX` when unmatched). Mismatched delimiter kinds still pair by
/// nesting order — good enough for scope jumps over syntactically valid
/// code, harmless on broken code.
pub fn match_delims(toks: &[Tok]) -> Vec<usize> {
    let mut partner = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open => stack.push(i),
            TokKind::Close => {
                if let Some(o) = stack.pop() {
                    partner[o] = i;
                    partner[i] = o;
                }
            }
            _ => {}
        }
    }
    partner
}

/// Index of the next non-comment token at or after `i`.
pub fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Index of the previous non-comment token at or before `i`.
pub fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i as isize;
    while j >= 0 {
        if !toks[j as usize].is_comment() {
            return Some(j as usize);
        }
        j -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_lines() {
        let toks = lex("fn f() {\n    g()\n}\n");
        let f: Vec<(&str, usize)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(f, vec![("fn", 1), ("f", 1), ("g", 2)]);
    }

    #[test]
    fn strings_and_comments_are_opaque_but_kept() {
        let toks = lex("let s = \"panic!( .unwrap()\"; // ORDERING: prose\n");
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
        let c = toks.iter().find(|t| t.kind == TokKind::LineComment);
        assert!(c.is_some_and(|t| t.text.contains("ORDERING:")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex("let s = r#\"unwrap() \" inner\"#; let t = x;");
        assert_eq!(idents("let s = r#\"unwrap()\"#;"), vec!["let", "s"]);
        assert!(toks.iter().any(|t| t.is_ident("t")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; 'lp: loop {} }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "lp"]);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn unicode_escape_char_literal() {
        let toks = lex("let c = '\\u{1F600}'; let after = 1;");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(toks.iter().filter(|t| t.is_comment()).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("fn")));
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = lex("for i in 0..count { let x = 2.5; }");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "{toks:?}");
    }

    #[test]
    fn delimiters_match() {
        let toks = lex("fn f(a: &[u8]) { g(h[0]); }");
        let partner = match_delims(&toks);
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Open {
                let j = partner[i];
                assert_ne!(j, usize::MAX);
                assert_eq!(partner[j], i);
                assert_eq!(toks[j].kind, TokKind::Close);
            }
        }
    }

    #[test]
    fn byte_literals_are_opaque() {
        let toks = lex("let b = b\"unwrap\"; let c = b'x'; let ok = 1;");
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("ok")));
    }
}
