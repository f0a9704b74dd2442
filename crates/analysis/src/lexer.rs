//! A comment- and string-aware Rust tokenizer.
//!
//! The lock-order check never needs a full parse: it works from an
//! identifier/punctuation stream plus brace structure. What it *cannot*
//! tolerate is a `.lock()` inside a string literal or a doc comment
//! being read as an acquisition, so the lexer's one job is to classify
//! those regions correctly — and to never panic, whatever bytes it is
//! fed (pinned by a proptest).
//!
//! Comments are not discarded silently: `// pgs-lock-order: a -> b -> c`
//! manifest declarations are collected during the scan (see
//! [`LockOrderDecl`]).

/// One lexical token kind. Literal payloads are dropped — no rule
/// inspects string contents — but identifiers keep their text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `let`, `unwrap`, ...).
    Ident(String),
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Any string-ish literal: `"..."`, `r#"..."#`, `b"..."`, `c"..."`.
    Str,
    /// A character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// A numeric literal.
    Num,
    /// Single punctuation character (`.`, `{`, `(`, `;`, `#`, ...).
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token kind/payload.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// A `// pgs-lock-order: a -> b -> c` manifest declaration: while
/// holding lock `a` it is legal to acquire `b`, and while holding `b`,
/// `c` (edges are chained pairwise; the full order is the transitive
/// closure over all declarations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockOrderDecl {
    /// 1-based line of the declaration.
    pub line: u32,
    /// The chain of lock names, outermost first.
    pub chain: Vec<String>,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// Every lock-order manifest declaration found in comments.
    pub lock_orders: Vec<LockOrderDecl>,
}

/// Lexes `src`. Total: every byte sequence yields a token stream; bytes
/// that fit no class are skipped. Never panics (proptest-pinned).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = chars.len();

    // Advances past `chars[from..to)` counting newlines.
    let count_lines = |chars: &[char], from: usize, to: usize| -> u32 {
        chars[from..to.min(chars.len())]
            .iter()
            .filter(|&&c| c == '\n')
            .count() as u32
    };

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                // Line comment: scan to EOL, mine it for the manifest.
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                scan_comment(&text, line, &mut out);
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                line += count_lines(&chars, i, j);
                i = j;
            }
            '"' => {
                let j = scan_string(&chars, i);
                out.tokens.push(Token {
                    tok: Tok::Str,
                    line,
                });
                line += count_lines(&chars, i, j);
                i = j;
            }
            '\'' => {
                // Char literal vs lifetime. `'\...'` and `'x'` are
                // chars; `'ident` (no closing quote) is a lifetime.
                if i + 1 < n && chars[i + 1] == '\\' {
                    let mut j = i + 2;
                    // Skip the escape, then scan to the closing quote.
                    if j < n {
                        j += 1;
                    }
                    while j < n && chars[j] != '\'' && chars[j] != '\n' {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                    i = (j + 1).min(n);
                } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                    i += 3;
                } else if i + 1 < n && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
                    let mut j = i + 1;
                    while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        tok: Tok::Lifetime,
                        line,
                    });
                    i = j;
                } else {
                    // Stray quote: emit as punctuation and move on.
                    out.tokens.push(Token {
                        tok: Tok::Punct('\''),
                        line,
                    });
                    i += 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                // Raw identifiers/strings: `r"..."`, `r#"..."#`,
                // `b"..."`, `br#"..."#`, `c"..."`, and `r#ident`.
                let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "c" | "cr" | "rb");
                if is_str_prefix && j < n && (chars[j] == '"' || chars[j] == '#') {
                    let k = scan_raw_string(&chars, j);
                    if k > j {
                        out.tokens.push(Token {
                            tok: Tok::Str,
                            line,
                        });
                        line += count_lines(&chars, j, k);
                        i = k;
                        continue;
                    }
                }
                if word == "b" && j < n && chars[j] == '\'' {
                    // Byte char literal b'x' / b'\n'.
                    let mut k = j + 1;
                    if k < n && chars[k] == '\\' {
                        k += 1;
                    }
                    while k < n && chars[k] != '\'' && chars[k] != '\n' {
                        k += 1;
                    }
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                    i = (k + 1).min(n);
                    continue;
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(word),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.' && j + 1 < n && chars[j + 1].is_ascii_digit() {
                        // `1.5` continues the number; `1..n` does not.
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                });
                i = j;
            }
            c => {
                out.tokens.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Scans a `"..."` literal starting at the opening quote; returns the
/// index just past the closing quote (or `n` if unterminated).
fn scan_string(chars: &[char], start: usize) -> usize {
    let n = chars.len();
    let mut j = start + 1;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// Scans a raw string starting at `start` (which points at `#` or `"`
/// after the `r`/`b`/`c` prefix). Returns the index past the closing
/// delimiter, or `start` if this is not actually a raw string (e.g.
/// `r#ident`).
fn scan_raw_string(chars: &[char], start: usize) -> usize {
    let n = chars.len();
    let mut hashes = 0usize;
    let mut j = start;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || chars[j] != '"' {
        return start; // `r#ident` — a raw identifier, not a string
    }
    j += 1;
    while j < n {
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && chars[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    n
}

/// Mines one line comment for a `pgs-lock-order:` declaration.
fn scan_comment(text: &str, line: u32, out: &mut Lexed) {
    let trimmed = text.trim_start_matches(['/', '!']).trim();
    if let Some(rest) = trimmed.strip_prefix("pgs-lock-order:") {
        let chain: Vec<String> = rest
            .split("->")
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if chain.len() >= 2 {
            out.lock_orders.push(LockOrderDecl { line, chain });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            // unwrap() in a comment
            /* unwrap() in /* a nested */ block */
            let x = "unwrap() in a string";
            let y = r#"raw unwrap()"#;
            let z = b"bytes unwrap()";
            real.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|s| s.as_str() == "unwrap").count(),
            1,
            "{ids:?}"
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Lifetime)
            .count();
        let charlits = lexed.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!((lifetimes, charlits), (2, 1));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"two\nlines\";\nfail.unwrap();";
        let lexed = lex(src);
        let unwrap_line = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("unwrap".into()))
            .map(|t| t.line);
        assert_eq!(unwrap_line, Some(3));
    }

    #[test]
    fn lock_order_chains_parse() {
        let lexed = lex("// pgs-lock-order: sched -> state -> journal_rec\n");
        assert_eq!(
            lexed.lock_orders[0].chain,
            vec!["sched", "state", "journal_rec"]
        );
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'x", "b'", "r#", "1.", "'"] {
            let _ = lex(src);
        }
    }
}
