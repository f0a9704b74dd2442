//! Brace-scope structure over the token stream: test-code exclusion
//! and function-body extraction.
//!
//! The lock-order check only reads *shipping* code. Anything under a
//! `#[cfg(test)]` / `#[test]` / `#[bench]` attribute or inside a
//! `mod tests { ... }` block is marked excluded here, and its functions
//! are never checked.

use crate::lexer::{Lexed, Tok, Token};

/// One function body, as a token range into the file's stream.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body, *excluding* the outer braces.
    pub body: std::ops::Range<usize>,
}

/// Per-token scope facts for one file.
#[derive(Clone, Debug)]
pub struct Scopes {
    /// `excluded[i]` — token `i` is test/bench-only code.
    pub excluded: Vec<bool>,
    /// Every function body found in non-excluded code.
    pub functions: Vec<FnSpan>,
}

/// Computes scope facts for a lexed file. Never panics: all scans are
/// bounds-checked and unterminated structures simply run to the end.
pub fn scopes(lexed: &Lexed) -> Scopes {
    let toks = &lexed.tokens;
    let mut excluded = vec![false; toks.len()];
    mark_excluded(toks, &mut excluded);
    let functions = find_functions(toks, &excluded);
    Scopes {
        excluded,
        functions,
    }
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// Index just past the matching close for the opener at `open`
/// (`open` must point at `{`, `[`, or `(`). Unterminated = `toks.len()`.
pub fn matching_close(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks.get(open).map(|t| &t.tok) {
        Some(Tok::Punct('{')) => ('{', '}'),
        Some(Tok::Punct('[')) => ('[', ']'),
        Some(Tok::Punct('(')) => ('(', ')'),
        _ => return open + 1,
    };
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        if is_punct(&toks[i], o) {
            depth += 1;
        } else if is_punct(&toks[i], c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Marks `#[cfg(test)]`-style attributed items and `mod tests` blocks.
fn mark_excluded(toks: &[Token], excluded: &mut [bool]) {
    let mut i = 0usize;
    while i < toks.len() {
        // `#[...]` attribute mentioning `test` or `bench`: exclude the
        // attribute and the item it decorates (through any further
        // attributes, to the end of the item's `{...}` block or its
        // terminating `;`, whichever comes first).
        if is_punct(&toks[i], '#') && i + 1 < toks.len() && is_punct(&toks[i + 1], '[') {
            let attr_end = matching_close(toks, i + 1);
            let is_test_attr = toks[i + 1..attr_end]
                .iter()
                .any(|t| matches!(ident(t), Some("test" | "bench")));
            if is_test_attr {
                let end = item_end(toks, attr_end);
                for flag in excluded.iter_mut().take(end).skip(i) {
                    *flag = true;
                }
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        // `mod tests { ... }` / `mod test { ... }`.
        if ident(&toks[i]) == Some("mod")
            && matches!(toks.get(i + 1).and_then(ident), Some("tests" | "test"))
            && toks.get(i + 2).is_some_and(|t| is_punct(t, '{'))
        {
            let end = matching_close(toks, i + 2);
            for flag in excluded.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            i = end;
            continue;
        }
        i += 1;
    }
}

/// End of the item starting at `i` (which may open with more
/// attributes): just past its `{...}` block, or just past the first
/// top-level `;` if one comes before any block (e.g. `use`, fn decls).
fn item_end(toks: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes.
    while i + 1 < toks.len() && is_punct(&toks[i], '#') && is_punct(&toks[i + 1], '[') {
        i = matching_close(toks, i + 1);
    }
    let mut j = i;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => return matching_close(toks, j),
            Tok::Punct(';') => return j + 1,
            Tok::Punct('(') | Tok::Punct('[') => j = matching_close(toks, j),
            _ => j += 1,
        }
    }
    toks.len()
}

/// Collects non-excluded `fn` bodies. Signatures are skipped by
/// walking to the first `{` outside parens/brackets; trait-method
/// declarations (ending in `;`) have no body and are skipped.
fn find_functions(toks: &[Token], excluded: &[bool]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if ident(&toks[i]) == Some("fn") && !excluded[i] {
            let name = toks
                .get(i + 1)
                .and_then(ident)
                .unwrap_or("<anon>")
                .to_string();
            let line = toks[i].line;
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('(') | Tok::Punct('[') => j = matching_close(toks, j),
                    Tok::Punct('{') => {
                        body = Some(j);
                        break;
                    }
                    Tok::Punct(';') => break, // declaration without body
                    _ => j += 1,
                }
            }
            if let Some(open) = body {
                let close = matching_close(toks, open);
                // Unterminated body (close == len): run to the end —
                // there is no closing brace to exclude.
                let end = if close == toks.len() {
                    close
                } else {
                    close - 1
                };
                out.push(FnSpan {
                    name,
                    line,
                    body: open + 1..end,
                });
                i += 2; // nested fns get their own spans
                continue;
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn excluded_idents(src: &str) -> Vec<String> {
        let lexed = lex(src);
        let s = scopes(&lexed);
        lexed
            .tokens
            .iter()
            .zip(&s.excluded)
            .filter(|(_, &e)| e)
            .filter_map(|(t, _)| match &t.tok {
                Tok::Ident(i) => Some(i.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cfg_test_mod_is_excluded() {
        let src = "
            fn shipped() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { b.unwrap(); }
            }
        ";
        let ex = excluded_idents(src);
        assert!(ex.contains(&"helper".to_string()));
        assert!(!ex.contains(&"shipped".to_string()));
    }

    #[test]
    fn test_attribute_excludes_single_fn() {
        let src = "
            #[test]
            fn check_it() { x.unwrap(); }
            fn shipped() {}
        ";
        let ex = excluded_idents(src);
        assert!(ex.contains(&"check_it".to_string()));
        assert!(!ex.contains(&"shipped".to_string()));
    }

    #[test]
    fn non_test_attributes_do_not_exclude() {
        let src = "#[derive(Debug)] struct S { x: u32 } fn f() {}";
        assert!(excluded_idents(src).is_empty());
    }

    #[test]
    fn functions_are_found_with_bodies() {
        let lexed = lex("fn alpha(x: u32) -> u32 { x } impl T { fn beta(&self) {} }");
        let s = scopes(&lexed);
        let names: Vec<&str> = s.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let lexed = lex("trait T { fn decl(&self) -> u32; fn with_body(&self) {} }");
        let s = scopes(&lexed);
        let names: Vec<&str> = s.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }
}
