//! The one rule no compiler check covers: PGS003, lock order in
//! `crates/serve`.
//!
//! The rule is a pure function over [`FileCtx`] slices — no filesystem
//! access, so its self-tests drive it straight from string fixtures.

pub mod pgs003;

use crate::lexer::{self, Lexed, Tok, Token};
use crate::scope::{self, Scopes};

/// One source file, lexed and scoped, ready for the rule.
#[derive(Debug)]
pub struct FileCtx {
    /// Path of the file (used in findings).
    pub rel: String,
    /// Token stream + lock-order declarations.
    pub lexed: Lexed,
    /// Exclusion flags and function spans.
    pub scopes: Scopes,
}

impl FileCtx {
    /// Lexes and scopes `text` under path `rel`.
    pub fn new(rel: &str, text: &str) -> Self {
        let lexed = lexer::lex(text);
        let scopes = scope::scopes(&lexed);
        FileCtx {
            rel: rel.to_string(),
            lexed,
            scopes,
        }
    }

    /// The file's tokens.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Builds a finding at `line`.
    pub fn finding(&self, line: u32, category: &'static str, message: String) -> Finding {
        Finding {
            file: self.rel.clone(),
            line,
            category,
            message,
        }
    }
}

/// One violation of the lock-order rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path of the file, as given to [`FileCtx::new`].
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// `lock-order`, `lock-self` or `lock-cycle`.
    pub category: &'static str,
    /// Human explanation of this specific site.
    pub message: String,
}

/// Identifier text of a token, if it is one.
pub(crate) fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Whether token `t` is the punctuation `c`.
pub(crate) fn is_punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}
