//! The rule set: PGS001, PGS002, PGS003 and PGS005.
//!
//! Each rule is a pure function over [`FileCtx`] slices — no
//! filesystem access, so the self-tests drive them straight from
//! string fixtures. Rules report *every* site they match; the pragma
//! layer (`FileCtx::finding`) downgrades documented sites to
//! `allowed` findings, and the driver fails only on undocumented ones.

pub mod pgs001;
pub mod pgs002;
pub mod pgs003;
pub mod pgs005;

use crate::lexer::{self, Lexed, Tok, Token};
use crate::report::Finding;
use crate::scope::{self, Scopes};

/// Which rules apply to a file (derived from its crate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// PGS001 — unordered hash iteration (engine crates).
    pub hash_iteration: bool,
    /// PGS002 — RNG seeding discipline (engine crates).
    pub rng_discipline: bool,
    /// PGS003 — lock ordering (`crates/serve`).
    pub lock_discipline: bool,
}

impl RuleSet {
    /// Every rule on — used for single-file scans and fixtures.
    pub fn all() -> Self {
        RuleSet {
            hash_iteration: true,
            rng_discipline: true,
            lock_discipline: true,
        }
    }
}

/// One source file, lexed and scoped, ready for the rules.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path (used in findings).
    pub rel: String,
    /// Rules that apply here.
    pub rules: RuleSet,
    /// Token stream + pragmas.
    pub lexed: Lexed,
    /// Exclusion flags and function spans.
    pub scopes: Scopes,
}

impl FileCtx {
    /// Lexes and scopes `text` under path `rel` with `rules` enabled.
    pub fn new(rel: &str, text: &str, rules: RuleSet) -> Self {
        let lexed = lexer::lex(text);
        let scopes = scope::scopes(&lexed);
        FileCtx {
            rel: rel.to_string(),
            rules,
            lexed,
            scopes,
        }
    }

    /// Tokens with their exclusion flags.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Whether token `i` sits in test/bench-only code.
    pub fn excluded(&self, i: usize) -> bool {
        self.scopes.excluded.get(i).copied().unwrap_or(false)
    }

    /// Builds a finding at `line`, resolving pragma coverage.
    pub fn finding(
        &self,
        code: &'static str,
        line: u32,
        category: &'static str,
        message: String,
    ) -> Finding {
        Finding {
            code,
            file: self.rel.clone(),
            line,
            category,
            message,
            allowed: self.lexed.allowance(code, line).map(String::from),
        }
    }
}

/// Runs every rule over the file set and returns all findings.
pub fn check_all(files: &[FileCtx]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if f.rules.hash_iteration {
            findings.extend(pgs001::check(f));
        }
        if f.rules.rng_discipline {
            findings.extend(pgs002::check(f));
        }
    }
    findings.extend(pgs003::check(files));
    findings.extend(pgs005::check(files));
    findings
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
