//! **PGS003 — lock discipline in the serving layer.**
//!
//! `crates/serve` holds half a dozen mutexes (scheduler, job state,
//! caches, journal records); a single out-of-order nesting is a
//! latent deadlock that no example-based test reliably reproduces —
//! the PR-8 pickup-window race was exactly this class. This rule
//! extracts the `.lock()` nesting graph per function with a lexical
//! hold model and checks every observed nesting edge against the
//! declared manifest (`// pgs-lock-order: a -> b -> c` comments,
//! chained pairwise; legality is the transitive closure).
//!
//! The hold model: a guard bound by `let` (`let g = m.lock().unwrap();`
//! — nothing after the unwrap, so the guard itself is what `let`
//! binds) lives to the end of its enclosing block or an explicit
//! `drop(guard)`; when further calls follow
//! (`let v = m.lock().unwrap().get(k);` binds the *result*) the guard
//! is a temporary and dies at the statement end; `match`/`for`/
//! `if let` scrutinee temporaries live through the attached block
//! (edition 2021 semantics). Lock sites are named by the field the
//! guard came from (`inner.sched.lock()` → `sched`), which
//! deliberately merges same-named mutexes — a conservative
//! over-approximation. Nesting is read per function body: a guard held
//! across a call into another function that locks is not seen.

use std::collections::{BTreeMap, BTreeSet};

use super::{ident, is_punct, FileCtx, Finding};
use crate::lexer::Tok;
use crate::scope::FnSpan;

/// One observed nesting: `inner` acquired while `outer` was held.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NestEdge {
    /// The lock already held.
    pub outer: String,
    /// The lock being acquired.
    pub inner: String,
    /// File and line of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
    /// Function the nesting occurs in.
    pub function: String,
}

/// Runs PGS003 across `files`, which together hold one crate's locks
/// and its manifest.
pub fn check(files: &[FileCtx]) -> Vec<Finding> {
    // Declared manifest: chains decompose into pairwise edges.
    let mut declared: BTreeSet<(String, String)> = BTreeSet::new();
    let mut decl_sites: Vec<(&FileCtx, u32)> = Vec::new();
    for f in files {
        for decl in &f.lexed.lock_orders {
            decl_sites.push((f, decl.line));
            for pair in decl.chain.windows(2) {
                declared.insert((pair[0].clone(), pair[1].clone()));
            }
        }
    }

    let mut findings = Vec::new();

    // The declared graph itself must be a partial order (no cycles).
    if let Some(cycle) = find_cycle(&declared) {
        let (f, line) = decl_sites[0];
        findings.push(f.finding(
            line,
            "lock-cycle",
            format!(
                "declared lock-order manifest contains a cycle through `{cycle}` — \
                 a cyclic order cannot prove deadlock freedom"
            ),
        ));
    }

    let legal = transitive_closure(&declared);
    for f in files {
        for span in &f.scopes.functions {
            for edge in nesting_edges(f, span) {
                if edge.outer == edge.inner {
                    findings.push(f.finding(
                        edge.line,
                        "lock-self",
                        format!(
                            "`{}` re-locks `{}` while a guard for it may still be live \
                             (self-deadlock)",
                            edge.function, edge.inner
                        ),
                    ));
                } else if !legal.contains(&(edge.outer.clone(), edge.inner.clone())) {
                    findings.push(f.finding(
                        edge.line,
                        "lock-order",
                        format!(
                            "`{}` acquires `{}` while holding `{}`, which the \
                             lock-order manifest does not allow — declare \
                             `// pgs-lock-order: {} -> {}` (if globally consistent) \
                             or restructure",
                            edge.function, edge.inner, edge.outer, edge.outer, edge.inner
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// How long a held guard lives.
#[derive(Clone, Debug)]
enum Until {
    /// To the end of the current statement.
    Stmt,
    /// To the close of the enclosing block (a `let`-bound guard at
    /// brace depth `d` dies when depth drops *below* `d`).
    Block(i64),
    /// To the close of the attached block (a `match`/`for`/`if let`
    /// scrutinee at depth `d` dies when depth returns *to* `d`).
    Scrutinee(i64),
}

#[derive(Clone, Debug)]
struct Held {
    name: String,
    var: Option<String>,
    until: Until,
}

/// Extracts the nesting edges of one function body.
pub fn nesting_edges(f: &FileCtx, span: &FnSpan) -> Vec<NestEdge> {
    let toks = f.tokens();
    let body = &toks[span.body.clone()];
    let mut held: Vec<Held> = Vec::new();
    let mut edges = Vec::new();

    let mut depth: i64 = 0; // brace depth inside the body
    let mut paren: i64 = 0; // paren/bracket depth inside the statement
    let mut stmt_start = true;
    let mut stmt_is_let = false;
    let mut stmt_extends_block = false; // match / for / if-let scrutinees
    let mut let_var: Option<String> = None;
    let mut seen_kw: Option<String> = None; // last of if/while, for `if let`

    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if stmt_start {
            if let Some(w) = ident(t) {
                match w {
                    "let" => {
                        stmt_is_let = true;
                        let mut j = i + 1;
                        if body.get(j).and_then(ident) == Some("mut") {
                            j += 1;
                        }
                        let_var = body.get(j).and_then(ident).map(String::from);
                    }
                    "match" | "for" => stmt_extends_block = true,
                    _ => {}
                }
                stmt_start = false;
            }
        }
        match &t.tok {
            Tok::Ident(w) if w == "if" || w == "while" => {
                seen_kw = Some(w.clone());
            }
            Tok::Ident(w) if w == "let" && seen_kw.is_some() => {
                // `if let` / `while let`: scrutinee temporaries live
                // through the block in edition 2021.
                stmt_extends_block = true;
            }
            Tok::Punct('(') | Tok::Punct('[') => paren += 1,
            Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
            Tok::Punct('{') => {
                depth += 1;
                // Entering a block ends plain-statement temporaries
                // (if/while conditions drop before the body) unless
                // the statement kind extends them.
                if !stmt_extends_block && !stmt_is_let {
                    held.retain(|h| !matches!(h.until, Until::Stmt));
                }
                // The statement's hold decisions are already taken;
                // reset so the block's own statements start clean.
                stmt_start = true;
                stmt_is_let = false;
                stmt_extends_block = false;
                let_var = None;
                paren = 0;
                seen_kw = None;
            }
            Tok::Punct('}') => {
                depth -= 1;
                held.retain(|h| match h.until {
                    Until::Block(d) => d <= depth,
                    Until::Scrutinee(d) => d < depth,
                    Until::Stmt => false,
                });
                stmt_start = true;
                stmt_is_let = false;
                stmt_extends_block = false;
                let_var = None;
                paren = 0;
                seen_kw = None;
            }
            Tok::Punct(';') if paren <= 0 => {
                held.retain(|h| !matches!(h.until, Until::Stmt));
                stmt_start = true;
                stmt_is_let = false;
                stmt_extends_block = false;
                let_var = None;
                seen_kw = None;
            }
            // `drop(guard)` releases a named guard early.
            Tok::Ident(w)
                if w == "drop"
                    && body.get(i + 1).is_some_and(|t| is_punct(t, '('))
                    && body.get(i + 3).is_some_and(|t| is_punct(t, ')')) =>
            {
                if let Some(v) = body.get(i + 2).and_then(ident) {
                    held.retain(|h| h.var.as_deref() != Some(v));
                }
            }
            // `<name>.lock()` — acquisition.
            Tok::Punct('.')
                if body.get(i + 1).and_then(ident) == Some("lock")
                    && body.get(i + 2).is_some_and(|t| is_punct(t, '('))
                    && body.get(i + 3).is_some_and(|t| is_punct(t, ')')) =>
            {
                if let Some(name) = i.checked_sub(1).and_then(|p| body.get(p)).and_then(ident) {
                    let line = body[i + 1].line;
                    for h in &held {
                        edges.push(NestEdge {
                            outer: h.name.clone(),
                            inner: name.to_string(),
                            file: f.rel.clone(),
                            line,
                            function: span.name.clone(),
                        });
                    }
                    let bound = stmt_is_let && paren == 0 && guard_bound(body, i + 4);
                    let until = if bound {
                        Until::Block(depth)
                    } else if stmt_extends_block {
                        Until::Scrutinee(depth)
                    } else {
                        Until::Stmt
                    };
                    held.push(Held {
                        name: name.to_string(),
                        var: if bound { let_var.clone() } else { None },
                        until,
                    });
                    i += 4;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    edges.sort();
    edges.dedup();
    edges
}

/// Whether the value produced just past `lock()` (token `j`), after
/// at most one `.unwrap()`/`.expect(..)` adapter, is what the `let`
/// binds — the statement ends right there, so the guard lives in the
/// binding. If further calls follow (`.lookup(..)`, field access),
/// the `let` binds that call's result and the guard is a temporary.
fn guard_bound(body: &[crate::lexer::Token], mut j: usize) -> bool {
    if body.get(j).is_some_and(|t| is_punct(t, '.')) {
        let adapter = body.get(j + 1).and_then(ident);
        if matches!(adapter, Some("unwrap") | Some("expect"))
            && body.get(j + 2).is_some_and(|t| is_punct(t, '('))
        {
            let mut depth = 0i64;
            let mut k = j + 2;
            while let Some(t) = body.get(k) {
                match &t.tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
    }
    body.get(j).is_none_or(|t| is_punct(t, ';'))
}

/// Transitive closure of the declared edge set.
fn transitive_closure(edges: &BTreeSet<(String, String)>) -> BTreeSet<(String, String)> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    for (a, b) in edges {
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut closure = edges.clone();
    // Floyd-Warshall over the (small) lock-name universe.
    for k in &nodes {
        for a in &nodes {
            for b in &nodes {
                if closure.contains(&((*a).clone(), (*k).clone()))
                    && closure.contains(&((*k).clone(), (*b).clone()))
                {
                    closure.insert(((*a).clone(), (*b).clone()));
                }
            }
        }
    }
    closure
}

/// Any node reachable from itself in the declared graph.
fn find_cycle(edges: &BTreeSet<(String, String)>) -> Option<String> {
    let closure = transitive_closure(edges);
    let mut adj: BTreeMap<&str, ()> = BTreeMap::new();
    for (a, b) in &closure {
        if a == b {
            adj.insert(a, ());
        }
    }
    adj.keys().next().map(|s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("serve.rs", src)
    }

    fn edges(src: &str) -> Vec<(String, String)> {
        let f = ctx(src);
        let mut out = Vec::new();
        for span in &f.scopes.functions {
            for e in nesting_edges(&f, span) {
                out.push((e.outer, e.inner));
            }
        }
        out
    }

    #[test]
    fn let_bound_guard_holds_to_block_end() {
        let src = "
            fn f(inner: &Inner) {
                let mut sched = inner.sched.lock().unwrap();
                let st = job.state.lock().unwrap();
            }
        ";
        assert_eq!(edges(src), vec![("sched".into(), "state".into())]);
    }

    #[test]
    fn temporary_guard_releases_at_statement_end() {
        let src = "
            fn f(inner: &Inner) {
                inner.sched.lock().unwrap().queued += 1;
                inner.state.lock().unwrap().poll();
            }
        ";
        assert!(edges(src).is_empty());
    }

    #[test]
    fn let_bound_result_releases_the_temporary_guard() {
        // `let hit = cache.lock().unwrap().lookup(..);` binds the
        // lookup result, not the guard — no hold past the `;`.
        let src = "
            fn f(inner: &Inner) {
                let hit = inner.cache.lock().unwrap().lookup(&key, epoch);
                inner.cache.lock().unwrap().insert(key, w, epoch);
            }
        ";
        assert!(edges(src).is_empty());
    }

    #[test]
    fn dropped_guard_stops_nesting() {
        let src = "
            fn f(inner: &Inner) {
                let sched = inner.sched.lock().unwrap();
                drop(sched);
                let st = inner.state.lock().unwrap();
            }
        ";
        assert!(edges(src).is_empty());
    }

    #[test]
    fn for_loop_scrutinee_guard_spans_the_body() {
        let src = "
            fn f(inner: &Inner) {
                for job in inner.running.lock().unwrap().values() {
                    let st = job.state.lock().unwrap();
                }
            }
        ";
        assert_eq!(edges(src), vec![("running".into(), "state".into())]);
    }

    #[test]
    fn manifest_allows_declared_and_transitive_edges() {
        let src = "
            // pgs-lock-order: sched -> running -> state
            fn f(inner: &Inner) {
                let s = inner.sched.lock().unwrap();
                let st = inner.state.lock().unwrap();
            }
        ";
        let findings = check(&[ctx(src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn undeclared_edge_is_a_violation() {
        let src = "
            // pgs-lock-order: sched -> state
            fn f(inner: &Inner) {
                let st = inner.state.lock().unwrap();
                let s = inner.sched.lock().unwrap();
            }
        ";
        let findings = check(&[ctx(src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].category, "lock-order");
    }

    #[test]
    fn cyclic_manifest_is_rejected() {
        let src = "
            // pgs-lock-order: a -> b
            // pgs-lock-order: b -> a
            fn f() {}
        ";
        let findings = check(&[ctx(src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].category, "lock-cycle");
    }

    #[test]
    fn self_nesting_is_flagged() {
        let src = "
            fn f(a: &T, b: &T) {
                let g1 = a.state.lock().unwrap();
                let g2 = b.state.lock().unwrap();
            }
        ";
        let findings = check(&[ctx(src)]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].category, "lock-self");
    }
}
