//! The lexer must never panic: it runs over every serve source file in
//! tier-1, including files that are mid-edit, unterminated, or not
//! valid Rust at all. Proptest feeds it random byte soup and
//! adversarial fragments built from the constructs it special-cases
//! (raw strings, nested comments, lifetimes, lock-order declarations).

use pgs_analysis::lexer::lex;
use pgs_analysis::rules::{pgs003, FileCtx};
use proptest::prelude::*;

proptest! {
    #[test]
    fn random_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let lexed = lex(&src);
        // Token lines stay within the source's line count.
        let lines = src.split('\n').count() as u32;
        prop_assert!(lexed.tokens.iter().all(|t| t.line >= 1 && t.line <= lines.max(1)));
    }

    #[test]
    fn fragment_soup_never_panics(picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48)) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = lex(&src);
        // The full pipeline (scoping + the lock-order check) is
        // panic-free too.
        let ctx = FileCtx::new("soup.rs", &src);
        let _ = pgs003::check(std::slice::from_ref(&ctx));
    }
}

/// Adversarial building blocks: every construct the lexer treats
/// specially, plus unterminated variants of each.
const FRAGMENTS: &[&str] = &[
    "fn f() { ",
    "}",
    "\"str with \\\" escape\" ",
    "\"unterminated ",
    "r#\"raw \"# ",
    "r##\"raw with # inside\"## ",
    "r#\"unterminated raw ",
    "b\"bytes\" ",
    "'c' ",
    "'\\n' ",
    "'lifetime ",
    "<'a> ",
    "// line comment\n",
    "// pgs-lock-order: a -> b -> c\n",
    "// pgs-lock-order: ->->\n",
    "/* block /* nested */ comment */ ",
    "/* unterminated ",
    "1.5 ",
    "1..n ",
    "0xff ",
    "m.lock().unwrap() ",
    "x.unwrap(); ",
    "panic!(\"boom\") ",
    "#[cfg(test)] mod tests { fn t() {} } ",
    "enum PgsError { A, B(u8) } ",
    "impl Display for PgsError { ",
    "let m: FxHashMap<u32, f64> = FxHashMap::default(); ",
    "for (k, v) in &m { ",
    "match s.lock().unwrap() { ",
    "\u{0} ",
    "é→☃ ",
];
