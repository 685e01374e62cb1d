//! Property tests for the lint front end: the splitter, lexer, and
//! per-function fact extractor must complete — no panic, no hang — on
//! arbitrary input text. The dataflow rules (L12–L15) run over whatever
//! these layers produce, so total robustness here is what lets the lint
//! run unattended over every file in CI.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    reason = "tests are exempt from library lints"
)]

use std::path::Path;

use proptest::prelude::*;
use xtask::items::index_file;
use xtask::lex::{lex_tokens, split_source, test_mask};

/// Runs the full front end over `text` and returns the number of
/// indexed functions (forcing the whole FileIndex to be built).
fn index_text(text: &str) -> usize {
    let lines = split_source(text);
    let mask = test_mask(&lines);
    let tokens = lex_tokens(&lines);
    let index = index_file(
        "fuzz",
        Path::new("crates/fuzz/src/lib.rs"),
        &lines,
        &mask,
        &tokens,
        &[],
    );
    index.fns.len()
}

/// Rust-shaped fragments: unbalanced brackets, dangling `match` heads,
/// orphan `=>` arms, half-written enums — chosen to stress the
/// bracket-depth and arm parsers far harder than uniform bytes.
const SOUP: &[&str] = &[
    "fn",
    "match",
    "enum",
    "impl",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "=>",
    "::",
    ",",
    ";",
    "_",
    "|",
    "+",
    "-",
    "*",
    "/",
    "%",
    "x",
    "Cycle",
    "self",
    "0",
    "1",
    ".",
    "number",
    "f64",
    "unreachable",
    "!",
    "if",
    "let",
    "pub",
    "#",
    "\n",
    "\"s\"",
    "// bpush-lint: protocol_enum — soup",
    "// bpush-lint: decode_path",
    "#[cfg(test)]",
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    /// Arbitrary byte salad (decoded lossily): the extractor completes
    /// on text that is nothing like Rust.
    #[test]
    fn fact_extraction_never_panics_on_arbitrary_text(
        bytes in proptest::collection::vec(0u32..256, 0..400),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        let _ = index_text(&text);
    }

    /// Rust-shaped token soup: every stream of fragments indexes
    /// without panicking, however malformed the nesting.
    #[test]
    fn fact_extraction_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..SOUP.len(), 0..200),
    ) {
        let text = picks
            .iter()
            .map(|&i| SOUP[i])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = index_text(&text);
    }

    /// The extractor is a pure function of the text: two runs over the
    /// same input produce the same function count (the order-stability
    /// contract the parallel per-file pass relies on).
    #[test]
    fn fact_extraction_is_deterministic(
        picks in proptest::collection::vec(0usize..SOUP.len(), 0..200),
    ) {
        let text = picks
            .iter()
            .map(|&i| SOUP[i])
            .collect::<Vec<_>>()
            .join(" ");
        prop_assert_eq!(index_text(&text), index_text(&text));
    }
}
