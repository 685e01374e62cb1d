//! Lexical layer of the lint engine: comment/string splitting and the
//! token stream the interprocedural rules (L8–L15) run on.
//!
//! Every source file is read and lexed exactly **once** per lint run
//! (see [`crate::lint_workspace_report`]): the per-line [`SplitLine`]
//! view feeds the line-oriented rules L0 and L4, and [`lex_tokens`] derives
//! the identifier/punctuation token stream — with line spans — that the
//! item indexer ([`crate::items`]) and call-graph builder
//! ([`crate::callgraph`]) consume. String literal *contents* are blanked
//! before tokenization, so a needle quoted in a string can never produce
//! a token.

/// One physical source line after the lexical pass: executable text in
/// `code` (string contents blanked), comment text in `comment`.
#[derive(Debug, Default, Clone)]
pub struct SplitLine {
    /// Executable text with string/char literal contents blanked.
    pub code: String,
    /// Comment text (line, block, and doc comments).
    pub comment: String,
}

/// Splits a source file into per-line (code, comment) pairs.
///
/// String literal *contents* are replaced by spaces so that needles
/// quoted in strings never match; delimiters are preserved. Line and
/// block comments (nesting included) land in `comment`. Char literals
/// are blanked like strings; lifetimes pass through untouched.
pub fn split_source(text: &str) -> Vec<SplitLine> {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut cur = SplitLine::default();
    let mut st = St::Code;
    let mut prev_code: Option<char> = None;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push(std::mem::take(&mut cur));
            if matches!(st, St::LineComment) {
                st = St::Code;
            }
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    prev_code = Some('"');
                    st = St::Str;
                    i += 1;
                } else if c == 'r'
                    && matches!(next, Some('"') | Some('#'))
                    && !prev_code.is_some_and(|p| p.is_alphanumeric() || p == '_')
                {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0;
                    while chars.get(i + 1 + hashes) == Some(&'#') {
                        hashes += 1;
                    }
                    if chars.get(i + 1 + hashes) == Some(&'"') {
                        cur.code.push('r');
                        cur.code.push('"');
                        prev_code = Some('"');
                        st = St::RawStr(hashes);
                        i += 2 + hashes;
                    } else {
                        cur.code.push(c);
                        prev_code = Some(c);
                        i += 1;
                    }
                } else if c == 'b' && next == Some('"') {
                    cur.code.push('b');
                    cur.code.push('"');
                    prev_code = Some('"');
                    st = St::Str;
                    i += 2;
                } else if c == '\'' || (c == 'b' && next == Some('\'')) {
                    let start = if c == 'b' { i + 1 } else { i };
                    let consumed = char_literal_len(&chars, start);
                    if consumed > 0 {
                        cur.code.push('\'');
                        cur.code.push('\'');
                        prev_code = Some('\'');
                        i = start + consumed;
                    } else {
                        // A lifetime (or a lone `b`): emit verbatim.
                        cur.code.push(c);
                        prev_code = Some(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    if !c.is_whitespace() {
                        prev_code = Some(c);
                    }
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // Skip the escaped char unless it is the newline itself.
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        cur.code.push(' ');
                        i += 2;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1 + hashes;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // A trailing newline already flushed the last line; only a file
    // without one still has pending content.
    if !text.is_empty() && !text.ends_with('\n') {
        out.push(cur);
    }
    out
}

/// Length in chars of the char literal starting at `chars[start]`
/// (which must be `'`), or 0 if it is a lifetime instead.
fn char_literal_len(chars: &[char], start: usize) -> usize {
    if chars.get(start) != Some(&'\'') {
        return 0;
    }
    match chars.get(start + 1) {
        Some('\\') => {
            // Escape: scan (bounded) for the closing quote.
            for len in 3..=12 {
                match chars.get(start + len - 1) {
                    Some('\'') => return len,
                    Some('\n') | None => return 0,
                    _ => {}
                }
            }
            0
        }
        Some(_) if chars.get(start + 2) == Some(&'\'') => 3,
        _ => 0,
    }
}

/// Marks the lines belonging to `#[cfg(test)]` items (the attribute
/// line through the matching close brace, or the terminating `;` for
/// brace-less items).
pub fn test_mask(lines: &[SplitLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let Some(pos) = lines[i].code.find("cfg(test)") else {
            i += 1;
            continue;
        };
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        let mut col = pos;
        'region: while j < lines.len() {
            mask[j] = true;
            for c in lines[j].code.chars().skip(col) {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            break 'region;
                        }
                    }
                    ';' if !opened && depth == 0 => break 'region,
                    _ => {}
                }
            }
            j += 1;
            col = 0;
        }
        i = j + 1;
    }
    mask
}

/// What a token is, as far as the lint rules need to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// Punctuation. Multi-character operators that matter structurally
    /// (`::`, `->`, `=>`) are fused into one token; everything else is a
    /// single character.
    Punct,
    /// A literal: number, (blanked) string, or (blanked) char.
    Literal,
    /// A lifetime such as `'a` (kept distinct so it never looks like a
    /// char literal or identifier).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// The token text. Blanked string literals shrink to `""`, blanked
    /// char literals to `''`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Tokenizes the already-split lines into a single stream with line
/// spans. Runs on the blanked `code` text, so string/char contents and
/// comments are guaranteed token-free.
pub fn lex_tokens(lines: &[SplitLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // `1.0` stays one literal; `1..2` must not swallow
                    // the range operator.
                    if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Literal,
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
            } else if c == '"' {
                // A blanked string literal: scan to the closing quote
                // (the splitter guarantees contents are spaces).
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                out.push(Token {
                    kind: TokenKind::Literal,
                    text: "\"\"".to_string(),
                    line: lineno,
                });
                i = j.saturating_add(1);
            } else if c == '\'' {
                if chars.get(i + 1) == Some(&'\'') {
                    // Blanked char literal.
                    out.push(Token {
                        kind: TokenKind::Literal,
                        text: "''".to_string(),
                        line: lineno,
                    });
                    i += 2;
                } else {
                    // Lifetime: `'` followed by an identifier.
                    let start = i;
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line: lineno,
                    });
                }
            } else {
                // Punctuation; fuse the operators the item scanner keys on.
                let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                if two == "::" || two == "->" || two == "=>" {
                    out.push(Token {
                        kind: TokenKind::Punct,
                        text: two,
                        line: lineno,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: TokenKind::Punct,
                        text: c.to_string(),
                        line: lineno,
                    });
                    i += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        split_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strings_are_blanked_but_delimited() {
        let lines = codes("let x = \"panic!(boom)\";\n");
        assert!(lines[0].contains('"'));
        assert!(!lines[0].contains("panic!("));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lines = codes("let x = r#\"a.unwrap()b\"#;\n");
        assert!(!lines[0].contains(".unwrap()"));
        assert!(lines[0].ends_with(';'));
    }

    #[test]
    fn comments_are_split_out() {
        let split = split_source("let x = 1; // .unwrap() in prose\n/* block\nspans */ let y;\n");
        assert!(!split[0].code.contains(".unwrap()"));
        assert!(split[0].comment.contains(".unwrap()"));
        assert!(split[1].comment.contains("block"));
        assert!(split[2].code.contains("let y"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let split = split_source("/// asserts: assert!(x > 0)\nfn f() {}\n");
        assert!(!split[0].code.contains("assert!("));
        assert!(split[1].code.contains("fn f"));
    }

    #[test]
    fn lifetimes_survive_and_char_literals_blank() {
        let lines = codes("fn f<'a>(x: &'a str) -> char { '\\'' }\n");
        assert!(lines[0].contains("<'a>"));
        assert!(lines[0].contains("&'a str"));
        // The char literal body is blanked to a quote pair.
        assert!(lines[0].contains("''"));
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let src = "let s = \"line one\nline two\";\nlet t = 5;\n";
        let lines = codes(src);
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("let t"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() {}\n}\nfn after() {}\n";
        let lines = split_source(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_single_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let lines = split_source(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn live() {}\n";
        let lines = split_source(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn tokens_carry_lines_and_kinds() {
        let toks = lex_tokens(&split_source("fn f() {\n    x.push(1);\n}\n"));
        let texts: Vec<(&str, usize)> = toks.iter().map(|t| (t.text.as_str(), t.line)).collect();
        assert_eq!(
            texts,
            vec![
                ("fn", 1),
                ("f", 1),
                ("(", 1),
                (")", 1),
                ("{", 1),
                ("x", 2),
                (".", 2),
                ("push", 2),
                ("(", 2),
                ("1", 2),
                (")", 2),
                (";", 2),
                ("}", 3),
            ]
        );
        assert_eq!(toks[0].kind, TokenKind::Ident);
        assert_eq!(toks[9].kind, TokenKind::Literal);
    }

    #[test]
    fn path_separator_is_one_token() {
        let toks = lex_tokens(&split_source("Box::new(0)\n"));
        assert!(toks[1].is_punct("::"));
        assert!(toks[0].is_ident("Box"));
        assert!(toks[2].is_ident("new"));
    }

    #[test]
    fn lifetimes_are_not_idents() {
        let toks = lex_tokens(&split_source("fn f<'a>(x: &'a str) {}\n"));
        let lifetimes: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(lifetimes[0].text, "'a");
    }

    #[test]
    fn string_contents_produce_no_tokens() {
        let toks = lex_tokens(&split_source("let s = \"Box::new(1)\";\n"));
        assert!(!toks.iter().any(|t| t.is_ident("Box")));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Literal));
    }

    #[test]
    fn numeric_literals_do_not_eat_ranges() {
        let toks = lex_tokens(&split_source("for i in 0..10 {}\n"));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"0"));
        assert!(texts.contains(&"10"));
        assert_eq!(texts.iter().filter(|t| **t == ".").count(), 2);
    }
}
