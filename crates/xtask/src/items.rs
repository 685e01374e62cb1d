//! Item indexer: one linear scan over a file's token stream that
//! extracts everything the interprocedural rules need — function items
//! with their call sites, allocation / IO / determinism needles, lock
//! acquisitions, implicit-panic sites, raw index/slice accesses,
//! tick-typed arithmetic, and the `bpush-lint:`
//! annotations (`hot_path`, `sans_io`, `protocol_enum`, `decode_path`).
//!
//! Two token-stream side scans feed the dataflow rules: enum
//! definitions with their variant lists ([`EnumDef`], L13) and `match`
//! expressions with their arm patterns ([`MatchFact`], L13).
//!
//! The indexer is deliberately approximate (no type inference): calls
//! are recorded by name plus whatever qualifier or receiver the tokens
//! show, and [`crate::callgraph`] resolves them against the workspace
//! with crate-dependency scoping and impl-type preference.

use std::collections::BTreeSet;
use std::path::PathBuf;

use crate::lex::{SplitLine, Token, TokenKind};
use crate::Rule;

/// Directive name marking a function as hot-path (L8 contract holder).
pub const HOT_PATH_MARKER: &str = "hot_path";
/// Directive name declaring a whole file protocol-core (L9 contract).
pub const SANS_IO_MARKER: &str = "sans_io";
/// Directive name marking an enum as protocol vocabulary: every match
/// over it must name every variant (L13 contract holder).
pub const PROTOCOL_ENUM_MARKER: &str = "protocol_enum";
/// Directive name declaring a whole file part of the wire decode path:
/// input bytes may only be touched through checked `take_*` accessors
/// (L14 contract).
pub const DECODE_PATH_MARKER: &str = "decode_path";

/// Whether `comment` *is* the directive `name` — i.e. it starts with
/// `bpush-lint: <name>`. The splitter strips the `//` leader, so a doc
/// comment arrives starting with `/` (from `///`) or `!` (from `//!`):
/// those are prose, never directives, which is what lets this tool
/// document itself.
fn has_directive(comment: &str, name: &str) -> bool {
    if comment.starts_with('/') || comment.starts_with('!') {
        return false;
    }
    comment
        .trim_start()
        .strip_prefix("bpush-lint:")
        .map(str::trim_start)
        .is_some_and(|rest| rest.starts_with(name))
}

/// Method names that allocate on (at least) first call — the L8 needle
/// set for `.name(` receivers.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_back",
    "insert",
    "append",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "clone",
    "extend",
    "extend_from_slice",
    "resize",
    "reserve",
    "with_capacity",
];

/// `(Type, constructor)` pairs that allocate — the L8 needle set for
/// `Type::name(` paths.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Vec", "from"),
    ("Vec", "with_capacity"),
    ("HashMap", "with_capacity"),
    ("HashSet", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Macros that allocate (L8).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Module path segments whose mere mention (`seg::…`) is an IO needle
/// (L9): threads, channels, filesystem, sockets.
const IO_MODULES: &[&str] = &["thread", "mpsc", "fs", "net"];

/// Type idents that are IO needles on sight (L9).
const IO_TYPES: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];

/// Accessor method names that read the raw counter out of a tick-typed
/// value (`Cycle::number`, `ItemId::index`, …). A `+`/`-`/`*` with such
/// a call on either side is an L15 overflow fact.
const TICK_ACCESSORS: &[&str] = &["number", "value", "index", "seq"];

/// Newtype wrappers around monotonically growing counters. Inside an
/// `impl` of one of these, bare `self.0 + …` arithmetic is an L15 fact.
const TICK_TYPES: &[&str] = &[
    "Cycle", "Slot", "TxnId", "QueryId", "ItemId", "BucketId", "ClientId",
];

/// Identifiers never treated as call sites even when followed by `(`.
pub(crate) const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "move", "in",
    "as", "let", "mut", "ref", "fn", "pub", "use", "mod", "struct", "enum", "trait", "impl",
    "type", "const", "static", "where", "unsafe", "async", "await", "dyn", "crate", "super",
    "Some", "None", "Ok", "Err", "Fn", "FnMut", "FnOnce",
];

/// A resolved-by-name call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// `Type` in `Type::name(…)` (the path segment before `::`).
    pub qualifier: Option<String>,
    /// Receiver ident in `recv.name(…)` method calls (`self` included).
    pub receiver: Option<String>,
    /// 1-based source line.
    pub line: usize,
    /// Position in the file token stream (orders calls vs locks, L10).
    pub pos: usize,
}

/// One needle hit (allocation, IO, or determinism construct).
#[derive(Debug, Clone)]
pub struct Needle {
    /// What was matched, as shown in diagnostics (e.g. `Vec::push`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// One zero-argument `.lock()` / `.read()` / `.write()` acquisition.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Receiver ident the guard is taken from (lock identity, with the
    /// crate name, for L10).
    pub recv: String,
    /// 1-based source line.
    pub line: usize,
    /// Position in the file token stream (orders locks vs calls).
    pub pos: usize,
}

/// One raw index/slice expression (`recv[…]`). Shared by L12 (an index
/// is an implicit panic site) and L14 (an index is a raw byte access in
/// decode files), each with its own escape hatch.
#[derive(Debug, Clone)]
pub struct IndexSite {
    /// What was matched, as shown in diagnostics (e.g. `` `bytes[…]` ``).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
    /// Suppressed for L12 via `allow(panic-reach)`.
    pub allowed_panic: bool,
    /// Suppressed for L14 via `allow(decode-bounds)`.
    pub allowed_decode: bool,
}

/// One `enum` definition with its variant list (the L13 index).
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name as written.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// Carries the `bpush-lint: protocol_enum` annotation (L13).
    pub protocol: bool,
}

/// One arm of a `match` expression.
#[derive(Debug, Clone)]
pub struct ArmFact {
    /// 1-based line of the arm's first pattern token.
    pub line: usize,
    /// Pattern token texts as written, guard included (`_`, `if`, …).
    pub pat: Vec<String>,
    /// Suppressed via `allow(state-total)` on the arm line.
    pub allowed: bool,
}

/// One `match` expression with its arms (L13 facts).
#[derive(Debug, Clone)]
pub struct MatchFact {
    /// 1-based line of the `match` keyword.
    pub line: usize,
    /// Arms in source order.
    pub arms: Vec<ArmFact>,
    /// The `match` sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// One function item with everything the L8–L15 drivers consume.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` target type, when inside an impl block.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Carries the `bpush-lint: hot_path` annotation (L8).
    pub hot: bool,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Un-suppressed allocation needles (L8).
    pub allocs: Vec<Needle>,
    /// Un-suppressed IO needles (L9).
    pub ios: Vec<Needle>,
    /// Un-suppressed determinism needles (L11 cross-crate leg).
    pub dets: Vec<Needle>,
    /// Un-suppressed lock acquisitions (L10).
    pub locks: Vec<LockSite>,
    /// Un-suppressed implicit-panic sites other than indexing:
    /// divisions with non-constant divisors, `unreachable!` (L12).
    pub panics: Vec<Needle>,
    /// Raw index/slice expressions, with per-rule allow flags (L12/L14).
    pub indexes: Vec<IndexSite>,
    /// Un-suppressed unchecked arithmetic on tick-typed values (L15).
    pub ticks: Vec<Needle>,
}

/// Everything indexed from one source file.
#[derive(Debug, Clone)]
pub struct FileIndex {
    /// Directory name of the crate under `crates/`.
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// The file carries the `bpush-lint: sans_io` declaration (L9).
    pub sans_io: bool,
    /// The file carries the `bpush-lint: decode_path` declaration (L14).
    pub decode_path: bool,
    /// Function items in declaration order.
    pub fns: Vec<FnItem>,
    /// Enum definitions with their variant lists (L13).
    pub enums: Vec<EnumDef>,
    /// `match` expressions with their arm shapes (L13).
    pub matches: Vec<MatchFact>,
}

/// Indexes one file's token stream. `allows` is the per-line allow set
/// from the annotation pass; needles and locks on allowed lines are
/// dropped here so every downstream rule sees only live hits.
pub fn index_file(
    crate_name: &str,
    rel: &std::path::Path,
    lines: &[SplitLine],
    mask: &[bool],
    tokens: &[Token],
    allows: &[BTreeSet<Rule>],
) -> FileIndex {
    let sans_io = lines
        .iter()
        .any(|l| has_directive(&l.comment, SANS_IO_MARKER));
    let decode_path = lines
        .iter()
        .any(|l| has_directive(&l.comment, DECODE_PATH_MARKER));
    let allowed = |line: usize, rule: Rule| {
        allows
            .get(line.saturating_sub(1))
            .is_some_and(|set| set.contains(&rule))
    };
    let masked = |line: usize| mask.get(line.saturating_sub(1)).copied().unwrap_or(false);

    let mut fns: Vec<FnItem> = Vec::new();

    // (frame open depth, fn index) for fn bodies; impl frames carry the
    // target type. `pending_*` bridges the gap between a header and its
    // opening brace.
    let mut depth: i64 = 0;
    let mut fn_stack: Vec<(i64, usize)> = Vec::new();
    let mut impl_stack: Vec<(i64, Option<String>)> = Vec::new();
    let mut pending_fn: Option<usize> = None;
    let mut pending_impl: Option<Option<String>> = None;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct if t.text == "{" => {
                depth += 1;
                if let Some(fn_idx) = pending_fn.take() {
                    fn_stack.push((depth, fn_idx));
                } else if let Some(target) = pending_impl.take() {
                    impl_stack.push((depth, target));
                }
                i += 1;
            }
            TokenKind::Punct if t.text == "}" => {
                depth -= 1;
                while fn_stack.last().is_some_and(|(d, _)| *d > depth) {
                    fn_stack.pop();
                }
                while impl_stack.last().is_some_and(|(d, _)| *d > depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            TokenKind::Punct if t.text == ";" => {
                // A trait method declaration ends without a body.
                pending_fn = None;
                i += 1;
            }
            TokenKind::Ident if t.text == "use" && pending_fn.is_none() => {
                // A `use` tree's braces are not item frames: skip to its `;`.
                while tokens.get(i).is_some_and(|t| !t.is_punct(";")) {
                    i += 1;
                }
                i += 1;
            }
            TokenKind::Ident if t.text == "impl" && !type_position(tokens, i) => {
                pending_impl = Some(impl_target(tokens, i + 1));
                i += 1;
            }
            TokenKind::Ident if t.text == "fn" => {
                if let Some(name_tok) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    let impl_type = impl_stack.last().and_then(|(_, t)| t.clone());
                    fns.push(FnItem {
                        name: name_tok.text.clone(),
                        impl_type,
                        line: t.line,
                        is_test: masked(t.line),
                        hot: has_marker_above(lines, t.line, HOT_PATH_MARKER),
                        calls: Vec::new(),
                        allocs: Vec::new(),
                        ios: Vec::new(),
                        dets: Vec::new(),
                        locks: Vec::new(),
                        panics: Vec::new(),
                        indexes: Vec::new(),
                        ticks: Vec::new(),
                    });
                    pending_fn = Some(fns.len() - 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            _ => {
                if let Some(&(_, fn_idx)) = fn_stack.last() {
                    scan_body_token(tokens, i, &mut fns[fn_idx], &allowed);
                }
                i += 1;
            }
        }
    }

    FileIndex {
        crate_name: crate_name.to_string(),
        rel: rel.to_path_buf(),
        sans_io,
        decode_path,
        fns,
        enums: extract_enums(tokens, lines, mask),
        matches: extract_matches(tokens, mask, &allowed),
    }
}

/// Records whatever the token at `i` contributes to the enclosing
/// function: call sites, needles, lock acquisitions.
fn scan_body_token(
    tokens: &[Token],
    i: usize,
    item: &mut FnItem,
    allowed: &impl Fn(usize, Rule) -> bool,
) {
    let t = &tokens[i];
    if t.kind == TokenKind::Punct {
        scan_punct_token(tokens, i, item, allowed);
        return;
    }
    if t.kind != TokenKind::Ident {
        return;
    }
    let next = tokens.get(i + 1);
    let prev = i.checked_sub(1).map(|j| &tokens[j]);
    let line = t.line;

    // Macro invocation: `name!(…)` / `name![…]`.
    if next.is_some_and(|n| n.is_punct("!")) {
        if ALLOC_MACROS.contains(&t.text.as_str()) && !allowed(line, Rule::HotAlloc) {
            item.allocs.push(Needle {
                what: format!("{}!", t.text),
                line,
            });
        }
        // `unreachable!` asserts a dead branch: recorded as a panic
        // fact so L12 can attribute it to the entry points reaching it.
        if t.text == "unreachable" && !allowed(line, Rule::PanicReach) {
            item.panics.push(Needle {
                what: "unreachable!".to_string(),
                line,
            });
        }
        return;
    }

    // Determinism needles by bare ident (what clippy's disallowed_types
    // rejects at the site; L11 follows them across crates).
    if (t.text == "HashMap" || t.text == "HashSet") && !allowed(line, Rule::Taint) {
        item.dets.push(Needle {
            what: t.text.clone(),
            line,
        });
    }

    // IO needles: `thread::…`, `fs::…`, `mpsc::…`, `net::…`, socket types.
    let qualifies_module = next.is_some_and(|n| n.is_punct("::"));
    if ((IO_MODULES.contains(&t.text.as_str()) && qualifies_module)
        || IO_TYPES.contains(&t.text.as_str()))
        && !allowed(line, Rule::SansIo)
    {
        item.ios.push(Needle {
            what: if qualifies_module {
                format!("{}::", t.text)
            } else {
                t.text.clone()
            },
            line,
        });
    }

    // From here on: call sites, `name(…)`.
    if !next.is_some_and(|n| n.is_punct("(")) || CALL_KEYWORDS.contains(&t.text.as_str()) {
        return;
    }
    let mut qualifier = None;
    let mut receiver = None;
    match prev {
        Some(p) if p.is_punct("::") => {
            qualifier = i
                .checked_sub(2)
                .map(|j| &tokens[j])
                .filter(|q| q.kind == TokenKind::Ident)
                .map(|q| q.text.clone());
        }
        Some(p) if p.is_punct(".") => {
            receiver = Some(receiver_ident(tokens, i - 1));
        }
        _ => {}
    }

    let name = t.text.as_str();
    // Path-allocation needles (`Box::new`, `Vec::with_capacity`, …).
    if let Some(q) = &qualifier {
        if ALLOC_PATHS.iter().any(|(ty, m)| ty == q && *m == name) && !allowed(line, Rule::HotAlloc)
        {
            item.allocs.push(Needle {
                what: format!("{q}::{name}"),
                line,
            });
        }
        // Clock reads are both IO (L9) and determinism (L11) needles.
        if (q == "Instant" || q == "SystemTime") && name == "now" {
            if !allowed(line, Rule::SansIo) {
                item.ios.push(Needle {
                    what: format!("{q}::now"),
                    line,
                });
            }
            if !allowed(line, Rule::Taint) {
                item.dets.push(Needle {
                    what: format!("{q}::now"),
                    line,
                });
            }
        }
        if q == "File" && (name == "open" || name == "create") && !allowed(line, Rule::SansIo) {
            item.ios.push(Needle {
                what: format!("File::{name}"),
                line,
            });
        }
    }
    // Method-allocation needles (`.push(`, `.collect(`, …).
    if receiver.is_some() && ALLOC_METHODS.contains(&name) && !allowed(line, Rule::HotAlloc) {
        item.allocs.push(Needle {
            what: format!("Vec/String-family `.{name}`"),
            line,
        });
    }
    if name == "thread_rng" && !allowed(line, Rule::Taint) {
        item.dets.push(Needle {
            what: "thread_rng".to_string(),
            line,
        });
    }
    // Zero-argument `.lock()` / `.read()` / `.write()` — the parking_lot
    // acquisition shape (guards take no arguments, so `session.read(txn,
    // item)`-style protocol methods never match).
    if matches!(name, "lock" | "read" | "write")
        && receiver.is_some()
        && tokens.get(i + 2).is_some_and(|c| c.is_punct(")"))
    {
        if !allowed(line, Rule::LockOrder) {
            item.locks.push(LockSite {
                recv: receiver.clone().unwrap_or_default(),
                line,
                pos: i,
            });
        }
        return; // a lock acquisition is not a call-graph edge
    }

    item.calls.push(CallSite {
        name: name.to_string(),
        qualifier,
        receiver,
        line,
        pos: i,
    });
}

/// Records what a punctuation token contributes to the enclosing
/// function: index/slice sites (`[`), division panic sites (`/`, `%`),
/// and unchecked tick arithmetic (`+`, `-`, `*`).
fn scan_punct_token(
    tokens: &[Token],
    i: usize,
    item: &mut FnItem,
    allowed: &impl Fn(usize, Rule) -> bool,
) {
    let t = &tokens[i];
    let line = t.line;
    let prev = i.checked_sub(1).map(|j| &tokens[j]);

    // Index/slice expression: `recv[…]`, `call()[…]`, `a[…][…]`. The
    // previous token separates these from array literals (`= [`),
    // types (`: [`), attributes (`#[`), macros (`vec![`), borrows
    // (`&[`), and destructuring (`let [`).
    if t.text == "[" {
        let base = match prev {
            Some(p) if p.kind == TokenKind::Ident && !CALL_KEYWORDS.contains(&p.text.as_str()) => {
                Some(p.text.clone())
            }
            Some(p) if p.is_punct("]") || p.is_punct(")") => Some("<expr>".to_string()),
            _ => None,
        };
        if let Some(base) = base {
            item.indexes.push(IndexSite {
                what: format!("`{base}[…]`"),
                line,
                allowed_panic: allowed(line, Rule::PanicReach),
                allowed_decode: allowed(line, Rule::DecodeBounds),
            });
        }
        return;
    }

    // Division/remainder with a non-constant divisor is an implicit
    // divide-by-zero panic site. Float division never panics: skip when
    // the dividend is a float literal or an `f64`/`f32` appears just
    // ahead (`as f64`-style casts).
    if t.text == "/" || t.text == "%" {
        if !binary_op_position(prev) {
            return;
        }
        if prev.is_some_and(|p| p.kind == TokenKind::Literal && p.text.contains('.')) {
            return;
        }
        if tokens
            .get(i + 1)
            .is_some_and(|n| n.kind == TokenKind::Literal && nonzero_literal(&n.text))
        {
            return;
        }
        for k in 1..=4 {
            if tokens
                .get(i + k)
                .is_some_and(|n| n.kind == TokenKind::Ident && (n.text == "f64" || n.text == "f32"))
            {
                return;
            }
        }
        if !allowed(line, Rule::PanicReach) {
            item.panics.push(Needle {
                what: format!("`{}` with non-constant divisor", t.text),
                line,
            });
        }
        return;
    }

    // Unchecked arithmetic where an operand is tick-sourced: either a
    // `.number()`-style accessor call on one side, or bare `self.0`
    // inside an impl of a tick newtype.
    if matches!(t.text.as_str(), "+" | "-" | "*") && binary_op_position(prev) {
        let tick =
            tick_sourced_lhs(tokens, i, item.impl_type.as_deref()) || tick_sourced_rhs(tokens, i);
        if tick && !allowed(line, Rule::Overflow) {
            item.ticks.push(Needle {
                what: format!("unchecked `{}` on a tick-typed value", t.text),
                line,
            });
        }
    }
}

/// Whether the token before an operator puts it in binary position: an
/// operand (ident, literal) or the close of a call/index expression.
/// Anything else (`=`, `(`, `,`, a unary `-`, …) means the operator is
/// unary or part of a signature.
fn binary_op_position(prev: Option<&Token>) -> bool {
    prev.is_some_and(|p| match p.kind {
        TokenKind::Ident => !CALL_KEYWORDS.contains(&p.text.as_str()),
        TokenKind::Literal => true,
        TokenKind::Punct => p.text == ")" || p.text == "]",
        TokenKind::Lifetime => false,
    })
}

/// Whether an integer literal token is provably non-zero (so dividing
/// by it cannot panic). Handles `_` separators and `0x`/`0o`/`0b`
/// prefixes; type suffixes ride along harmlessly.
fn nonzero_literal(text: &str) -> bool {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let digits = t
        .strip_prefix("0x")
        .or_else(|| t.strip_prefix("0X"))
        .or_else(|| t.strip_prefix("0o"))
        .or_else(|| t.strip_prefix("0b"))
        .unwrap_or(&t);
    digits
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .any(|c| c.is_ascii_digit() && c != '0')
}

/// Whether the operand ending right before the operator at `op` is
/// tick-sourced: `….number()`-style accessor call (walk back over the
/// close paren), or `self.0` inside an impl of a tick newtype.
fn tick_sourced_lhs(tokens: &[Token], op: usize, impl_type: Option<&str>) -> bool {
    let Some(j) = op.checked_sub(1) else {
        return false;
    };
    let p = &tokens[j];
    if p.is_punct(")") {
        let mut bal = 1;
        let mut k = j;
        while k > 0 && bal > 0 {
            k -= 1;
            if tokens[k].is_punct(")") {
                bal += 1;
            } else if tokens[k].is_punct("(") {
                bal -= 1;
            }
        }
        if bal != 0 || k == 0 {
            return false;
        }
        let acc = &tokens[k - 1];
        return acc.kind == TokenKind::Ident
            && TICK_ACCESSORS.contains(&acc.text.as_str())
            && k >= 2
            && tokens[k - 2].is_punct(".");
    }
    if p.kind == TokenKind::Literal && p.text == "0" {
        return j >= 2
            && tokens[j - 1].is_punct(".")
            && tokens[j - 2].is_ident("self")
            && impl_type.is_some_and(|t| TICK_TYPES.contains(&t));
    }
    false
}

/// Whether the operand starting right after the operator at `op` is
/// tick-sourced: a forward walk over `ident`/`.` tokens looking for a
/// zero-argument `.number()`-style accessor call. Any other token
/// (including `::`, so `u64::from(…)` conversions stay exempt) ends
/// the operand.
fn tick_sourced_rhs(tokens: &[Token], op: usize) -> bool {
    let mut j = op + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct(".") {
            if tokens.get(j + 1).is_some_and(|a| {
                a.kind == TokenKind::Ident && TICK_ACCESSORS.contains(&a.text.as_str())
            }) && tokens.get(j + 2).is_some_and(|o| o.is_punct("("))
                && tokens.get(j + 3).is_some_and(|c| c.is_punct(")"))
            {
                return true;
            }
            j += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && !CALL_KEYWORDS.contains(&t.text.as_str()) {
            j += 1;
            continue;
        }
        return false;
    }
    false
}

/// Walks back from the `.` token at `dot` to the receiver ident, hopping
/// over one `[…]` / `(…)` group (`slots[idx].lock()` → `slots`).
fn receiver_ident(tokens: &[Token], dot: usize) -> String {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct("]") || t.is_punct(")") {
            let (open, close) = if t.text == "]" {
                ("[", "]")
            } else {
                ("(", ")")
            };
            let mut bal = 1;
            while j > 0 && bal > 0 {
                j -= 1;
                if tokens[j].is_punct(close) {
                    bal += 1;
                } else if tokens[j].is_punct(open) {
                    bal -= 1;
                }
            }
            continue;
        }
        if t.kind == TokenKind::Ident {
            return t.text.clone();
        }
        if t.is_punct(".") || t.is_punct("?") {
            continue;
        }
        break;
    }
    "<expr>".to_string()
}

/// Whether the `impl` at `i` is in type position (`-> impl Trait`,
/// `x: impl Trait`, `&impl Trait`, …) rather than opening an impl block.
fn type_position(tokens: &[Token], i: usize) -> bool {
    i.checked_sub(1).map(|j| &tokens[j]).is_some_and(|p| {
        matches!(
            p.text.as_str(),
            "->" | ":" | "+" | "(" | "," | "<" | "&" | "="
        )
    })
}

/// Extracts the target type from an impl header: the ident after `for`
/// when present (`impl Trait for Type`), else the first ident after the
/// generics (`impl Type`).
fn impl_target(tokens: &[Token], start: usize) -> Option<String> {
    let mut j = start;
    // Skip `<…>` generics on the impl itself.
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut bal = 1;
        j += 1;
        while j < tokens.len() && bal > 0 {
            if tokens[j].is_punct("<") {
                bal += 1;
            } else if tokens[j].is_punct(">") {
                bal -= 1;
            }
            j += 1;
        }
    }
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("{") || t.is_punct(";") {
            break;
        }
        if t.kind == TokenKind::Ident {
            if t.text == "for" {
                saw_for = true;
            } else if t.text == "where" {
                break;
            } else if saw_for && after_for.is_none() {
                // Skip path prefixes: keep updating until the path ends.
                after_for = Some(t.text.clone());
            } else if saw_for
                && tokens
                    .get(j.wrapping_sub(1))
                    .is_some_and(|p| p.is_punct("::"))
            {
                after_for = Some(t.text.clone());
            } else if !saw_for
                && (first.is_none()
                    || tokens
                        .get(j.wrapping_sub(1))
                        .is_some_and(|p| p.is_punct("::")))
            {
                first = Some(t.text.clone());
            }
        }
        j += 1;
    }
    after_for.or(first)
}

/// Whether the annotation `marker` sits in the comment of `fn_line`
/// itself or of the contiguous run of comment/attribute-only lines
/// directly above it (a multi-line attribute counts as attribute lines
/// from its closing `)]` up to its `#[`).
fn has_marker_above(lines: &[SplitLine], fn_line: usize, marker: &str) -> bool {
    let idx = fn_line.saturating_sub(1);
    if lines
        .get(idx)
        .is_some_and(|l| has_directive(&l.comment, marker))
    {
        return true;
    }
    let mut j = idx;
    let mut in_attr = false;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code = l.code.trim();
        let attr_start = code.starts_with("#[") || code.starts_with("#!");
        if in_attr && code.contains(['{', '}', ';']) {
            return false;
        }
        if !in_attr && !code.is_empty() && !attr_start {
            if !code.ends_with(")]") {
                return false;
            }
            in_attr = true;
        }
        if attr_start {
            in_attr = false;
        }
        if has_directive(&l.comment, marker) {
            return true;
        }
        if !code.is_empty() || in_attr {
            // attribute line (or the blanked inside of a string that
            // continues across lines in one) without the marker
            continue;
        }
        if l.comment.is_empty() {
            // blank line ends the attached block
            return false;
        }
    }
    false
}

/// Side scan over the whole token stream for `enum` definitions,
/// collecting variant names at brace depth 1 (attribute groups and
/// variant payloads are skipped by bracket counting). Test-masked
/// enums are ignored.
fn extract_enums(tokens: &[Token], lines: &[SplitLine], mask: &[bool]) -> Vec<EnumDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if !(t.kind == TokenKind::Ident && t.text == "enum") {
            i += 1;
            continue;
        }
        let masked = mask.get(t.line.saturating_sub(1)).copied().unwrap_or(false);
        let Some(name_tok) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // Find the body's opening brace, skipping generics and bounds.
        let mut j = i + 2;
        while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(";") {
            i = j;
            continue;
        }
        let mut variants = Vec::new();
        let mut k = j + 1;
        let mut depth = 1i64;
        let mut expect_name = true;
        while k < tokens.len() && depth > 0 {
            let tk = &tokens[k];
            if tk.kind == TokenKind::Punct {
                match tk.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    "," if depth == 1 => expect_name = true,
                    _ => {}
                }
            } else if depth == 1 && expect_name && tk.kind == TokenKind::Ident {
                variants.push(tk.text.clone());
                expect_name = false;
            }
            k += 1;
        }
        if !masked {
            out.push(EnumDef {
                name: name_tok.text.clone(),
                line: t.line,
                variants,
                protocol: has_marker_above(lines, t.line, PROTOCOL_ENUM_MARKER),
            });
        }
        i = k;
    }
    out
}

/// Side scan over the whole token stream for `match` expressions. Every
/// `match` ident position is parsed independently (nested matches each
/// get their own fact); malformed or non-expression uses parse to
/// `None` and are skipped.
fn extract_matches(
    tokens: &[Token],
    mask: &[bool],
    allowed: &impl Fn(usize, Rule) -> bool,
) -> Vec<MatchFact> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text == "match" {
            if let Some(m) = parse_match(tokens, i, mask, allowed) {
                out.push(m);
            }
        }
    }
    out
}

/// Parses one `match` expression starting at the `match` ident at `at`:
/// scrutinee up to the first `{` at bracket depth 0, then arms as
/// `pattern => body` with bracket-counted bodies.
fn parse_match(
    tokens: &[Token],
    at: usize,
    mask: &[bool],
    allowed: &impl Fn(usize, Rule) -> bool,
) -> Option<MatchFact> {
    // Scrutinee: everything up to the body's opening brace.
    let mut j = at + 1;
    let mut depth = 0i64;
    loop {
        let t = tokens.get(j)?;
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        return None;
                    }
                }
                "{" if depth == 0 => break,
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
    if j == at + 1 {
        return None; // no scrutinee: not a match expression
    }

    let mut arms = Vec::new();
    let mut k = j + 1;
    loop {
        let first = tokens.get(k)?; // unterminated body: bail
        if first.is_punct("}") {
            break;
        }
        // Pattern (guard included): tokens up to `=>` at sub-depth 0.
        let arm_line = first.line;
        let mut pat = Vec::new();
        let mut d = 0i64;
        loop {
            let p = tokens.get(k)?;
            if p.kind == TokenKind::Punct {
                match p.text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" | "}" => {
                        if d == 0 {
                            return None;
                        }
                        d -= 1;
                    }
                    "=>" if d == 0 => break,
                    _ => {}
                }
            }
            pat.push(p.text.clone());
            k += 1;
        }
        k += 1; // past `=>`
        arms.push(ArmFact {
            line: arm_line,
            pat,
            allowed: allowed(arm_line, Rule::StateTotal),
        });
        // Body: a balanced `{…}` block, or an expression up to the `,`
        // (or the match's own closing `}`) at relative depth 0.
        if tokens.get(k).is_some_and(|b| b.is_punct("{")) {
            let mut d = 1i64;
            k += 1;
            loop {
                let b = tokens.get(k)?;
                if b.kind == TokenKind::Punct {
                    match b.text.as_str() {
                        "{" | "(" | "[" => d += 1,
                        "}" | ")" | "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
            k += 1; // past the block's closing `}`
            if tokens.get(k).is_some_and(|c| c.is_punct(",")) {
                k += 1;
            }
        } else {
            let mut d = 0i64;
            loop {
                let b = tokens.get(k)?;
                if b.kind == TokenKind::Punct {
                    match b.text.as_str() {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" if d == 0 => return None,
                        "}" if d == 0 => break,
                        "}" | ")" | "]" => d -= 1,
                        "," if d == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
        }
    }
    Some(MatchFact {
        line: tokens[at].line,
        arms,
        is_test: mask
            .get(tokens[at].line.saturating_sub(1))
            .copied()
            .unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex_tokens, split_source, test_mask};

    fn index(src: &str) -> FileIndex {
        let lines = split_source(src);
        let mask = test_mask(&lines);
        let tokens = lex_tokens(&lines);
        let allows = vec![BTreeSet::new(); lines.len()];
        index_file(
            "demo",
            std::path::Path::new("crates/demo/src/lib.rs"),
            &lines,
            &mask,
            &tokens,
            &allows,
        )
    }

    #[test]
    fn fns_and_impl_types_are_indexed() {
        let fi = index(
            "struct G;\nimpl G {\n    fn inner(&self) {}\n}\nfn free() {}\nimpl Display for G {\n    fn fmt(&self) {}\n}\n",
        );
        let names: Vec<(&str, Option<&str>)> = fi
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![("inner", Some("G")), ("free", None), ("fmt", Some("G"))]
        );
    }

    #[test]
    fn hot_marker_attaches_through_attributes() {
        let fi = index("// bpush-lint: hot_path\n#[inline]\nfn fast() {}\nfn cold() {}\n");
        assert!(fi.fns[0].hot);
        assert!(!fi.fns[1].hot);
    }

    #[test]
    fn calls_record_qualifier_and_receiver() {
        let fi = index("fn f(g: &G) {\n    g.step();\n    G::probe(1);\n    free(2);\n}\n");
        let calls = &fi.fns[0].calls;
        assert_eq!(calls[0].name, "step");
        assert_eq!(calls[0].receiver.as_deref(), Some("g"));
        assert_eq!(calls[1].name, "probe");
        assert_eq!(calls[1].qualifier.as_deref(), Some("G"));
        assert_eq!(calls[2].name, "free");
        assert!(calls[2].qualifier.is_none() && calls[2].receiver.is_none());
    }

    #[test]
    fn alloc_needles_are_found() {
        let fi = index("fn f(v: &mut Vec<u32>) {\n    v.push(1);\n    let b = Box::new(2);\n    let s = format!(\"x\");\n}\n");
        let whats: Vec<&str> = fi.fns[0].allocs.iter().map(|n| n.what.as_str()).collect();
        assert!(whats.iter().any(|w| w.contains("push")));
        assert!(whats.contains(&"Box::new"));
        assert!(whats.contains(&"format!"));
    }

    #[test]
    fn io_needles_are_found() {
        let fi = index(
            "fn f() {\n    let t = std::time::Instant::now();\n    std::thread::sleep(d);\n}\n",
        );
        let whats: Vec<&str> = fi.fns[0].ios.iter().map(|n| n.what.as_str()).collect();
        assert!(whats.contains(&"Instant::now"));
        assert!(whats.contains(&"thread::"));
    }

    #[test]
    fn zero_arg_lock_calls_are_locks_not_calls() {
        let fi = index(
            "fn f(&self) {\n    let g = self.slots[idx].lock();\n    session.read(txn, item);\n}\n",
        );
        let f = &fi.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].recv, "slots");
        // `session.read(txn, item)` takes arguments: a call, not a lock.
        assert!(f.calls.iter().any(|c| c.name == "read"));
    }

    #[test]
    fn test_mask_marks_fns_and_drops_aliases() {
        let fi = index(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() {}\n}\n",
        );
        assert_eq!(fi.fns.len(), 2);
        assert!(!fi.fns[0].is_test);
        assert!(fi.fns[1].is_test);
    }

    #[test]
    fn markers_attach_across_multi_line_attributes() {
        let fi = index(
            "// bpush-lint: hot_path — probe\n#[expect(\n    clippy::expect_used,\n    reason = \"a reason \\\n    continued\"\n)]\nfn f() {}\nfn h() {}\n",
        );
        assert!(fi.fns[0].hot);
        assert!(!fi.fns[1].hot);
    }

    #[test]
    fn sans_io_marker_is_file_level() {
        let fi = index("//! Module docs.\n// bpush-lint: sans_io — protocol core\nfn f() {}\n");
        assert!(fi.sans_io);
    }

    #[test]
    fn trait_method_decls_have_no_body() {
        let fi = index(
            "trait T {\n    fn sig(&self) -> u32;\n    fn with_default(&self) { helper(); }\n}\n",
        );
        assert_eq!(fi.fns.len(), 2);
        assert!(fi.fns[0].calls.is_empty());
        assert_eq!(fi.fns[1].calls[0].name, "helper");
    }

    #[test]
    fn index_sites_are_found_and_non_index_brackets_are_not() {
        let fi = index(
            "fn f(b: &[u8], i: usize) -> u8 {\n    let v = [1, 2];\n    let s: [u8; 2] = v;\n    let _ = &b[..i];\n    b[i] + s[0]\n}\n",
        );
        let whats: Vec<&str> = fi.fns[0].indexes.iter().map(|s| s.what.as_str()).collect();
        // `&b[..i]` slicing and both `b[i]` / `s[0]` index expressions
        // are sites; the array literal, type, and borrow are not.
        assert_eq!(
            whats,
            vec!["`b[…]`", "`b[…]`", "`s[…]`"],
            "{:?}",
            fi.fns[0].indexes
        );
    }

    #[test]
    fn division_facts_skip_constant_and_float_divisors() {
        let fi = index(
            "fn f(a: u64, b: u64) -> u64 {\n    let x = a / 8;\n    let y = 1.5 / ratio;\n    let z = a / b as f64;\n    a % b\n}\n",
        );
        let whats: Vec<&str> = fi.fns[0].panics.iter().map(|n| n.what.as_str()).collect();
        assert_eq!(whats, vec!["`%` with non-constant divisor"]);
    }

    #[test]
    fn unreachable_macro_is_a_panic_fact() {
        let fi = index("fn f() {\n    unreachable!(\"dead\");\n}\n");
        assert_eq!(fi.fns[0].panics[0].what, "unreachable!");
        assert_eq!(fi.fns[0].panics[0].line, 2);
    }

    #[test]
    fn tick_arithmetic_is_found_on_both_sides() {
        let fi = index(
            "fn f(now: Cycle, t: Cycle, w: u64) -> u64 {\n    let lhs = now.number() - w;\n    let rhs = w + t.number();\n    let safe = now.number().saturating_sub(w);\n    let conv = w + u64::from(t.number());\n    lhs + rhs\n}\n",
        );
        let lines: Vec<usize> = fi.fns[0].ticks.iter().map(|n| n.line).collect();
        assert_eq!(lines, vec![2, 3], "{:?}", fi.fns[0].ticks);
    }

    #[test]
    fn self_zero_arithmetic_counts_only_in_tick_impls() {
        let tick = index(
            "impl Cycle {\n    fn next(self) -> Cycle {\n        Cycle(self.0 + 1)\n    }\n}\n",
        );
        assert_eq!(tick.fns[0].ticks.len(), 1);
        let plain =
            index("impl Reader {\n    fn next(self) -> u64 {\n        self.0 + 1\n    }\n}\n");
        assert!(plain.fns[0].ticks.is_empty());
    }

    #[test]
    fn enums_are_indexed_with_variants_and_marker() {
        let fi = index(
            "// bpush-lint: protocol_enum — wire vocabulary\n#[derive(Debug)]\npub enum Seg {\n    Header,\n    Body(u32),\n    Tail { n: u8 },\n}\nenum Plain { A, B = 3 }\n",
        );
        assert_eq!(fi.enums.len(), 2);
        assert_eq!(fi.enums[0].name, "Seg");
        assert_eq!(fi.enums[0].variants, vec!["Header", "Body", "Tail"]);
        assert!(fi.enums[0].protocol);
        assert_eq!(fi.enums[1].variants, vec!["A", "B"]);
        assert!(!fi.enums[1].protocol);
    }

    #[test]
    fn match_arms_record_patterns_and_wildcards() {
        let fi = index(
            "fn f(s: Seg) -> u32 {\n    match s {\n        Seg::Header => 0,\n        Seg::Body(n) => n,\n        _ => 2,\n    }\n}\n",
        );
        assert_eq!(fi.matches.len(), 1);
        let m = &fi.matches[0];
        assert_eq!(m.line, 2);
        assert_eq!(m.arms.len(), 3);
        assert_eq!(m.arms[0].pat, vec!["Seg", "::", "Header"]);
        assert_eq!(m.arms[2].pat, vec!["_"]);
        assert_eq!(m.arms[2].line, 5);
    }

    #[test]
    fn nested_matches_yield_independent_facts() {
        let fi = index(
            "fn f(a: A, b: B) -> u32 {\n    match a {\n        A::X => match b {\n            B::Y => 1,\n            other => 2,\n        },\n        A::Z => 3,\n    }\n}\n",
        );
        assert_eq!(fi.matches.len(), 2);
        assert_eq!(fi.matches[0].arms.len(), 2, "{:?}", fi.matches[0].arms);
        assert_eq!(fi.matches[1].arms.len(), 2);
        assert_eq!(fi.matches[1].arms[1].pat, vec!["other"]);
    }

    #[test]
    fn decode_path_marker_is_file_level() {
        let fi = index("// bpush-lint: decode_path — wire reader\nfn f() {}\n");
        assert!(fi.decode_path);
    }
}
