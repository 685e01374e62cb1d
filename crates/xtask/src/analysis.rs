//! Drivers for the interprocedural rules: L8/hot-alloc, L9/sans-io,
//! L10/lock-order, L11/taint, and the dataflow layer L12/panic-reach,
//! L13/state-total, L14/decode-bounds, L15/overflow. Each consumes the
//! per-file indexes from [`crate::items`] through the resolved
//! [`crate::callgraph`] and emits ordinary [`Diagnostic`]s; [`Analysis`]
//! carries the summary facts the self-tests pin (hot-function coverage,
//! sans-IO surface, protocol-enum set, decode surface).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, DepMap};
use crate::items::{EnumDef, FileIndex};
use crate::{Diagnostic, Rule, DETERMINISTIC_CRATES};

/// Summary facts from the interprocedural pass.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Every `crate::fn` carrying the `hot_path` annotation, sorted.
    pub hot_functions: Vec<String>,
    /// Every file declaring `sans_io`, as workspace-relative paths, sorted.
    pub sans_io_files: Vec<String>,
    /// Every enum carrying the `protocol_enum` annotation, sorted by name.
    pub protocol_enums: Vec<String>,
    /// Every file declaring `decode_path`, as workspace-relative paths, sorted.
    pub decode_files: Vec<String>,
}

/// Runs L8–L15 over the indexed files, appending findings to `diags`.
#[must_use]
pub fn run(files: &[FileIndex], deps: &DepMap, diags: &mut Vec<Diagnostic>) -> Analysis {
    let graph = CallGraph::build(files, deps);
    let mut analysis = Analysis::default();

    let mut hot = BTreeSet::new();
    let mut sans = BTreeSet::new();
    for id in graph.ids() {
        let (file, f) = graph.fn_at(id);
        if f.is_test {
            continue;
        }
        if f.hot {
            hot.insert(format!("{}::{}", file.crate_name, f.name));
            check_purity(&graph, id, Rule::HotAlloc, diags);
        }
        if file.sans_io {
            sans.insert(file.rel.display().to_string());
            check_purity(&graph, id, Rule::SansIo, diags);
        }
        // L12: the same entry points own the panic-freedom contract.
        if f.hot || file.sans_io {
            check_panic_reach(&graph, id, diags);
        }
    }
    analysis.hot_functions = hot.into_iter().collect();
    analysis.sans_io_files = files
        .iter()
        .filter(|f| f.sans_io)
        .map(|f| f.rel.display().to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    check_lock_order(&graph, diags);
    check_taint(&graph, diags);
    check_state_total(files, diags, &mut analysis);
    check_decode_bounds(&graph, files, diags, &mut analysis);
    check_overflow(files, diags);
    analysis
}

/// L8 / L9 share one shape: no function reachable from `start` may carry
/// the rule's needle set.
fn check_purity(graph: &CallGraph<'_>, start: usize, rule: Rule, diags: &mut Vec<Diagnostic>) {
    let (file, f) = graph.fn_at(start);
    let (reached, parent) = graph.reachable(start);
    for id in reached {
        let (nfile, nf) = graph.fn_at(id);
        let needles = match rule {
            Rule::HotAlloc => &nf.allocs,
            _ => &nf.ios,
        };
        for n in needles {
            let via = if id == start {
                String::new()
            } else {
                format!(" via {}", graph.chain(start, id, &parent))
            };
            let (what, fix) = match rule {
                Rule::HotAlloc => (
                    "hot_path",
                    "keep the hot path allocation-free or annotate the site with a reason",
                ),
                _ => (
                    "sans_io",
                    "keep the protocol core free of clocks, threads, channels, files, and sockets",
                ),
            };
            diags.push(Diagnostic {
                rule,
                file: file.rel.clone(),
                line: f.line,
                message: format!(
                    "{what} fn `{}` reaches `{}` at {}:{}{via}; {fix}",
                    f.name,
                    n.what,
                    nfile.rel.display(),
                    n.line,
                ),
            });
        }
    }
}

/// L10: build the lock-acquisition order graph (intra-function ordering
/// plus locks reachable through calls made while a guard is held) and
/// reject cycles.
fn check_lock_order(graph: &CallGraph<'_>, diags: &mut Vec<Diagnostic>) {
    // Locks transitively acquired by each function (memoized per id).
    let mut reach_locks: Vec<Option<BTreeSet<String>>> = vec![None; graph.len()];
    let mut locks_of = |graph: &CallGraph<'_>, id: usize| -> BTreeSet<String> {
        if let Some(cached) = &reach_locks[id] {
            return cached.clone();
        }
        let (reached, _) = graph.reachable(id);
        let mut set = BTreeSet::new();
        for rid in reached {
            let (rfile, rf) = graph.fn_at(rid);
            for l in &rf.locks {
                set.insert(format!("{}/{}", rfile.crate_name, l.recv));
            }
        }
        reach_locks[id] = Some(set.clone());
        set
    };

    // Edges as (from, to, file, line), deterministic order.
    let mut edges: Vec<(String, String, std::path::PathBuf, usize)> = Vec::new();
    for id in graph.ids() {
        let (file, f) = graph.fn_at(id);
        if f.is_test {
            continue;
        }
        let key = |recv: &str| format!("{}/{}", file.crate_name, recv);
        for (i, a) in f.locks.iter().enumerate() {
            // Later acquisitions in the same body nest under `a`.
            for b in f.locks.iter().skip(i + 1) {
                edges.push((key(&a.recv), key(&b.recv), file.rel.clone(), b.line));
            }
            // Calls made after `a` is taken pull in the callee's locks.
            for call in f.calls.iter().filter(|c| c.pos > a.pos) {
                let callees: Vec<usize> = graph
                    .callees(id)
                    .iter()
                    .copied()
                    .filter(|&cid| graph.fn_at(cid).1.name == call.name)
                    .collect();
                for cid in callees {
                    for held in locks_of(graph, cid) {
                        edges.push((key(&a.recv), held, file.rel.clone(), call.line));
                    }
                }
            }
        }
    }
    edges.sort();
    edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    // Adjacency for cycle queries.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to, _, _) in &edges {
        adj.entry(from).or_default().insert(to);
    }
    let path_to = |from: &str, to: &str| -> Option<Vec<String>> {
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut path = vec![cur.to_string()];
                let mut walk = cur;
                while let Some(&p) = parent.get(walk) {
                    path.push(p.to_string());
                    walk = p;
                }
                path.reverse();
                return Some(path);
            }
            for &next in adj.get(cur).into_iter().flatten() {
                if next != from && !parent.contains_key(next) {
                    parent.insert(next, cur);
                    queue.push_back(next);
                }
            }
        }
        // `from == to` with a self-edge:
        if from == to && adj.get(from).is_some_and(|s| s.contains(to)) {
            return Some(vec![from.to_string()]);
        }
        None
    };

    for (from, to, file, line) in &edges {
        let back = if from == to {
            Some(vec![to.clone()])
        } else {
            path_to(to, from)
        };
        let Some(back) = back else { continue };
        // Report each cycle once: at the edge leaving its smallest node.
        let min_on_cycle = back.iter().chain(std::iter::once(from)).min();
        if min_on_cycle != Some(from) {
            continue;
        }
        let cycle: Vec<&str> = std::iter::once(from.as_str())
            .chain(back.iter().map(String::as_str))
            .collect();
        diags.push(Diagnostic {
            rule: Rule::LockOrder,
            file: file.clone(),
            line: *line,
            message: if from == to {
                format!("lock `{from}` re-acquired while already held (self-deadlock)")
            } else {
                format!(
                    "lock-order cycle: {}; acquire locks in one global order",
                    cycle.join(" → ")
                )
            },
        });
    }
}

/// L11: deterministic-crate functions that transitively reach a
/// needle-bearing function in a crate *outside* the deterministic set.
/// Within the set, clippy's path-resolved `disallowed_methods`/
/// `disallowed_types` already reject the construct at its use site,
/// renamed imports included; only the crate boundary hides it.
fn check_taint(graph: &CallGraph<'_>, diags: &mut Vec<Diagnostic>) {
    for id in graph.ids() {
        let (file, f) = graph.fn_at(id);
        if f.is_test || !DETERMINISTIC_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let (reached, parent) = graph.reachable(id);
        for rid in reached {
            if rid == id {
                continue;
            }
            let (rfile, rf) = graph.fn_at(rid);
            if DETERMINISTIC_CRATES.contains(&rfile.crate_name.as_str()) {
                continue; // clippy polices needles inside the set
            }
            if let Some(n) = rf.dets.first() {
                diags.push(Diagnostic {
                    rule: Rule::Taint,
                    file: file.rel.clone(),
                    line: f.line,
                    message: format!(
                        "deterministic fn `{}` reaches non-deterministic `{}` at {}:{} \
                         via {}; hoist the construct behind a deterministic API or \
                         annotate with a reason",
                        f.name,
                        n.what,
                        rfile.rel.display(),
                        n.line,
                        graph.chain(id, rid, &parent),
                    ),
                });
            }
        }
    }
}

/// L12: nothing reachable from a `hot_path`/`sans_io` entry point may
/// hit an implicit panic site — a raw index/slice, a division with a
/// non-constant divisor, or `unreachable!`. clippy sees `unreachable!`
/// only at its own site and the implicit sites not at all; here a
/// helper crate two hops away is still on the hook.
fn check_panic_reach(graph: &CallGraph<'_>, start: usize, diags: &mut Vec<Diagnostic>) {
    let (file, f) = graph.fn_at(start);
    let (reached, parent) = graph.reachable(start);
    for id in reached {
        let (nfile, nf) = graph.fn_at(id);
        let sites = nf.panics.iter().map(|n| (n.what.as_str(), n.line)).chain(
            nf.indexes
                .iter()
                .filter(|s| !s.allowed_panic)
                .map(|s| (s.what.as_str(), s.line)),
        );
        for (what, line) in sites {
            let via = if id == start {
                String::new()
            } else {
                format!(" via {}", graph.chain(start, id, &parent))
            };
            diags.push(Diagnostic {
                rule: Rule::PanicReach,
                file: file.rel.clone(),
                line: f.line,
                message: format!(
                    "protocol entry fn `{}` reaches implicit panic site {} at {}:{}{via}; \
                     use checked accessors/arithmetic or annotate the site with a reason",
                    f.name,
                    what,
                    nfile.rel.display(),
                    line,
                ),
            });
        }
    }
}

/// L13: a match that names a `protocol_enum`-marked variant must name
/// every variant — a wildcard `_` or catch-all binding arm silences the
/// compiler's exhaustiveness check for the next segment kind added.
fn check_state_total(files: &[FileIndex], diags: &mut Vec<Diagnostic>, analysis: &mut Analysis) {
    let mut enums: BTreeMap<&str, &EnumDef> = BTreeMap::new();
    for file in files {
        for e in &file.enums {
            if e.protocol {
                enums.entry(e.name.as_str()).or_insert(e);
            }
        }
    }
    analysis.protocol_enums = enums.keys().map(|s| (*s).to_string()).collect();

    for file in files {
        for m in &file.matches {
            if m.is_test {
                continue;
            }
            // Which marked enums this match is over, and the variants
            // its arms name — `Enum::Variant` references in patterns.
            let mut named: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for arm in &m.arms {
                for w in arm.pat.windows(3) {
                    if w[1] != "::" {
                        continue;
                    }
                    if let Some(e) = enums.get(w[0].as_str()) {
                        if e.variants.iter().any(|v| *v == w[2]) {
                            named
                                .entry(e.name.as_str())
                                .or_default()
                                .insert(w[2].as_str());
                        }
                    }
                }
            }
            if named.is_empty() {
                continue;
            }
            let Some(arm) = m.arms.iter().find(|a| !a.allowed && is_catch_all(&a.pat)) else {
                continue;
            };
            for (ename, seen) in &named {
                let e = enums[ename];
                let hidden: Vec<&str> = e
                    .variants
                    .iter()
                    .map(String::as_str)
                    .filter(|v| !seen.contains(*v))
                    .collect();
                let hides = if hidden.is_empty() {
                    "every future variant".to_string()
                } else {
                    format!("`{}`", hidden.join("`, `"))
                };
                diags.push(Diagnostic {
                    rule: Rule::StateTotal,
                    file: file.rel.clone(),
                    line: arm.line,
                    message: format!(
                        "catch-all arm `{}` over protocol enum `{ename}` hides {hides}; \
                         name every variant so a new kind is a lint error at every handler",
                        arm.pat.first().map(String::as_str).unwrap_or("_"),
                    ),
                });
            }
        }
    }
}

/// Whether a match arm pattern swallows the rest of the value space: a
/// wildcard `_` or a lowercase catch-all binding, with or without a
/// guard (a guarded catch-all is still non-total).
fn is_catch_all(pat: &[String]) -> bool {
    let Some(first) = pat.first() else {
        return false;
    };
    if !(pat.len() == 1 || pat.get(1).is_some_and(|t| t == "if")) {
        return false;
    }
    if first == "_" {
        return true;
    }
    first.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && first.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !crate::items::CALL_KEYWORDS.contains(&first.as_str())
        && first != "true"
        && first != "false"
}

/// L14: a `decode_path` file may only touch input bytes through the
/// checked `take_*` accessors — every raw index/slice site is a
/// finding, enriched with the call chain from a `decode_*` entry when
/// one reaches it.
fn check_decode_bounds(
    graph: &CallGraph<'_>,
    files: &[FileIndex],
    diags: &mut Vec<Diagnostic>,
    analysis: &mut Analysis,
) {
    analysis.decode_files = files
        .iter()
        .filter(|f| f.decode_path)
        .map(|f| f.rel.display().to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let decode_entries: Vec<usize> = graph
        .ids()
        .filter(|&id| {
            let (file, f) = graph.fn_at(id);
            file.decode_path && !f.is_test && f.name.starts_with("decode")
        })
        .collect();

    for id in graph.ids() {
        let (file, f) = graph.fn_at(id);
        if !file.decode_path || f.is_test {
            continue;
        }
        for s in &f.indexes {
            if s.allowed_decode {
                continue;
            }
            let from = decode_entries
                .iter()
                .find_map(|&eid| {
                    if eid == id {
                        return None;
                    }
                    let (reached, parent) = graph.reachable(eid);
                    if reached.binary_search(&id).is_ok() {
                        Some(format!(
                            " (reached from decode entry via {})",
                            graph.chain(eid, id, &parent)
                        ))
                    } else {
                        None
                    }
                })
                .unwrap_or_default();
            diags.push(Diagnostic {
                rule: Rule::DecodeBounds,
                file: file.rel.clone(),
                line: s.line,
                message: format!(
                    "raw byte access {} in decode-path fn `{}`{from}; read input only \
                     through the checked `take_*` accessors",
                    s.what, f.name,
                ),
            });
        }
    }
}

/// L15: every unchecked `+`/`-`/`*` where an operand is tick-sourced
/// (an extracted fact from [`crate::items`]) is a finding — tick
/// counters grow monotonically for the life of the broadcast, so plain
/// arithmetic is a silent-wraparound hazard.
fn check_overflow(files: &[FileIndex], diags: &mut Vec<Diagnostic>) {
    for file in files {
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            for n in &f.ticks {
                diags.push(Diagnostic {
                    rule: Rule::Overflow,
                    file: file.rel.clone(),
                    line: n.line,
                    message: format!(
                        "{} in fn `{}`; use checked/saturating/wrapping arithmetic or \
                         annotate with a reason",
                        n.what, f.name,
                    ),
                });
            }
        }
    }
}
