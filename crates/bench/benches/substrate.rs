//! Substrate microbenchmarks: the building blocks every experiment rests
//! on — serialization-graph operations, cache operations, workload
//! sampling, bcast assembly, and the per-cycle server loop.

#![allow(clippy::expect_used, reason = "a broken fixture must stop the bench")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bpush_broadcast::organization::{Flat, MultiversionOverflow};
use bpush_broadcast::{ControlInfo, ItemRecord};
use bpush_client::{CacheParams, ClientCache};
use bpush_core::CacheMode;
use bpush_server::{BroadcastServer, ServerOptions};
use bpush_sgraph::{Node, SerializationGraph};
use bpush_types::config::MultiversionLayout;
use bpush_types::zipf::AccessPattern;
use bpush_types::{Cycle, ItemId, ItemValue, QueryId, ServerConfig, TxnId};

fn bench_sgraph(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/sgraph");

    // a layered graph shaped like real SGT state: 32 cycles x 10 txns,
    // edges forward between adjacent cycles
    let build = || {
        let mut g = SerializationGraph::new();
        for cy in 1..32u64 {
            for seq in 0..10u32 {
                let from = TxnId::new(Cycle::new(cy - 1), seq);
                let to = TxnId::new(Cycle::new(cy), (seq + 1) % 10);
                g.add_edge(Node::Txn(from), Node::Txn(to));
            }
        }
        g
    };

    group.bench_function("build-320-txn-graph", |b| b.iter(build));

    let g = build();
    group.bench_function("cycle-check-miss", |b| {
        // query with one outgoing edge near the end: short search
        let mut g = g.clone();
        let q = Node::Query(QueryId::new(0));
        g.add_edge(q, Node::Txn(TxnId::new(Cycle::new(30), 0)));
        b.iter(|| g.would_close_cycle(Node::Txn(TxnId::new(Cycle::new(5), 0)), q));
    });
    group.bench_function("cycle-check-hit", |b| {
        // query implicated early: the DFS must walk the layers
        let mut g = g.clone();
        let q = Node::Query(QueryId::new(0));
        g.add_edge(q, Node::Txn(TxnId::new(Cycle::new(1), 0)));
        b.iter(|| g.would_close_cycle(Node::Txn(TxnId::new(Cycle::new(31), 1)), q));
    });
    group.bench_function("prune-half", |b| {
        b.iter_batched(
            build,
            |mut g| {
                g.prune_before(Cycle::new(16));
                g
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// A layered graph of `nodes` transactions (10 per cycle, forward edges
/// between adjacent cycles) — the steady-state shape of client SGT state.
fn layered_graph(nodes: u64) -> SerializationGraph {
    let cycles = (nodes / 10).max(2);
    let mut g = SerializationGraph::new();
    for cy in 1..cycles {
        for seq in 0..10u32 {
            let from = TxnId::new(Cycle::new(cy - 1), seq);
            let to = TxnId::new(Cycle::new(cy), (seq + 1) % 10);
            g.add_edge(Node::Txn(from), Node::Txn(to));
        }
    }
    g
}

fn bench_sgraph_scaling(c: &mut Criterion) {
    use bpush_sgraph::GraphDiff;

    let mut group = c.benchmark_group("substrate/sgraph-scaling");
    for &nodes in &[100u64, 1_000, 10_000] {
        let cycles = nodes / 10;
        let mut g = layered_graph(nodes);
        // an unreachable target forces the DFS to exhaust the graph —
        // the worst-case acceptance check
        let unreachable = Node::Query(QueryId::new(999));
        g.add_node(unreachable);
        let g = g;

        group.bench_with_input(BenchmarkId::new("path-exists", nodes), &g, |b, g| {
            let from = Node::Txn(TxnId::new(Cycle::ZERO, 0));
            b.iter(|| g.path_exists(from, unreachable));
        });

        let diff = GraphDiff::new(
            Cycle::new(cycles),
            (0..10).map(|s| TxnId::new(Cycle::new(cycles), s)).collect(),
            (0..10)
                .map(|s| {
                    (
                        TxnId::new(Cycle::new(cycles - 1), s),
                        TxnId::new(Cycle::new(cycles), (s + 1) % 10),
                    )
                })
                .collect(),
        );
        group.bench_with_input(
            BenchmarkId::new("apply-diff", nodes),
            &(&g, &diff),
            |b, (g, diff)| {
                b.iter_batched(
                    || (*g).clone(),
                    |mut g| {
                        g.apply_diff(diff);
                        g
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );

        group.bench_with_input(BenchmarkId::new("remove-query", nodes), &g, |b, g| {
            b.iter_batched(
                || {
                    // a finished query entangled with one txn per cycle —
                    // the shape finish_query unlinks on the hot path
                    let mut g = g.clone();
                    let q = Node::Query(QueryId::new(0));
                    for cy in 0..cycles {
                        g.add_edge(q, Node::Txn(TxnId::new(Cycle::new(cy), 0)));
                        g.add_edge(Node::Txn(TxnId::new(Cycle::new(cy), 1)), q);
                    }
                    g
                },
                |mut g| {
                    g.remove_query(QueryId::new(0));
                    g
                },
                criterion::BatchSize::SmallInput,
            );
        });

        group.bench_with_input(BenchmarkId::new("prune-before", nodes), &g, |b, g| {
            b.iter_batched(
                || g.clone(),
                |mut g| {
                    g.prune_before(Cycle::new(cycles / 2));
                    g
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_report_membership(c: &mut Criterion) {
    use bpush_broadcast::{AugmentedReport, InvalidationReport};
    use bpush_types::Granularity;

    let mut group = c.benchmark_group("substrate/report-membership");
    let state = Cycle::new(3);
    let report = InvalidationReport::new(
        Cycle::new(5),
        2,
        (0..200u32).map(|i| ItemId::new(i * 5)),
        Granularity::Item,
        10,
    );
    // a readset of 50 sorted items, every fifth one off-grid (misses)
    let readset: Vec<ItemId> = (0..50u32).map(|i| ItemId::new(i * 20 + (i % 5))).collect();
    group.bench_function("any-stale-gallop", |b| {
        b.iter(|| report.any_stale(&readset, state));
    });
    // the PR-8 word-AND path over the same probe (ReadSet caches the
    // word-block form the `*_set` probes consume)
    let rs: bpush_core::ReadSet = readset.iter().copied().collect();
    group.bench_function("any-stale-words", |b| {
        b.iter(|| report.any_stale_set(rs.as_slice(), rs.word_blocks(), state));
    });
    group.bench_function("any-stale-per-item", |b| {
        // the pre-interning shape: one granularity-aware probe per member
        b.iter(|| readset.iter().any(|&x| report.stale_at(x, state)));
    });
    let coarse = report.clone().at_granularity(Granularity::Bucket);
    group.bench_function("any-stale-gallop-bucket", |b| {
        b.iter(|| coarse.any_stale(&readset, state));
    });
    let aug_cycle = Cycle::new(4);
    let aug = AugmentedReport::new(
        aug_cycle,
        (0..200u32).map(|i| (ItemId::new(i * 5), TxnId::new(aug_cycle, i))),
    );
    group.bench_function("augmented-matches-gallop", |b| {
        b.iter(|| aug.matches_in(&readset).count());
    });
    group.bench_function("augmented-matches-words", |b| {
        b.iter(|| aug.matches_in_set(rs.as_slice(), rs.word_blocks()).count());
    });
    group.bench_function("augmented-matches-scan", |b| {
        // the pre-interning shape: walk every entry, probe the readset
        b.iter(|| {
            aug.entries()
                .filter(|(x, _)| readset.binary_search(x).is_ok())
                .count()
        });
    });
    group.finish();
}

fn bench_batch_validation(c: &mut Criterion) {
    use bpush_broadcast::InvalidationReport;
    use bpush_core::batch::{stale_verdicts, CohortScreen};
    use bpush_core::ReadSet;
    use bpush_types::Granularity;

    let mut group = c.benchmark_group("substrate/batch-validation");
    // 64 cohorts of 4 readsets in disjoint 64-id regions; the report
    // touches only the low eighth, so most cohorts screen out in one
    // word-AND pass — the shape one broadcast cycle presents to a
    // client population
    let report = InvalidationReport::new(
        Cycle::new(1),
        1,
        (0..300u32).map(|i| ItemId::new(i * 37 % 512)),
        Granularity::Item,
        1,
    );
    let cohorts: Vec<Vec<ReadSet>> = (0..64u32)
        .map(|j| {
            (0..4u32)
                .map(|q| {
                    (0..12u32)
                        .map(|k| ItemId::new(j * 64 + (q * 17 + k * 5) % 64))
                        .collect()
                })
                .collect()
        })
        .collect();
    let screens: Vec<CohortScreen> = cohorts
        .iter()
        .map(|c| CohortScreen::for_readsets(c.iter()))
        .collect();
    group.bench_function("cohort-screen-words", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut hits = 0usize;
            for (cohort, screen) in cohorts.iter().zip(&screens) {
                let cohort: Vec<(&ReadSet, Cycle)> =
                    cohort.iter().map(|rs| (rs, Cycle::ZERO)).collect();
                stale_verdicts(&report, screen, &cohort, &mut out);
                hits += out.iter().filter(|&&b| b).count();
            }
            hits
        });
    });
    group.bench_function("per-query-gallop", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for cohort in &cohorts {
                for rs in cohort {
                    if report.any_stale(rs.as_slice(), Cycle::ZERO) {
                        hits += 1;
                    }
                }
            }
            hits
        });
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/cache");
    for mode in [CacheMode::Plain, CacheMode::Multiversion] {
        group.bench_with_input(
            BenchmarkId::new("lookup-insert-churn", format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter_batched(
                    || {
                        ClientCache::new(CacheParams {
                            mode,
                            current_capacity: 125,
                            old_capacity: if mode == CacheMode::Multiversion {
                                30
                            } else {
                                0
                            },
                            items_per_bucket: 1,
                        })
                    },
                    |mut cache| {
                        for i in 0..500u32 {
                            let item = ItemId::new(i % 200);
                            let rec = ItemRecord::new(item, ItemValue::initial(), None);
                            cache.insert_from_broadcast(&rec, Cycle::new(u64::from(i / 50)));
                            cache.lookup(ItemId::new((i * 7) % 200), Cycle::new(u64::from(i / 50)));
                        }
                        cache.stats().hits
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/workload");
    let pattern = AccessPattern::new(500, 0.95, 100).expect("valid pattern");
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("zipf-sample", |b| b.iter(|| pattern.sample(&mut rng)));
    group.bench_function("zipf-50-distinct", |b| {
        b.iter(|| pattern.sample_distinct(&mut rng, 50))
    });
    group.finish();
}

fn bench_bcast_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/bcast-assembly");
    let records: Vec<ItemRecord> = (0..1000)
        .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
        .collect();
    group.bench_function("flat-1000-items", |b| {
        b.iter(|| {
            Flat::new(1)
                .assemble(
                    Cycle::ZERO,
                    ControlInfo::empty(Cycle::ZERO),
                    records.clone(),
                    Vec::new(),
                )
                .total_slots()
        });
    });
    let old: Vec<(ItemId, Vec<ItemValue>)> = (0..100)
        .map(|i| (ItemId::new(i), vec![ItemValue::initial()]))
        .collect();
    let versioned: Vec<ItemRecord> = (0..1000)
        .map(|i| {
            let v = if i < 100 {
                ItemValue::written_by(TxnId::new(Cycle::new(3), 0))
            } else {
                ItemValue::initial()
            };
            ItemRecord::new(ItemId::new(i), v, None)
        })
        .collect();
    group.bench_function("overflow-1000-items-100-old", |b| {
        b.iter(|| {
            MultiversionOverflow::new(1)
                .assemble(
                    Cycle::new(4),
                    ControlInfo::empty(Cycle::new(4)),
                    versioned.clone(),
                    old.clone(),
                )
                .total_slots()
        });
    });
    group.finish();
}

fn bench_server_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/server-cycle");
    group.sample_size(20);
    let config = ServerConfig::default(); // D = 1000, the paper's size
    for (name, opts) in [
        ("plain", ServerOptions::plain()),
        ("sgt", ServerOptions::sgt()),
        (
            "multiversion",
            ServerOptions::multiversion(MultiversionLayout::Overflow),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter_batched(
                || BroadcastServer::new(config.clone(), opts.clone(), 1).expect("valid"),
                |mut server| {
                    for _ in 0..10 {
                        server.run_cycle();
                    }
                    server.next_cycle()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    use bpush_broadcast::wire::{decode_invalidation, encode_invalidation, WireParams};
    use bpush_broadcast::InvalidationReport;
    use bpush_types::Granularity;

    let mut group = c.benchmark_group("substrate/wire");
    let params = WireParams::derive(1000, 1, 10, 8);
    let report = InvalidationReport::new(
        Cycle::new(5),
        1,
        (0..50).map(|i| ItemId::new(i * 17 % 1000)),
        Granularity::Item,
        1,
    );
    group.bench_function("encode-50-entry-report", |b| {
        b.iter(|| encode_invalidation(&report, params).len());
    });
    let bytes = encode_invalidation(&report, params);
    group.bench_function("decode-50-entry-report", |b| {
        b.iter(|| {
            decode_invalidation(&bytes, params, Cycle::new(5), 1, Granularity::Item, 1)
                .expect("valid stream")
                .len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sgraph,
    bench_sgraph_scaling,
    bench_report_membership,
    bench_batch_validation,
    bench_cache,
    bench_workload,
    bench_bcast_assembly,
    bench_server_cycle,
    bench_wire
);
criterion_main!(benches);
