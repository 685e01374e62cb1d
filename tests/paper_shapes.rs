//! Shape-level reproduction checks for §5's results, at the quick scale:
//! the *orderings* and *trends* the paper reports must hold, even though
//! absolute numbers come from our simulated substrate.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "tests are exempt from library lints"
)]
use bpush_core::Method;
use bpush_sim::experiments::{self, fig5, fig6, fig8, Scale};
use bpush_sim::{Simulation, Table};

fn column(t: &Table, name: &str) -> usize {
    t.columns
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("no column {name} in {:?}", t.columns))
}

fn cell(t: &Table, row: usize, col: &str) -> f64 {
    t.rows[row][column(t, col)].parse().unwrap()
}

/// Figure 5 (left): for every query size, the method ordering holds —
/// multiversion ≡ 0 aborts, SGT+cache no worse than plain invalidation,
/// caching never hurts the invalidation method.
#[test]
fn fig5_left_method_ordering() {
    let t = fig5::left(Scale::Quick).unwrap();
    for row in 0..t.len() {
        let inv = cell(&t, row, "inv-only");
        let inv_cache = cell(&t, row, "inv+cache");
        let sgt_cache = cell(&t, row, "sgt+cache");
        let mv = cell(&t, row, "multiversion");
        assert_eq!(mv, 0.0, "row {row}: multiversion aborts nothing");
        assert!(
            sgt_cache <= inv + 1e-9,
            "row {row}: sgt+cache ({sgt_cache}) must not abort more than inv-only ({inv})"
        );
        assert!(
            inv_cache <= inv + 5.0,
            "row {row}: caching must not materially hurt inv-only"
        );
    }
    // abort rate grows with query size for the invalidation family
    let first = cell(&t, 0, "inv-only");
    let last = cell(&t, t.len() - 1, "inv-only");
    assert!(
        last >= first,
        "bigger queries abort more: {first} -> {last}"
    );
}

/// Figure 5 (right): abort rates decline as the update pattern moves away
/// from the client read pattern.
#[test]
fn fig5_right_offset_decline() {
    let t = fig5::right(Scale::Quick).unwrap();
    for method in ["inv-only", "sgt"] {
        let first = cell(&t, 0, method);
        let last = cell(&t, t.len() - 1, method);
        assert!(
            last <= first + 1e-9,
            "{method}: abort rate must fall with offset ({first} -> {last})"
        );
    }
}

/// Figure 6: more updates, more aborts; and at the top of the sweep the
/// versioned cache holds up at least as well as plain SGT (the paper's
/// crossover at U ≳ D/4).
#[test]
fn fig6_update_volume() {
    let t = fig6::run(Scale::Quick).unwrap();
    let last = t.len() - 1;
    for method in ["inv-only", "sgt"] {
        assert!(
            cell(&t, last, method) >= cell(&t, 0, method) - 1e-9,
            "{method} must degrade with updates"
        );
    }
    let vc_last = cell(&t, last, "inv+vcache");
    let inv_last = cell(&t, last, "inv-only");
    assert!(
        vc_last <= inv_last + 1e-9,
        "versioned cache must beat plain invalidation at high update volume \
         ({vc_last} vs {inv_last})"
    );
}

/// Figure 8 (left): latency grows with query size, and is roughly half a
/// cycle per broadcast read for the cacheless current-state method.
#[test]
fn fig8_left_latency_shape() {
    let t = fig8::left(Scale::Quick).unwrap();
    let mv_first = cell(&t, 0, "multiversion");
    let mv_last = cell(&t, t.len() - 1, "multiversion");
    assert!(mv_last > mv_first, "latency grows with reads");
    // half-a-cycle-per-read ballpark for the first row (4 reads -> ~2
    // cycles); allow generous slack for think time and commit effects
    let inv_first = cell(&t, 0, "inv-only");
    if inv_first > 0.0 {
        assert!(
            (0.5..=6.0).contains(&inv_first),
            "4-read query should take a few cycles, got {inv_first}"
        );
    }
}

/// Figure 8 (right): multiversion latency declines as the offset grows
/// (fewer reads detour to the overflow area).
#[test]
fn fig8_right_offset_decline() {
    let t = fig8::right(Scale::Quick).unwrap();
    let first: f64 = t.rows.first().unwrap()[1].parse().unwrap();
    let last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
    assert!(
        last <= first + 0.35,
        "mv latency should not grow with offset: {first} -> {last}"
    );
}

/// Table 1's concurrency column: multiversion accepts everything; the
/// cached invalidation variants accept at least as much as the bare one.
#[test]
fn table1_concurrency_ordering() {
    let base = experiments::defaults(Scale::Quick);
    let accept = |method: Method| -> f64 {
        let cfg = experiments::config_for(method, base.clone());
        let m = Simulation::new(cfg, method).unwrap().run().unwrap();
        assert_eq!(m.violations, 0);
        100.0 - m.abort_pct()
    };
    let inv = accept(Method::InvalidationOnly);
    let inv_cache = accept(Method::InvalidationCache);
    let inv_vcache = accept(Method::InvalidationVersionedCache);
    let mv = accept(Method::MultiversionBroadcast);
    assert_eq!(mv, 100.0);
    assert!(inv_cache >= inv - 3.0, "cache helps: {inv_cache} vs {inv}");
    assert!(
        inv_vcache >= inv_cache - 3.0,
        "versioned cache helps more: {inv_vcache} vs {inv_cache}"
    );
}

/// The scalability claim of §1: clients never interact, so a client's
/// behaviour is *bit-identical* whether it runs alone or among many —
/// performance is independent of the client population.
#[test]
fn scalability_population_independence() {
    use bpush_client::QueryExecutor;
    use bpush_server::BroadcastServer;
    use bpush_types::seed::SeedSequence;
    use bpush_types::{ClientId, Slot};

    let cfg = experiments::defaults(Scale::Quick);
    let seeds = SeedSequence::new(cfg.seed);

    let run_population = |n_clients: u32| -> Vec<(bool, u64)> {
        let mut server = BroadcastServer::new(
            cfg.server.clone(),
            Method::InvalidationOnly.server_options(Default::default()),
            seeds.derive(&["server"]),
        )
        .unwrap();
        let mut clients: Vec<QueryExecutor> = (0..n_clients)
            .map(|i| {
                QueryExecutor::new(
                    ClientId::new(i),
                    cfg.client.clone(),
                    Method::InvalidationOnly.build_protocol(),
                    None,
                    cfg.queries_per_client,
                    seeds.derive(&["client", &i.to_string()]),
                )
                .unwrap()
            })
            .collect();
        let mut zero_outcomes = Vec::new();
        let mut start = Slot::ZERO;
        while clients.iter().any(|c| !c.is_done()) {
            let bcast = server.run_cycle();
            for client in &mut clients {
                let outs = client.run_cycle(&bcast, start, true).unwrap();
                if client.client() == ClientId::new(0) {
                    zero_outcomes.extend(outs.iter().map(|o| (o.committed(), o.latency_slots())));
                }
            }
            start = start.plus(bcast.total_slots());
        }
        zero_outcomes
    };

    let alone = run_population(1);
    let crowded = run_population(8);
    assert_eq!(
        alone, crowded,
        "client 0 must behave identically regardless of population size"
    );
}
