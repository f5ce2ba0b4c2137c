//! The generated request streams are valid and reproducible: every line
//! parses, every query is answered by an in-process engine, and a seed
//! always yields the same lines.

use cwelmax::engine::wire::{self, RequestKind};
use cwelmax::engine::{EngineBuilder, RrIndex};
use cwelmax::graph::generators::benchmark::Network;
use cwelmax::rrset::ImmParams;
use cwelmax_perfbench::gen::{self, Dialect, Query};
use std::collections::HashSet;
use std::sync::Arc;

const SEED: u64 = 7;

/// Every line of each workload the tests look at, with its queries.
fn lines(seed: u64, num_nodes: usize) -> Vec<(String, Vec<Query>)> {
    let mut out = Vec::new();
    for i in 0..60 {
        let q = gen::fresh_query(seed, i);
        out.push((gen::query_line(&q, Dialect::V2, i), vec![q]));
    }
    let set = gen::hot_working_set(seed, num_nodes);
    let zipf = gen::Zipf::new(set.len(), seed);
    for i in 0..200 {
        let r = gen::hot_request(seed, &set, &zipf, i);
        let qs = r.queries.iter().map(|&k| set[k].clone()).collect();
        out.push((r.line, qs));
    }
    for (k, q) in gen::grow_queries(seed, num_nodes).into_iter().enumerate() {
        out.push((gen::query_line(&q, Dialect::V2, k as u64), vec![q]));
    }
    out
}

#[test]
fn every_line_parses_and_an_engine_answers_it() {
    let graph = Arc::new(Network::NetHept.tiny_spec().generate());
    let params = ImmParams {
        seed: 3,
        threads: 2,
        ..Default::default()
    };
    let index = Arc::new(RrIndex::build(&graph, gen::BUDGET_CAP as u32, &params));
    let engine = EngineBuilder::from_index(index)
        .graph(Arc::clone(&graph))
        .build()
        .unwrap();
    let mut shapes = HashSet::new();
    for (line, queries) in lines(SEED, graph.num_nodes()) {
        let req = wire::parse_request_line(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        let parsed: Vec<_> = match req.kind {
            RequestKind::Query(q) => vec![*q],
            RequestKind::Batch(entries) => entries.into_iter().map(|e| e.unwrap()).collect(),
            other => panic!("{line}: not a query: {other:?}"),
        };
        assert_eq!(parsed.len(), queries.len());
        shapes.insert((req.proto == wire::Protocol::V1, parsed.len() > 1));
        for (q, want) in parsed.iter().zip(&queries) {
            assert_eq!(q.budgets, want.budgets);
            assert_eq!(q.model.num_items(), want.num_items());
            let a = engine
                .query(q)
                .unwrap_or_else(|e| panic!("{line}: engine refused: {e}"));
            assert!(a.welfare.is_finite() && a.welfare >= 0.0, "{line}");
        }
    }
    // v1 lines, v2 lines and batch envelopes all occur
    assert!(shapes.contains(&(true, false)));
    assert!(shapes.contains(&(false, false)));
    assert!(shapes.contains(&(false, true)));
    assert!(wire::parse_request_line(&gen::topup_line(123, 1)).is_ok());
}

#[test]
fn a_seed_always_yields_the_same_stream() {
    assert_eq!(lines(SEED, 15_200), lines(SEED, 15_200));
    assert_ne!(lines(SEED, 15_200), lines(SEED + 1, 15_200));
}

#[test]
fn fresh_queries_never_repeat_a_seed_and_follow_the_mix() {
    let qs: Vec<Query> = (0..5000).map(|i| gen::fresh_query(SEED, i)).collect();
    let seeds: HashSet<u64> = qs.iter().map(|q| q.seed).collect();
    assert_eq!(seeds.len(), qs.len());
    let nm = qs.iter().filter(|q| q.algorithm == "seqgrd-nm").count();
    assert_eq!(nm, 2000);
    for q in &qs {
        assert_eq!(q.budgets.len(), q.num_items());
        assert!(q.budgets.iter().sum::<usize>() <= gen::BUDGET_CAP);
    }
}

#[test]
fn inline_models_carry_full_tables() {
    let mut rng = gen::Rng::new(1);
    for m in 2..=3 {
        let v = gen::inline_model(&mut rng, m);
        let model: cwelmax::utility::UtilityModel = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(model.num_items(), m);
        assert_eq!(model.prices().len(), m);
        assert_eq!(model.noise().len(), m);
        assert!(model.value_fn().is_monotone());
    }
}
