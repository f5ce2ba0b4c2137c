//! The correctness gate: every answer is checked against its query, and
//! sampled answers must equal an in-process engine's bit for bit.

use crate::gen::{self, Query, Rng, Workload};
use crate::workload::{theta_in, Env, Kind, Run};
use cwelmax::engine::{graph_fingerprint, wire, CampaignEngine, IndexMeta, RrIndex};
use cwelmax::graph::Graph;
use cwelmax::obs::Snapshot;
use cwelmax::rrset::{RrCollection, StandardRr, REGEN_SEED_XOR};
use cwelmax::store::write_store;
use cwelmax::EngineSource;
use serde::{Deserialize, Value};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The checked content of one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub allocation: Vec<(u32, usize)>,
    pub welfare: f64,
    /// The engine time the server reports (`elapsed_seconds`).
    pub elapsed_s: f64,
}

fn number(v: Option<&Value>, what: &str) -> Result<f64, String> {
    match v {
        Some(Value::Float(f)) => Ok(*f),
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(Value::UInt(u)) => Ok(*u as f64),
        other => Err(format!("`{what}` is not a number: {other:?}")),
    }
}

/// Check one answer object against the query it answers: `ok`, an
/// allocation within the budgets, over the model's items, with distinct
/// nodes disjoint from the SP, and a finite welfare ≥ 0.
pub fn validate(ans: &Value, q: &Query) -> Result<Answer, String> {
    let obj = ans.as_object().ok_or("answer is not an object")?;
    if obj.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("answer not ok: {:?}", obj.get("error")));
    }
    let allocation: Vec<(u32, usize)> = obj
        .get("allocation")
        .ok_or("answer has no allocation")
        .and_then(|a| Deserialize::from_value(a).map_err(|_| "malformed allocation"))?;
    let m = q.num_items();
    let mut per_item = vec![0usize; m];
    let mut nodes: Vec<u32> = Vec::with_capacity(allocation.len());
    for &(v, i) in &allocation {
        if i >= m {
            return Err(format!("item {i} of a {m}-item model"));
        }
        if q.sp.iter().any(|&(s, _)| s == v) {
            return Err(format!("node {v} is already in the SP"));
        }
        per_item[i] += 1;
        nodes.push(v);
    }
    nodes.sort_unstable();
    if nodes.windows(2).any(|w| w[0] == w[1]) {
        return Err("a node is allocated twice".into());
    }
    if let Some(i) = (0..m).find(|&i| per_item[i] > q.budgets[i]) {
        return Err(format!(
            "item {i} got {} seeds, budget {}",
            per_item[i], q.budgets[i]
        ));
    }
    let welfare = number(obj.get("welfare"), "welfare")?;
    if !welfare.is_finite() || welfare < 0.0 {
        return Err(format!("welfare {welfare} is not finite and ≥ 0"));
    }
    Ok(Answer {
        allocation,
        welfare,
        elapsed_s: number(obj.get("elapsed_seconds"), "elapsed_seconds")?,
    })
}

/// The answer objects of one response line: the line itself for a
/// query, its entries for a batch. The echoed id must match.
pub fn answers_of(line: &str, id: u64, batch: bool) -> Result<Vec<Value>, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad response JSON: {e:?}"))?;
    let obj = v.as_object().ok_or("response is not an object")?;
    if obj.get("id") != Some(&Value::UInt(id)) && obj.get("id") != Some(&Value::Int(id as i64)) {
        return Err(format!("response id {:?}, expected {id}", obj.get("id")));
    }
    if !batch {
        return Ok(vec![v]);
    }
    if obj.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("batch not ok: {:?}", obj.get("error")));
    }
    Ok(obj
        .get("answers")
        .and_then(Value::as_array)
        .ok_or("batch response has no answers")?
        .to_vec())
}

/// `engine.query` on the same query must return the same allocation
/// and the same welfare bits.
pub fn same_as_engine(engine: &CampaignEngine, q: &Query, got: &Answer) -> Result<(), String> {
    let cq = wire::parse_query(&q.to_value())?;
    let want = engine.query(&cq).map_err(|e| e.to_string())?;
    if want.allocation.pairs() != got.allocation.as_slice() {
        return Err(format!(
            "allocation differs from the in-process engine: {:?} vs {:?}",
            got.allocation,
            want.allocation.pairs()
        ));
    }
    if want.welfare.to_bits() != got.welfare.to_bits() {
        return Err(format!(
            "welfare {} differs from the in-process engine's {}",
            got.welfare, want.welfare
        ));
    }
    Ok(())
}

/// The outcome of checking one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations checked: request lines, sampled bit checks and gates.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// What went wrong (the first few of each kind are enough).
    pub problems: Vec<String>,
    pub bit_checked: usize,
    /// Query answers excluded from the bit check because they raced a
    /// top-up.
    pub racing: usize,
}

impl Verdict {
    /// One more checked operation, failed unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Answers sampled for the bit-for-bit check.
pub const BIT_SAMPLE: usize = 24;

fn engine_on(graph: &Arc<Graph>, store: &Path) -> io::Result<CampaignEngine> {
    EngineSource::Store(store.to_path_buf())
        .load(Arc::clone(graph))
        .map_err(|e| io::Error::other(e.to_string()))
}

/// A store cold-built at exactly `theta` from the index seed's
/// regeneration stream: what a store grown by top-ups must equal.
fn cold_store(graph: &Graph, seed: u64, theta: usize, dir: &Path) -> io::Result<()> {
    let mut c = RrCollection::new(graph.num_nodes());
    c.extend_parallel(graph, &StandardRr, theta, seed ^ REGEN_SEED_XOR, 2);
    let index = RrIndex::freeze(
        &c,
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed,
            budget_cap: gen::BUDGET_CAP as u32,
            graph_fingerprint: graph_fingerprint(graph),
        },
    );
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    write_store(&index, dir, 8).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(())
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

/// Check every answer of `run`, its gates, and a seeded sample of
/// answers bit for bit against in-process engines. `store_copy` holds
/// the store as the server opened it; it is left as it was.
pub fn check_run(
    env: &Env,
    run: &Run,
    graph: &Arc<Graph>,
    store_copy: &Path,
) -> io::Result<Verdict> {
    let mut v = Verdict::default();
    // (op index, answer) of every answered single-query line
    let mut singles: Vec<(usize, Answer)> = Vec::new();
    let mut best_of = 0u64;
    for (k, op) in run.ops.iter().enumerate() {
        v.attempted += 1;
        let outcome = match (&op.kind, op.recv) {
            (_, None) => Err("no answer".to_string()),
            (Kind::Topup(target), Some(_)) => match theta_in(&op.response) {
                Some(t) if t == *target => Ok(()),
                _ => Err(format!("topup to {target} answered {}", op.response)),
            },
            (Kind::Query { queries, batch }, Some(_)) => answers_of(&op.response, op.id, *batch)
                .and_then(|answers| {
                    if answers.len() != queries.len() {
                        return Err(format!(
                            "{} answers for {} queries",
                            answers.len(),
                            queries.len()
                        ));
                    }
                    for (a, &qk) in answers.iter().zip(queries) {
                        let q = &run.table[qk];
                        let checked = validate(a, q)?;
                        if q.algorithm == "best-of" {
                            best_of += 1;
                        }
                        if !batch {
                            singles.push((k, checked));
                        }
                    }
                    Ok(())
                }),
        };
        if let Err(e) = outcome {
            v.failed += 1;
            if v.problems.len() < 8 {
                v.problems.push(format!("line {}: {e}", op.id));
            }
        }
    }
    v.gate(run.theta_final == run.last_target, || {
        format!(
            "final θ {} != last target {}",
            run.theta_final, run.last_target
        )
    });
    let hits = counter(&run.after, "engine.welfare_cache_hits")
        - counter(&run.before, "engine.welfare_cache_hits");
    let evals =
        counter(&run.after, "engine.welfare_evals") - counter(&run.before, "engine.welfare_evals");
    match env.workload {
        // best-of re-evaluates the allocation it picked, one hit per
        // best-of query; any other hit means two queries were not distinct
        Workload::FreshDistinct => v.gate(hits == best_of, || {
            format!("{hits} welfare-cache hits, {best_of} from best-of: queries repeat")
        }),
        Workload::HotMix => v.gate(evals > 0 && hits as f64 >= 0.99 * evals as f64, || {
            format!("hot_mix welfare hit ratio {hits}/{evals} after warm-up")
        }),
        Workload::FollowupGrow => {}
    }

    // the bit check: θ in force for each answer, racing answers excluded
    let topups: Vec<(Instant, Instant, usize)> = run
        .ops
        .iter()
        .filter_map(|o| match (&o.kind, o.recv) {
            (Kind::Topup(t), Some(r)) => Some((o.sent, r, *t)),
            _ => None,
        })
        .collect();
    let mut eligible: Vec<(usize, usize, usize)> = Vec::new(); // (single, θ, epoch)
    for (s, (k, _)) in singles.iter().enumerate() {
        let op = &run.ops[*k];
        let (sent, recv) = (op.sent, op.recv.unwrap_or(op.sent));
        if topups.iter().any(|&(a, b, _)| a <= recv && sent <= b) {
            v.racing += 1;
            continue;
        }
        let grown: Vec<usize> = topups.iter().filter(|t| t.1 < sent).map(|t| t.2).collect();
        let theta = grown.iter().copied().max().unwrap_or(run.theta0);
        eligible.push((s, theta, grown.len()));
    }
    let mut rng = Rng::new(gen::derive(env.seed, 0xB17));
    for i in (1..eligible.len()).rev() {
        eligible.swap(i, rng.below(i as u64 + 1) as usize);
    }
    // half the sample from the last epoch (the cold-build check needs
    // it), the rest from all the others
    let last_epoch = eligible.iter().map(|e| e.2).max().unwrap_or(0);
    let (last, earlier): (Vec<_>, Vec<_>) = eligible.iter().partition(|e| e.2 == last_epoch);
    let from_last = (BIT_SAMPLE / 2).max(BIT_SAMPLE.saturating_sub(earlier.len()));
    let mut sample: Vec<(usize, usize, usize)> = last
        .into_iter()
        .take(from_last)
        .chain(earlier.into_iter().take(BIT_SAMPLE / 2))
        .copied()
        .collect();
    sample.sort_by_key(|e| e.2);
    let check_one = |engine: &CampaignEngine, v: &mut Verdict, s: usize| {
        let (k, ans) = &singles[s];
        let op = &run.ops[*k];
        let q = &run.table[op.queries()[0]];
        let r = same_as_engine(engine, q, ans);
        v.gate(r.is_ok(), || format!("line {}: {}", op.id, r.unwrap_err()));
        v.bit_checked += 1;
    };
    // `ensure_theta` journals into the store it grows: grow a copy of
    // its own, so `store_copy` stays at θ0 for the traced replay
    let bitcheck = env.work.join("store-bitcheck");
    crate::live::copy_store(store_copy, &bitcheck)?;
    let engine = engine_on(graph, &bitcheck)?;
    for &(s, theta, _) in &sample {
        engine
            .ensure_theta(theta)
            .map_err(|e| io::Error::other(e.to_string()))?;
        check_one(&engine, &mut v, s);
    }
    if env.workload == Workload::FollowupGrow {
        // answers after the last top-up must equal an engine on a store
        // cold-built at the final θ
        let finals: Vec<usize> = sample
            .iter()
            .filter(|e| e.2 == last_epoch && e.1 == run.theta_final)
            .map(|e| e.0)
            .collect();
        v.gate(!finals.is_empty() && last_epoch > 0, || {
            "no answer after the last top-up to check".into()
        });
        let cold = env.work.join("store-cold");
        cold_store(graph, gen::INDEX_SEED, run.theta_final, &cold)?;
        let engine = engine_on(graph, &cold)?;
        for s in finals {
            check_one(&engine, &mut v, s);
        }
    }
    Ok(v)
}
