//! Deterministic request streams for the three workloads.
//!
//! Every query line, the hot working set and the follow-up SP sets are
//! derived from the workload seed; the index seed is the fixed
//! [`INDEX_SEED`]. The same seed always yields the same lines
//! (`tests/gen.rs` pins this), and every generated query is valid —
//! inline models carry a full `2^m` value table and one price and noise
//! entry per item, and budgets stay inside the index's budget cap.

use serde::{Map, Serialize, Value};

/// The index's budget cap (`cwelmax index shard --budget-cap`).
pub const BUDGET_CAP: usize = 20;
/// Monte-Carlo samples per query.
pub const SAMPLES: usize = 200;
/// Distinct queries in the hot working set (well under the engine's
/// 4096-entry welfare cache).
pub const HOT_SET: usize = 64;
/// Distinct SP sets inside the hot working set (≤ the 32-entry
/// conditioned-view cache).
pub const HOT_SP_SETS: usize = 8;
/// Distinct SP sets `followup_grow` cycles through: more than the
/// 32-entry conditioned-view cache, far fewer than the welfare cache.
pub const GROW_SP_SETS: usize = 128;
/// Every this-many-th SP set of `followup_grow` is a heavier SeqGRD
/// query (about 14 ms against about 5.5 ms). Their 6 % share puts the
/// p99 inside that class. When every query cost the same, the p99 was
/// whatever share of the run the host spent in its slow episodes, and
/// read 7.7 to 17.5 ms over ten runs at a p50 of 5.2 to 6.5 ms.
pub const GROW_HEAVY_EVERY: usize = 16;

/// SplitMix64: a tiny, fast, well-mixed generator; all benchmark
/// randomness flows through it so streams are reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent sub-seed from `(seed, tag)`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The seed `cwelmax index shard` builds the store with. It is fixed,
/// not derived from the workload seed: every query of a run draws its
/// seeds from the one greedy pool of this index, so a per-seed index
/// let the seed, not the code, set `fresh_distinct`'s throughput (26.8
/// to 33.4 queries/s across seeds, while repeat runs of one seed agreed
/// within 3 %).
pub const INDEX_SEED: u64 = 0x1DE7;

/// The three workloads (names are stable: later changes refer to them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, distinct fresh campaigns: the cache-miss path.
    FreshDistinct,
    /// Open loop over a cached working set: server and wire costs.
    HotMix,
    /// Closed loop of follow-up campaigns plus live θ top-ups.
    FollowupGrow,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FreshDistinct,
        Workload::HotMix,
        Workload::FollowupGrow,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshDistinct => "fresh_distinct",
            Workload::HotMix => "hot_mix",
            Workload::FollowupGrow => "followup_grow",
        }
    }
}

/// One campaign query, as the benchmark generates it.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `"C1"`–`"C4"` or an inline utility model object.
    pub config: Value,
    pub budgets: Vec<usize>,
    pub algorithm: &'static str,
    /// Fixed prior allocation `(node, item)`; empty for fresh campaigns.
    pub sp: Vec<(u32, usize)>,
    pub samples: usize,
    pub seed: u64,
}

/// The wire dialect a line speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    V1,
    V2,
}

impl Query {
    /// Number of items of the query's utility model.
    pub fn num_items(&self) -> usize {
        model_items(&self.config)
    }

    /// The bare query object (no envelope fields).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("config".into(), self.config.clone());
        m.insert("budgets".into(), self.budgets.to_value());
        m.insert("algorithm".into(), Value::String(self.algorithm.into()));
        if !self.sp.is_empty() {
            m.insert("sp".into(), self.sp.to_value());
        }
        m.insert("samples".into(), self.samples.to_value());
        m.insert("seed".into(), self.seed.to_value());
        Value::Object(m)
    }
}

fn envelope(mut m: Map, dialect: Dialect, id: u64) -> String {
    m.insert("id".into(), Value::UInt(id));
    if dialect == Dialect::V2 {
        m.insert("v".into(), Value::UInt(2));
    }
    serde_json::to_string(&Value::Object(m)).expect("value trees serialize")
}

/// One query request line (no trailing newline).
pub fn query_line(q: &Query, dialect: Dialect, id: u64) -> String {
    let Value::Object(m) = q.to_value() else {
        unreachable!("Query::to_value builds an object")
    };
    envelope(m, dialect, id)
}

/// One `batch` envelope line over `qs`.
pub fn batch_line(qs: &[&Query], dialect: Dialect, id: u64) -> String {
    let mut m = Map::new();
    m.insert("type".into(), Value::String("batch".into()));
    m.insert(
        "queries".into(),
        Value::Array(qs.iter().map(|q| q.to_value()).collect()),
    );
    envelope(m, dialect, id)
}

/// The admin line growing the index to `theta` RR sets.
pub fn topup_line(theta: usize, id: u64) -> String {
    format!("{{\"id\":{id},\"theta\":{theta},\"type\":\"topup\",\"v\":2}}")
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// A valid inline `m`-item utility model: a full `2^m` value table
/// (`V(S) = Σ v_i · (1 − d)^(|S|−1)`: monotone for standalone values in
/// `[3, 6]` and `d ≤ 0.15`, with diminishing returns), one price per item
/// below its standalone value, one `N(0, 1)` noise entry per item.
pub fn inline_model(rng: &mut Rng, m: usize) -> Value {
    let singles: Vec<f64> = (0..m).map(|_| round2(3.0 + 3.0 * rng.unit())).collect();
    let discount = round2(0.05 + 0.1 * rng.unit());
    let values: Vec<f64> = (0usize..1 << m)
        .map(|mask| {
            let k = mask.count_ones() as f64;
            let sum: f64 = (0..m)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| singles[i])
                .sum();
            round2(sum * (1.0 - discount).powf((k - 1.0).max(0.0)))
        })
        .collect();
    let prices: Vec<f64> = singles
        .iter()
        .map(|v| round2(v * (0.4 + 0.5 * rng.unit())))
        .collect();
    let mut value = Map::new();
    value.insert("num_items".into(), m.to_value());
    value.insert("values".into(), values.to_value());
    let mut normal = Map::new();
    normal.insert("std".into(), Value::Float(1.0));
    let mut noise = Map::new();
    noise.insert("Normal".into(), Value::Object(normal));
    let mut model = Map::new();
    model.insert("value".into(), Value::Object(value));
    model.insert("prices".into(), prices.to_value());
    model.insert("noise".into(), Value::Array(vec![Value::Object(noise); m]));
    Value::Object(model)
}

/// Items of a config: named configs are two-item, inline models carry
/// one price per item.
pub fn model_items(config: &Value) -> usize {
    config
        .as_object()
        .and_then(|c| c.get("prices"))
        .and_then(Value::as_array)
        .map_or(2, |p| p.len())
}

fn named(k: u64) -> Value {
    Value::String(format!("C{}", 1 + k % 4))
}

/// The fixed algorithm mix of `fresh_distinct`: 40 % SeqGRD-NM, 20 %
/// each of SeqGRD, MaxGRD and best-of.
pub const FRESH_MIX: [&str; 10] = [
    "seqgrd-nm",
    "seqgrd",
    "seqgrd-nm",
    "maxgrd",
    "best-of",
    "seqgrd-nm",
    "seqgrd",
    "seqgrd-nm",
    "maxgrd",
    "best-of",
];

/// The `i`-th query of `fresh_distinct`. Its MC seed is the stream base
/// plus `i`, so no two queries of one stream share a (seed, query)
/// pair and every welfare evaluation misses the cache.
///
/// The mix is stratified, not drawn: every 60 queries pair each slot of
/// [`FRESH_MIX`] with each of the six configs (C1–C4, a 2-item and a
/// 3-item inline model), and the budgets step through every level in
/// the cap. The seed varies the inline models and the MC seeds, not
/// the amount of work, so one run's 1000 answers cost what
/// another's do.
pub fn fresh_query(seed: u64, i: u64) -> Query {
    let mut rng = Rng::new(derive(seed, 0xF2E5 ^ (i << 16)));
    let config = match (i / FRESH_MIX.len() as u64) % 6 {
        4 => inline_model(&mut rng, 2),
        5 => inline_model(&mut rng, 3),
        k => named(k),
    };
    let m = model_items(&config);
    let per = BUDGET_CAP / m;
    let level = (i / 60) as usize;
    Query {
        budgets: (0..m).map(|k| 1 + (level + 2 * k) % per).collect(),
        config,
        algorithm: FRESH_MIX[(i % FRESH_MIX.len() as u64) as usize],
        sp: Vec::new(),
        samples: SAMPLES,
        seed: derive(seed, 0x5EED).wrapping_add(i),
    }
}

/// A node id in `0..num_nodes`.
fn node(rng: &mut Rng, num_nodes: usize) -> u32 {
    rng.below(num_nodes as u64) as u32
}

/// `k` distinct competitor nodes fixing item 0.
fn sp_set(rng: &mut Rng, num_nodes: usize, k: usize) -> Vec<(u32, usize)> {
    let mut nodes: Vec<u32> = Vec::new();
    while nodes.len() < k {
        let v = node(rng, num_nodes);
        if !nodes.contains(&v) {
            nodes.push(v);
        }
    }
    nodes.sort_unstable();
    nodes.into_iter().map(|v| (v, 0)).collect()
}

/// Shape classes of the hot working set: entry `k` has shape `k % 8`,
/// which fixes its config kind (C1–C4 named, or an inline 2- or 3-item
/// model), whether it is a follow-up, and its budgets.
pub const HOT_SHAPES: usize = 8;

/// The hot working set: `HOT_SET` SeqGRD-NM queries, half with named
/// configs and half with inline models (the long lines), one in eight a
/// follow-up over one of `HOT_SP_SETS` SP sets. The seed varies the
/// inline models' values, the SP nodes and the MC seeds, never an
/// entry's shape, so it does not change what a cache hit costs.
pub fn hot_working_set(seed: u64, num_nodes: usize) -> Vec<Query> {
    let mut rng = Rng::new(derive(seed, 0x4077));
    let sps: Vec<Vec<(u32, usize)>> = (0..HOT_SP_SETS)
        .map(|_| sp_set(&mut rng, num_nodes, 2))
        .collect();
    (0..HOT_SET)
        .map(|k| {
            let config = if k % 2 == 0 {
                named(k as u64 / 2)
            } else {
                inline_model(&mut rng, if k % 4 == 1 { 2 } else { 3 })
            };
            let m = model_items(&config);
            // each budget in `1..=BUDGET_CAP / m`: their sum stays in the cap
            let per = BUDGET_CAP / m;
            let budgets = (0..m).map(|i| 1 + (k % HOT_SHAPES + 3 * i) % per).collect();
            let sp = if k % 8 == 7 {
                sps[k / 8].clone()
            } else {
                Vec::new()
            };
            Query {
                budgets,
                config,
                algorithm: "seqgrd-nm",
                sp,
                samples: SAMPLES,
                seed: rng.next_u64() >> 12,
            }
        })
        .collect()
}

/// One generated request: its line and the queries it carries (indices
/// into the generating working set, in answer order).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub line: String,
    pub queries: Vec<usize>,
    pub batch: bool,
}

/// Zipf(1) sampler over `n` ranks (a multiple of [`HOT_SHAPES`]). Rank
/// `r` maps to an entry of shape `r % HOT_SHAPES`, so the popular
/// entries mix named and inline configs in the same way for every seed;
/// the seed only permutes the entries within a shape. A seed that put
/// a costlier shape on the top ranks moved `hot_mix`'s throughput by
/// 25 %.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(derive(seed, 0x2199));
        let rows = n / HOT_SHAPES;
        for i in (1..rows).rev() {
            for shape in 0..HOT_SHAPES {
                let j = rng.below(i as u64 + 1) as usize;
                perm.swap(i * HOT_SHAPES + shape, j * HOT_SHAPES + shape);
            }
        }
        Zipf { cdf, perm }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// The `i`-th request of `hot_mix`: 1 in 8 is a `batch` of four draws,
/// 1 in 4 a v1 line, the rest v2 query lines.
pub fn hot_request(seed: u64, set: &[Query], zipf: &Zipf, i: u64) -> Request {
    let mut rng = Rng::new(derive(seed, 0x4E07 ^ (i << 16)));
    let shape = rng.below(8);
    let dialect = if shape >= 6 { Dialect::V1 } else { Dialect::V2 };
    if shape == 0 {
        let picks: Vec<usize> = (0..4).map(|_| zipf.draw(&mut rng)).collect();
        let qs: Vec<&Query> = picks.iter().map(|&k| &set[k]).collect();
        return Request {
            line: batch_line(&qs, Dialect::V2, i),
            queries: picks,
            batch: true,
        };
    }
    let k = zipf.draw(&mut rng);
    Request {
        line: query_line(&set[k], dialect, i),
        queries: vec![k],
        batch: false,
    }
}

/// `followup_grow`'s queries: one per SP set, each fixing item 0 at
/// three competitor nodes and allocating item 1. One SP set in
/// [`GROW_HEAVY_EVERY`] is answered by SeqGRD, whose marginal MC is not
/// cached, the rest by SeqGRD-NM.
pub fn grow_queries(seed: u64, num_nodes: usize) -> Vec<Query> {
    let mut rng = Rng::new(derive(seed, 0x6209));
    (0..GROW_SP_SETS)
        .map(|j| {
            let sp = sp_set(&mut rng, num_nodes, 3);
            Query {
                config: named(j as u64),
                budgets: vec![sp.len(), 1 + rng.below(2) as usize],
                algorithm: if j % GROW_HEAVY_EVERY == GROW_HEAVY_EVERY - 1 {
                    "seqgrd"
                } else {
                    "seqgrd-nm"
                },
                sp,
                samples: SAMPLES,
                seed: rng.next_u64() >> 12,
            }
        })
        .collect()
}

/// The order `followup_grow` visits its SP sets: a seeded permutation,
/// repeated, so every round touches all `GROW_SP_SETS` sets.
pub fn grow_order(seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..GROW_SP_SETS).collect();
    let mut rng = Rng::new(derive(seed, 0x0DE2));
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}
