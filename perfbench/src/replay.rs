//! The traced run: a workload's exact request lines replayed in-process
//! against a `CampaignEngine` opened on an identical store copy, with a
//! span around every call into a layer's public function.
//!
//! Spans are recorded here, around the calls; nothing inside the program
//! is instrumented. The engine's own stages (assignment, Monte-Carlo
//! welfare, conditioned derive) run inside `CampaignEngine::query`, so
//! after each query the replay *probes* them: it calls the same public
//! function on the same inputs under its own span. Probes run outside
//! the per-line timing, so they never inflate the reconciled stages.

use crate::stats;
use crate::workload::{Kind, Op};
use cwelmax::core::{MaxGrd, Problem, SeqGrd};
use cwelmax::diffusion::{Allocation, WelfareEstimator};
use cwelmax::engine::wire::{self, RequestKind};
use cwelmax::engine::{sp_fingerprint, CampaignEngine, EngineBuilder, IndexBackend};
use cwelmax::graph::{Graph, NodeId};
use cwelmax::obs::MetricsRegistry;
use cwelmax::store::JournaledStore;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: `req` is the replayed line's id, shared by every
/// span of that line; `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span (`None` when tracing is off); close it with `end`.
    fn begin(&mut self, name: &str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, span: Option<usize>) {
        if let Some(k) = span {
            self.spans[k].end_ns = self.now_ns();
        }
    }

    /// Run `f` under a span.
    fn span<T>(&mut self, name: &str, req: u64, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, req, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Mean duration of the spans named `name`, and their count.
    pub fn mean_ns(&self, name: &str) -> (f64, usize) {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect();
        (stats::mean(&d), d.len())
    }
}

/// One replayed step: a request line or an admin top-up.
#[derive(Debug, Clone)]
pub enum Step {
    Line { id: u64, line: String },
    Topup(usize),
}

/// The replay order of a run: warm-up lines first (untimed), then the
/// measured query lines by id, each top-up placed before the first
/// query sent after it.
pub fn steps_of(warmup: &[Op], ops: &[Op]) -> (Vec<Step>, Vec<Step>) {
    let warm = warmup
        .iter()
        .map(|o| Step::Line {
            id: o.id,
            line: o.line.clone(),
        })
        .collect();
    let mut queries: Vec<&Op> = ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Query { .. }))
        .collect();
    queries.sort_by_key(|o| o.id);
    let mut topups: Vec<&Op> = ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Topup(_)))
        .collect();
    topups.sort_by_key(|o| (o.after, o.id));
    let mut steps = Vec::with_capacity(queries.len() + topups.len());
    let mut t = topups.into_iter().peekable();
    for (k, q) in queries.iter().enumerate() {
        while let Some(op) = t.next_if(|op| op.after <= k as u64 && op.after > 0) {
            if let Kind::Topup(theta) = op.kind {
                steps.push(Step::Topup(theta));
            }
        }
        steps.push(Step::Line {
            id: q.id,
            line: q.line.clone(),
        });
    }
    // top-ups sent after the last query (the probes of the workloads
    // that do not grow while measured)
    for op in t {
        if let Kind::Topup(theta) = op.kind {
            steps.push(Step::Topup(theta));
        }
    }
    (warm, steps)
}

/// What one replay pass measured.
pub struct Pass {
    pub tracer: Tracer,
    /// θ of the store when the pass opened it.
    pub theta_start: usize,
    /// Wall time of each replayed line (parse + engine + serialize),
    /// by line id.
    pub line_ns: Vec<(u64, u64)>,
    /// Lines replayed (the pass stops at its time budget).
    pub lines: usize,
    /// Worlds the engine simulated (welfare misses and marginals).
    pub worlds: u64,
    /// Worlds the probes simulated, for `ns_per_world`.
    pub probe_worlds: u64,
    /// Replayed answers that differ from the probes' recomputation.
    pub mismatches: Vec<String>,
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.counter(name).get()
}

/// Replay `steps` on an engine opened on `store`: at most `max_lines`
/// lines, and none after `budget` has passed (top-ups always replay).
/// `traced` records spans; probes run only when traced.
pub fn pass(
    graph: &Arc<Graph>,
    store: &Path,
    warm: &[Step],
    steps: &[Step],
    max_lines: usize,
    budget: Duration,
    traced: bool,
) -> io::Result<Pass> {
    let reg = MetricsRegistry::new();
    let js = JournaledStore::open_with_metrics(store, Arc::clone(&reg))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let theta_start = js.num_sampled();
    let backend: Arc<dyn IndexBackend> = Arc::new(js);
    let engine = EngineBuilder::from_backend(Arc::clone(&backend))
        .graph(Arc::clone(graph))
        .metrics(Arc::clone(&reg))
        .build()
        .map_err(|e| io::Error::other(e.to_string()))?;
    for s in warm {
        if let Step::Line { line, .. } = s {
            if let Ok(req) = wire::parse_request_line(line) {
                if let RequestKind::Query(q) = req.kind {
                    let _ = engine.query(&q);
                }
            }
        }
    }
    let mut tr = Tracer::new(traced);
    let mut probe = Probe {
        graph,
        backend: &backend,
        fresh_pool: None,
        views: HashMap::new(),
    };
    let mut out = Pass {
        tracer: Tracer::new(false),
        theta_start,
        line_ns: Vec::new(),
        lines: 0,
        worlds: 0,
        probe_worlds: 0,
        mismatches: Vec::new(),
    };
    let start = Instant::now();
    for step in steps {
        match step {
            Step::Topup(theta) => {
                tr.span("store.topup", 0, None, || engine.ensure_theta(*theta))
                    .map_err(|e| io::Error::other(e.to_string()))?;
                probe.fresh_pool = None;
                probe.views.clear();
            }
            Step::Line { id, line } => {
                // past the budget only the top-ups still replay: they are
                // cheap, and every workload's store.topup_ms needs them
                if out.lines >= max_lines || start.elapsed() >= budget {
                    continue;
                }
                let misses0 = counter(&reg, "engine.welfare_cache_misses");
                let t0 = Instant::now();
                let root = tr.begin("replay.line", *id, None);
                let done = replay_line(&engine, &mut tr, root, *id, line);
                tr.end(root);
                out.line_ns.push((*id, t0.elapsed().as_nanos() as u64));
                out.lines += 1;
                let misses = counter(&reg, "engine.welfare_cache_misses") - misses0;
                if let Some((q, allocation)) = done {
                    let samples = q.sim.samples as u64;
                    out.worlds += misses * samples + marginal_calls(&q) * 2 * samples;
                    if traced {
                        probe.run(&mut tr, *id, &q, &allocation, misses, &mut out);
                    }
                }
            }
        }
    }
    out.tracer = tr;
    Ok(out)
}

/// Marginal-welfare calls `solve_with_pool` makes for `q`: one per free
/// item for SeqGRD and MaxGRD, both for best-of, none for SeqGRD-NM.
fn marginal_calls(q: &cwelmax::engine::CampaignQuery) -> u64 {
    let free = free_items(q).len() as u64;
    match q.algorithm.name() {
        "seqgrd" | "maxgrd" => free,
        "best-of" => 2 * free,
        _ => 0,
    }
}

fn free_items(q: &cwelmax::engine::CampaignQuery) -> Vec<usize> {
    let fixed = q.sp.items();
    (0..q.budgets.len())
        .filter(|&i| q.budgets[i] > 0 && !fixed.contains(i))
        .collect()
}

/// Parse, answer and serialize one line under spans. Returns the query
/// and its allocation for single-query lines, for the probes.
fn replay_line(
    engine: &CampaignEngine,
    tr: &mut Tracer,
    root: Option<usize>,
    id: u64,
    line: &str,
) -> Option<(cwelmax::engine::CampaignQuery, Allocation)> {
    let req = tr
        .span("wire.parse", id, root, || wire::parse_request_line(line))
        .ok()?;
    let proto = req.proto;
    match req.kind {
        RequestKind::Query(q) => {
            let answer = tr
                .span("engine.query", id, root, || engine.query(&q))
                .ok()?;
            tr.span("wire.serialize", id, root, || {
                let body = wire::answer_response(&answer, proto);
                wire::to_line(&wire::with_id(body, req.id.as_ref()))
            });
            Some((*q, answer.allocation))
        }
        RequestKind::Batch(entries) => {
            let runnable: Vec<_> = entries.iter().filter_map(|r| r.clone().ok()).collect();
            let rows = tr.span("engine.query_batch", id, root, || {
                engine.query_batch(&runnable, 0)
            });
            tr.span("wire.serialize", id, root, || {
                let rows: Vec<_> = rows
                    .into_iter()
                    .map(|r| r.map_err(|e| wire::WireError::from_engine(&e)))
                    .collect();
                wire::to_line(&wire::with_id(
                    wire::batch_response(&rows, proto),
                    req.id.as_ref(),
                ))
            });
            None
        }
        _ => None,
    }
}

/// The per-stage probes: the same public functions the engine calls
/// inside `query`, on the same inputs, each under its own span.
struct Probe<'a> {
    graph: &'a Arc<Graph>,
    backend: &'a Arc<dyn IndexBackend>,
    fresh_pool: Option<Vec<NodeId>>,
    views: HashMap<u64, Vec<NodeId>>,
}

impl Probe<'_> {
    fn run(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        q: &cwelmax::engine::CampaignQuery,
        allocation: &Allocation,
        misses: u64,
        out: &mut Pass,
    ) {
        let root = tr.begin("probe", id, None);
        self.stages(tr, root, id, q, allocation, misses, out);
        tr.end(root);
    }

    #[allow(clippy::too_many_arguments)]
    fn stages(
        &mut self,
        tr: &mut Tracer,
        root: Option<usize>,
        id: u64,
        q: &cwelmax::engine::CampaignQuery,
        allocation: &Allocation,
        misses: u64,
        out: &mut Pass,
    ) {
        let pool = if q.sp.is_empty() {
            if self.fresh_pool.is_none() {
                self.fresh_pool = self.backend.pool_at_cap().ok();
            }
            self.fresh_pool.clone()
        } else {
            let nodes = q.sp.seed_nodes();
            let fp = sp_fingerprint(&nodes);
            if !self.views.contains_key(&fp) {
                let view = tr.span("store.derive", id, root, || {
                    self.backend.derive_conditioned(&nodes)
                });
                if let Ok(v) = view {
                    self.views.insert(fp, v.pool().to_vec());
                }
            }
            self.views.get(&fp).cloned()
        };
        let Some(pool) = pool else {
            out.mismatches
                .push(format!("line {id}: no pool for the probe"));
            return;
        };
        let problem = Problem::new_shared(Arc::clone(self.graph), q.model.clone())
            .with_budgets(q.budgets.clone())
            .with_fixed_allocation(q.sp.clone())
            .with_sim(q.sim);
        let name = q.algorithm.name();
        let assigned = tr.span(&format!("core.assign.{name}"), id, root, || match name {
            "seqgrd-nm" => Some(SeqGrd::nm().solve_with_pool(&problem, &pool).allocation),
            "seqgrd" => Some(SeqGrd::full().solve_with_pool(&problem, &pool).allocation),
            "maxgrd" => Some(MaxGrd.solve_with_pool(&problem, &pool).allocation),
            _ => {
                SeqGrd::full().solve_with_pool(&problem, &pool);
                MaxGrd.solve_with_pool(&problem, &pool);
                None
            }
        });
        if assigned.as_ref().is_some_and(|a| a != allocation) {
            out.mismatches.push(format!(
                "line {id}: probe assignment differs from the engine's"
            ));
        }
        let est = WelfareEstimator::new(self.graph, &q.model, q.sim);
        let samples = q.sim.samples as u64;
        if misses > 0 {
            tr.span("diffusion.welfare", id, root, || {
                est.welfare(&allocation.union(&q.sp))
            });
            out.probe_worlds += samples;
        }
        if marginal_calls(q) > 0 {
            if let Some(&item) = free_items(q).first() {
                let b = q.budgets[item].min(pool.len());
                let cand = Allocation::from_item_seeds(item, &pool[..b]);
                tr.span("diffusion.marginal", id, root, || {
                    est.marginal_welfare(&cand, &q.sp)
                });
                out.probe_worlds += 2 * samples;
            }
        }
    }
}
