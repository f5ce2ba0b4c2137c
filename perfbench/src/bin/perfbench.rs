//! The benchmark's command:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --cwelmax PATH --work DIR
//! ```
//!
//! Runs one workload against the release `cwelmax` binary at `PATH`,
//! keeping every generated file under `DIR`, checks every answer, and
//! prints as its last stdout line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is a report with the provenance (source revision,
//! `nproc`, `rustc -V`) and the sample count and percentile behind every
//! timing. Exits 1 when an answer is wrong, 2 when the run cannot be
//! made.

use cwelmax::engine::RrIndex;
use cwelmax::graph::generators::benchmark::Network;
use cwelmax::graph::{io as graph_io, Graph, ProbabilityModel};
use cwelmax::obs::Snapshot;
use cwelmax::rrset::ImmParams;
use cwelmax::store::JournaledStore;
use cwelmax_perfbench::check::{self, Verdict};
use cwelmax_perfbench::gen::{self, Workload};
use cwelmax_perfbench::live::{self, Conn};
use cwelmax_perfbench::replay::{self, Pass};
use cwelmax_perfbench::stats::{self, median, percentile};
use cwelmax_perfbench::workload::{self, Env, Kind, Op, Run, CLOSED_PHASE};
use serde::{Map, Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cwelmax: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).cloned().ok_or(format!("{k} is required"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
        cwelmax: get("--cwelmax")?.into(),
        work: get("--work")?.into(),
    })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a).map_err(|e| e.to_string())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn err(e: impl ToString) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn run(a: &Args) -> std::io::Result<i32> {
    if a.work.exists() {
        std::fs::remove_dir_all(&a.work)?;
    }
    std::fs::create_dir_all(&a.work)?;
    let mut report = Map::new();
    report.insert("provenance".into(), provenance());

    // the input graph: the in-repo NetHEPT spec, weighted cascade
    let graph = Network::NetHept.default_spec().generate();
    let graph_path = a.work.join("graph.txt");
    graph_io::write_edge_list(
        &graph,
        std::io::BufWriter::new(std::fs::File::create(&graph_path)?),
    )
    .map_err(|e| err(format!("{e:?}")))?;
    let graph = Arc::new(graph);
    let env = Env {
        cwelmax: a.cwelmax.clone(),
        work: a.work.clone(),
        graph_path,
        num_nodes: graph.num_nodes(),
        seed: a.seed,
        workload: a.workload,
        min_answers: if a.trace { 0 } else { workload::MIN_ANSWERS },
    };
    let setups = if a.trace { 1 } else { workload::SETUPS };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for k in 0..setups {
        let s = workload::setup(&env)?;
        setup_s.push(s.seconds);
        if k + 1 < setups {
            s.server.shutdown()?;
        } else {
            setup = Some(s);
        }
    }
    let mut setup = setup.expect("at least one set-up");
    let store_copy = a.work.join("store-check");
    live::copy_store(&env.store(), &store_copy)?;
    let transport_us = if a.trace {
        Some(idle_rtt_us(&mut setup.conns[0])?)
    } else {
        None
    };
    let measure_s = if a.trace { a.seconds * 0.5 } else { a.seconds };
    let run = workload::measure(&env, setup, measure_s)?;
    let mut verdict = check::check_run(&env, &run, &graph, &store_copy)?;
    if !run.phases.is_empty() {
        eprintln!("perfbench: phases {}", to_json(&phases_value(&run)));
    }

    let metrics = if a.trace {
        let transport_us = transport_us.unwrap_or(0.0);
        per_layer(
            &env,
            a,
            &run,
            &graph,
            &store_copy,
            transport_us,
            &mut verdict,
            &mut report,
        )?
    } else {
        end_to_end(&run, &verdict, &setup_s, &mut report)?
    };
    report.insert("verdict".into(), verdict_value(&verdict));
    report.insert("phases".into(), phases_value(&run));
    report.insert("server".into(), server_value(&run));
    let correct = verdict.failed == 0;
    let mut root = Map::new();
    root.insert("report".into(), Value::Object(report));
    println!("{}", to_json(&Value::Object(root)));
    let mut m = Map::new();
    for (name, (value, unit)) in &metrics {
        let mut e = Map::new();
        e.insert("value".into(), Value::Float(*value));
        e.insert("unit".into(), Value::String((*unit).into()));
        m.insert((*name).to_string(), Value::Object(e));
    }
    let mut out = Map::new();
    out.insert("correct".into(), Value::Bool(correct));
    out.insert("attempted".into(), Value::UInt(verdict.attempted));
    out.insert("failed".into(), Value::UInt(verdict.failed));
    out.insert("metrics".into(), Value::Object(m));
    println!("{}", to_json(&Value::Object(out)));
    if !correct {
        eprintln!("perfbench: wrong answers: {:?}", verdict.problems);
    }
    Ok(if correct { 0 } else { 1 })
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("value trees serialize")
}

/// Source revision, parallelism and toolchain: every number is
/// reported next to the machine and code that produced it.
fn provenance() -> Value {
    let out = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let mut p = Map::new();
    // only this checkout's own history names its revision
    let rev = Path::new(".git")
        .exists()
        .then(|| out("git", &["rev-parse", "HEAD"]))
        .flatten();
    p.insert(
        "git_rev".into(),
        Value::String(rev.unwrap_or_else(|| "unknown".into())),
    );
    p.insert("source_digest".into(), Value::String(source_digest()));
    p.insert(
        "nproc".into(),
        Value::UInt(
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        ),
    );
    p.insert(
        "rustc".into(),
        Value::String(out("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
    );
    Value::Object(p)
}

/// FNV-1a over the program's sources (paths and bytes, in path order):
/// identifies the code measured when the checkout is not a git work
/// tree.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["src", "crates", "shims"] {
        walk(Path::new(d), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn verdict_value(v: &Verdict) -> Value {
    let mut m = Map::new();
    m.insert("attempted".into(), Value::UInt(v.attempted));
    m.insert("failed".into(), Value::UInt(v.failed));
    m.insert("bit_checked".into(), Value::UInt(v.bit_checked as u64));
    m.insert("racing_excluded".into(), Value::UInt(v.racing as u64));
    m.insert("problems".into(), v.problems.to_value());
    Value::Object(m)
}

/// The store's θ and the engine's work in the measured window, so a
/// number can be traced to the work behind it.
fn server_value(run: &Run) -> Value {
    let mut m = Map::new();
    m.insert("theta0".into(), Value::UInt(run.theta0 as u64));
    m.insert("theta_final".into(), Value::UInt(run.theta_final as u64));
    m.insert("measure_s".into(), Value::Float(run.measure_s));
    for name in [
        "engine.queries",
        "engine.welfare_evals",
        "engine.welfare_cache_misses",
        "engine.conditioned_views",
        "store.topups_total",
    ] {
        m.insert(
            name.into(),
            Value::Float(delta(&run.after, &run.before, name)),
        );
    }
    Value::Object(m)
}

fn phases_value(run: &Run) -> Value {
    Value::Array(
        run.phases
            .iter()
            .map(|p| {
                let mut m = Map::new();
                m.insert("rate".into(), Value::Float(p.rate));
                m.insert("lines".into(), Value::UInt(p.lines as u64));
                m.insert("queries".into(), Value::UInt(p.queries as u64));
                m.insert("answered".into(), Value::UInt(p.answered as u64));
                m.insert("p50_ms".into(), Value::Float(p.p50_ms));
                m.insert("p99_ms".into(), Value::Float(p.p99_ms));
                m.insert("gen_late_p99_us".into(), Value::Float(p.late_p99_us));
                m.insert("valid".into(), Value::Bool(p.valid));
                m.insert("sustained".into(), Value::Bool(p.sustained));
                Value::Object(m)
            })
            .collect(),
    )
}

/// Latencies (ms) of the answered query lines that count toward the
/// percentiles, in send order: every closed-loop query. For `hot_mix`
/// that is its closed phase: its open-loop latencies are reported per
/// phase, but on a 2-vCPU shared host they swing 2–3× between runs
/// (host stalls, and a Nagle/delayed-ACK lockstep that a pipelined
/// connection falls in and out of), far beyond any usable bound.
fn scored_latencies(run: &Run) -> Vec<f64> {
    run.ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Query { .. }) && o.phase == CLOSED_PHASE)
        .filter_map(Op::latency_ms)
        .collect()
}

/// Answers per latency window: the fewest that support a p99.
const LATENCY_WINDOW: usize = 1000;

fn sample_note(report: &mut Map, name: &str, q: f64, n: usize, windows: usize) {
    let mut m = Map::new();
    m.insert("percentile".into(), Value::Float(q));
    m.insert("samples".into(), Value::UInt(n as u64));
    m.insert("windows".into(), Value::UInt(windows as u64));
    let Value::Object(samples) = report
        .entry("samples".to_string())
        .or_insert_with(|| Value::Object(Map::new()))
    else {
        unreachable!("samples is an object")
    };
    samples.insert(name.into(), Value::Object(m));
}

fn end_to_end(
    run: &Run,
    v: &Verdict,
    setup_s: &[f64],
    report: &mut Map,
) -> std::io::Result<Metrics> {
    let lat = scored_latencies(run);
    if !run.phases.is_empty() && run.sustained_qps == 0.0 {
        return Err(err(
            "the lowest open-loop rate was not sustained (or its generator ran late)",
        ));
    }
    // per window of LATENCY_WINDOW answers, then the median window
    let (p50, windows) = stats::windowed(&lat, 0.5, LATENCY_WINDOW).map_err(err)?;
    let (p99, _) = stats::windowed(&lat, 0.99, LATENCY_WINDOW).map_err(err)?;
    sample_note(report, "query_p50_ms", 0.5, lat.len(), windows);
    sample_note(report, "query_p99_ms", 0.99, lat.len(), windows);
    let topups: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Topup(_)))
        .filter_map(Op::latency_ms)
        .collect();
    sample_note(report, "topup_p50_ms", 0.5, topups.len(), 1);
    sample_note(report, "setup_s", 0.5, setup_s.len(), 1);
    report.insert("setup_s_samples".into(), setup_s.to_value());
    let mut m = Metrics::new();
    m.insert("setup_s", (median(setup_s), "s"));
    m.insert("query_p50_ms", (p50, "ms"));
    m.insert("query_p99_ms", (p99, "ms"));
    m.insert("qps", (run.qps, "1/s"));
    m.insert("sustained_qps", (run.sustained_qps, "1/s"));
    m.insert(
        "topup_p50_ms",
        (percentile(&topups, 0.5).map_err(err)?, "ms"),
    );
    m.insert(
        "success_ratio",
        (1.0 - v.failed as f64 / v.attempted.max(1) as f64, "ratio"),
    );
    m.insert("server_peak_rss_mb", (run.peak_rss_mb, "MiB"));
    Ok(m)
}

/// How far the traced stage sum may sit from the live mean latency (%)
/// before the traced run is refused (exit 2): past it, the per-layer
/// figures do not account for what a client waits. The live run shares
/// two cores between two connections and the generator; the replay runs
/// one line at a time, so the live mean sits above the sum.
const RECONCILE_BOUND_PCT: f64 = 25.0;

/// Median round trip of a `hello` on the otherwise idle server, sent
/// back to back so the server's thread stays as warm as in a closed
/// loop: the wire hop (socket, thread wake-up, tiny parse and
/// serialize) a query pays on top of its in-process stages.
fn idle_rtt_us(c: &mut Conn) -> std::io::Result<f64> {
    let mut rtt = Vec::new();
    for _ in 0..2000 {
        let t = Instant::now();
        c.roundtrip("{\"type\":\"hello\",\"v\":2}")?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtt))
}

fn delta(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    env: &Env,
    a: &Args,
    run: &Run,
    graph: &Arc<Graph>,
    store_copy: &Path,
    transport_us: f64,
    verdict: &mut Verdict,
    report: &mut Map,
) -> std::io::Result<Metrics> {
    let mut m = Metrics::new();
    let (b, af) = (&run.before, &run.after);

    // server: from the live run's single-query lines and the scrape
    let singles: Vec<(&Op, f64)> = run
        .ops
        .iter()
        .filter(|o| matches!(&o.kind, Kind::Query { batch: false, .. }))
        .filter_map(|o| {
            let ans = check::answers_of(&o.response, o.id, false).ok()?;
            let elapsed = match ans.first()?.as_object()?.get("elapsed_seconds")? {
                Value::Float(f) => *f,
                _ => return None,
            };
            Some((o, elapsed * 1e6))
        })
        .collect();
    // overhead from the closed-loop lines, waiting from every line (in
    // `hot_mix`'s open loop that includes the pacing of the pipeline)
    let overhead: Vec<f64> = singles
        .iter()
        .filter(|(o, _)| o.phase == CLOSED_PHASE)
        .filter_map(|(o, e)| o.recv.map(|r| (r - o.sent).as_secs_f64() * 1e6 - e))
        .collect();
    let overhead_p50 = median(&overhead);
    let queue: Vec<f64> = singles
        .iter()
        .filter_map(|(o, e)| {
            o.recv
                .map(|r| (r - o.due).as_secs_f64() * 1e6 - e - overhead_p50)
        })
        .collect();
    m.insert("server.overhead_us", (overhead_p50, "us"));
    m.insert("server.queue_wait_us", (stats::mean(&queue), "us"));
    let bytes = delta(af, b, "server.bytes_read") + delta(af, b, "server.bytes_written");
    m.insert(
        "server.bytes_per_op",
        (ratio(bytes, delta(af, b, "server.requests_total")), "bytes"),
    );
    let late: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Query { .. }) && o.phase != CLOSED_PHASE)
        .map(|o| (o.sent - o.due).as_secs_f64() * 1e6)
        .collect();
    m.insert(
        "gen.late_us",
        (percentile(&late, 0.99).unwrap_or(0.0), "us"),
    );

    // engine: scrape deltas over the measured window
    let hits = delta(af, b, "engine.welfare_cache_hits");
    m.insert(
        "engine.welfare_hit_ratio",
        (ratio(hits, delta(af, b, "engine.welfare_evals")), "ratio"),
    );
    let vh = delta(af, b, "engine.conditioned_hits");
    m.insert(
        "engine.view_hit_ratio",
        (
            ratio(vh, vh + delta(af, b, "engine.conditioned_views")),
            "ratio",
        ),
    );
    m.insert(
        "engine.pool_selections",
        (delta(af, b, "engine.pool_selections"), "count"),
    );

    // store: scrape
    m.insert(
        "store.shard_faults",
        (
            af.counters.get("store.shard_faults").copied().unwrap_or(0) as f64,
            "count",
        ),
    );
    m.insert(
        "store.resident_bytes",
        (
            af.gauges.get("store.resident_bytes").copied().unwrap_or(0) as f64,
            "bytes",
        ),
    );
    let journal = af.gauges.get("store.journal_bytes").copied().unwrap_or(0) as f64;
    m.insert(
        "store.journal_bytes_per_set",
        (
            ratio(journal, (run.theta_final - run.theta0) as f64),
            "bytes",
        ),
    );

    // graph and rrset: the set-up layers, timed in-process
    let t = Instant::now();
    let g2 = graph_io::read_edge_list_file(&env.graph_path, ProbabilityModel::WeightedCascade)
        .map_err(|e| err(format!("{e:?}")))?;
    m.insert("graph.load_ms", (t.elapsed().as_secs_f64() * 1e3, "ms"));
    let params = ImmParams {
        seed: gen::INDEX_SEED,
        threads: 0,
        max_rr_sets: 50_000_000,
        ..Default::default()
    };
    let t = Instant::now();
    let index = RrIndex::build(&g2, gen::BUDGET_CAP as u32, &params);
    m.insert("rrset.build_ms", (t.elapsed().as_secs_f64() * 1e3, "ms"));
    m.insert("rrset.theta", (index.num_sampled() as f64, "sets"));
    verdict.gate(index.num_sampled() == run.theta0, || {
        format!(
            "in-process build θ {} != served θ {}",
            index.num_sampled(),
            run.theta0
        )
    });
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            JournaledStore::open(store_copy).map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(err)?;
    m.insert("store.open_ms", (median(&opens), "ms"));

    // the replay: untraced, then traced with probes, over the same lines
    // the scored lines (closed loops; `hot_mix`'s closed phase) and
    // every top-up: the live latencies they reconcile against carry no
    // open-loop pacing
    let scored: Vec<Op> = run
        .ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Topup(_)) || o.phase == CLOSED_PHASE)
        .cloned()
        .collect();
    let (warm, steps) = replay::steps_of(&run.warmup, &scored);
    let copy_u = a.work.join("store-u");
    let copy_t = a.work.join("store-t");
    live::copy_store(store_copy, &copy_u)?;
    live::copy_store(store_copy, &copy_t)?;
    let budget = Duration::from_secs_f64(a.seconds * 0.15);
    let u = replay::pass(graph, &copy_u, &warm, &steps, usize::MAX, budget, false)?;
    let t = replay::pass(graph, &copy_t, &warm, &steps, u.lines, Duration::MAX, true)?;
    for p in [&u, &t] {
        verdict.gate(p.theta_start == run.theta0, || {
            format!(
                "the replay's store starts at θ {}, the served store at {}",
                p.theta_start, run.theta0
            )
        });
    }
    let tr = &t.tracer;
    let us = |name: &str| tr.mean_ns(name).0 / 1e3;
    let ms = |name: &str| tr.mean_ns(name).0 / 1e6;
    m.insert("wire.parse_us", (us("wire.parse"), "us"));
    m.insert("wire.serialize_us", (us("wire.serialize"), "us"));
    m.insert("engine.query_us", (us("engine.query"), "us"));
    for alg in ["seqgrd-nm", "seqgrd", "maxgrd", "best-of"] {
        let name: &'static str = match alg {
            "seqgrd-nm" => "core.assign_us.seqgrd-nm",
            "seqgrd" => "core.assign_us.seqgrd",
            "maxgrd" => "core.assign_us.maxgrd",
            _ => "core.assign_us.best-of",
        };
        m.insert(name, (us(&format!("core.assign.{alg}")), "us"));
    }
    m.insert("diffusion.welfare_ms", (ms("diffusion.welfare"), "ms"));
    m.insert("diffusion.marginal_ms", (ms("diffusion.marginal"), "ms"));
    let queries = t.lines.max(1) as f64;
    m.insert(
        "diffusion.worlds",
        (t.worlds as f64 / queries, "worlds/line"),
    );
    let probe_ns = tr.mean_ns("diffusion.welfare").0 * tr.mean_ns("diffusion.welfare").1 as f64
        + tr.mean_ns("diffusion.marginal").0 * tr.mean_ns("diffusion.marginal").1 as f64;
    m.insert(
        "diffusion.ns_per_world",
        (ratio(probe_ns, t.probe_worlds as f64), "ns"),
    );
    m.insert("store.derive_ms", (ms("store.derive"), "ms"));
    m.insert("store.topup_ms", (ms("store.topup"), "ms"));

    // tracing validity: overhead over the untraced pass, and the traced
    // stage sum (every span of a line nests in its `replay.line` root,
    // so the sum is the roots' total) plus the idle wire hop against
    // the live run's mean latency on the same lines
    let sum = |p: &Pass| p.line_ns.iter().map(|&(_, ns)| ns as f64).sum::<f64>();
    m.insert(
        "trace.overhead_pct",
        (100.0 * (sum(&t) - sum(&u)) / sum(&u).max(1.0), "%"),
    );
    let stage_us = sum(&t) / 1e3 / queries + transport_us;
    let replayed: std::collections::HashSet<u64> = t.line_ns.iter().map(|&(id, _)| id).collect();
    let live_us: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| replayed.contains(&o.id) && matches!(o.kind, Kind::Query { .. }))
        .filter_map(|o| o.recv.map(|r| (r - o.sent).as_secs_f64() * 1e6))
        .collect();
    let e2e_us = stats::mean(&live_us);
    let reconcile_pct = 100.0 * (stage_us - e2e_us).abs() / e2e_us.max(1.0);
    m.insert("trace.reconcile_pct", (reconcile_pct, "%"));
    let mut r = Map::new();
    r.insert("replayed_lines".into(), Value::UInt(t.lines as u64));
    r.insert("theta_start".into(), Value::UInt(t.theta_start as u64));
    r.insert("stage_sum_us".into(), Value::Float(stage_us));
    r.insert("live_mean_us".into(), Value::Float(e2e_us));
    r.insert("transport_us".into(), Value::Float(transport_us));
    r.insert("reconcile_pct".into(), Value::Float(reconcile_pct));
    r.insert("probe_mismatches".into(), t.mismatches.to_value());
    report.insert("replay".into(), Value::Object(r));
    write_spans(
        &a.work.join(format!("spans-{}.ndjson", env.workload.name())),
        tr,
    )?;
    verdict.gate(t.mismatches.is_empty(), || {
        format!("probes disagree with the engine: {:?}", t.mismatches)
    });
    if reconcile_pct > RECONCILE_BOUND_PCT {
        return Err(err(format!(
            "the traced stages ({stage_us:.1} us/line) do not reconcile with the live \
             mean ({e2e_us:.1} us/line): {reconcile_pct:.1} % > {RECONCILE_BOUND_PCT} %"
        )));
    }
    Ok(m)
}

/// The traced pass's spans, one NDJSON line each.
fn write_spans(path: &Path, tr: &replay::Tracer) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &tr.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
