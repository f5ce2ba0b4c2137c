//! Set-up and the measured loops of the three workloads, driven over
//! the wire against a live `cwelmax serve --store`.

use crate::gen::{self, Dialect, Query, Workload};
use crate::live::{self, Conn, Server};
use crate::stats;
use cwelmax::obs::Snapshot;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Connections (and generator threads) the load comes from: `nproc` of
/// the benchmark host's design point, two.
pub const CONNS: usize = 2;
/// Answers a closed loop collects at least, so its p99 has ten samples
/// beyond it.
pub const MIN_ANSWERS: usize = 1000;
/// `hot_mix`'s offered rates (request lines/s) are the rungs
/// `HOT_RATE_BASE · HOT_RATE_STEP^k` of one fixed geometric ladder.
pub const HOT_RATE_BASE: f64 = 500.0;
pub const HOT_RATE_STEP: f64 = 1.090_507_732_665_257_7; // 2^(1/8)
/// The ladder climbs from the highest rung at or below this share of
/// the closed phase's line rate (on the 2-vCPU host the knee sat at
/// 1.7–2.2 times it)...
pub const HOT_LADDER_FROM: f64 = 1.2;
/// ...until a phase fails or the rung passes this share of it.
pub const HOT_LADDER_TO: f64 = 3.0;
/// Length of one open-loop phase (at least 1000 lines, for its p99).
pub const HOT_PHASE_S: f64 = 2.0;
/// Connections of `hot_mix`'s closed phase.
pub const HOT_CLOSED_CONNS: usize = 1;
/// A `hot_mix` phase is sustained when every line is answered and the
/// p99 of the whole phase stays under this: a backlog that grows
/// through the phase pushes its last lines past it.
pub const HOT_P99_LIMIT_MS: f64 = 50.0;
/// A `hot_mix` phase whose generator ran later than this (p99) is
/// invalid and not scored.
pub const GEN_LATE_LIMIT_US: f64 = 20000.0;
/// [`Op::phase`] of every closed-loop line.
pub const CLOSED_PHASE: usize = usize::MAX;
/// θ step of every top-up the benchmark sends: large enough that
/// sampling, not the journal fsync (noisy on a shared disk), sets the
/// time.
pub const TOPUP_STEP: usize = 1024;
/// `followup_grow` sends a top-up every this many completed queries:
/// often enough that `topup_p50_ms` is the median of about 14 top-ups
/// (with 7, its IQR/median over ten runs was 0.22; with 14, 0.09),
/// rarely enough that the queries racing one (about 1 %, median about
/// 7 ms) stay below the heavy SeqGRD class that sets the p99.
pub const GROW_TOPUP_EVERY: u64 = 200;
/// Top-ups the other workloads send after their measured phase, so
/// `topup_p50_ms` is measured on every workload.
pub const PROBE_TOPUPS: usize = 24;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Everything a run needs to reach the program and its inputs.
pub struct Env {
    pub cwelmax: PathBuf,
    pub work: PathBuf,
    pub graph_path: PathBuf,
    pub num_nodes: usize,
    pub seed: u64,
    pub workload: Workload,
    /// Answers a closed loop must collect before it stops (the untraced
    /// run needs [`MIN_ANSWERS`] for its p99; the traced run reports no
    /// percentile above the median).
    pub min_answers: usize,
}

impl Env {
    pub fn store(&self) -> PathBuf {
        self.work.join("store")
    }

    /// The workload's query table (fresh queries are generated per id
    /// and appended by the loop).
    fn table(&self) -> Vec<Query> {
        match self.workload {
            Workload::FreshDistinct => Vec::new(),
            Workload::HotMix => gen::hot_working_set(self.seed, self.num_nodes),
            Workload::FollowupGrow => gen::grow_queries(self.seed, self.num_nodes),
        }
    }
}

/// What a request line carried.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Queries (indices into the run's table), in answer order.
    Query { queries: Vec<usize>, batch: bool },
    /// An admin top-up to this θ.
    Topup(usize),
}

/// One request line, sent and answered.
#[derive(Debug, Clone)]
pub struct Op {
    pub id: u64,
    pub line: String,
    pub kind: Kind,
    /// When the line was due (the send time in closed loops).
    pub due: Instant,
    pub sent: Instant,
    /// `None` when no answer arrived before the loop gave up.
    pub recv: Option<Instant>,
    pub response: String,
    /// `hot_mix`'s open-loop phase: an index into [`Run::phases`];
    /// [`CLOSED_PHASE`] for every closed-loop line.
    pub phase: usize,
    /// Queries completed when the line was sent (`followup_grow`'s
    /// replay interleaves its top-ups by it).
    pub after: u64,
}

impl Op {
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.due).as_secs_f64() * 1e3)
    }

    pub fn queries(&self) -> &[usize] {
        match &self.kind {
            Kind::Query { queries, .. } => queries,
            Kind::Topup(_) => &[],
        }
    }
}

/// One open-loop phase of `hot_mix`.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate: f64,
    pub lines: usize,
    /// Queries the lines carried (a batch line carries several).
    pub queries: usize,
    pub answered: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub late_p99_us: f64,
    pub valid: bool,
    pub sustained: bool,
}

/// A set-up: the store built, the server answering, caches filled.
pub struct Setup {
    pub server: Server,
    pub conns: Vec<Conn>,
    /// θ of the store `cwelmax index shard` built.
    pub theta0: usize,
    pub seconds: f64,
    /// The warm-up lines, in the order a replay must send them.
    pub warmup: Vec<Op>,
}

/// A finished measured run.
pub struct Run {
    pub table: Vec<Query>,
    pub warmup: Vec<Op>,
    /// Measured request lines and top-ups, in id order.
    pub ops: Vec<Op>,
    pub phases: Vec<Phase>,
    pub measure_s: f64,
    pub qps: f64,
    pub sustained_qps: f64,
    pub theta0: usize,
    /// The θ the server reports at the end (a no-op top-up).
    pub theta_final: usize,
    pub last_target: usize,
    pub before: Snapshot,
    pub after: Snapshot,
    pub peak_rss_mb: f64,
}

fn hello(c: &mut Conn) -> io::Result<()> {
    let r = c.roundtrip("{\"type\":\"hello\",\"v\":2}")?;
    if r.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(io::Error::other(format!("hello refused: {r}")))
    }
}

/// Scrape the server's metrics registry.
pub fn scrape(c: &mut Conn) -> io::Result<Snapshot> {
    let line = c.roundtrip("{\"type\":\"metrics\",\"v\":2}")?;
    let v: serde::Value = serde_json::from_str(&line)
        .map_err(|e| io::Error::other(format!("bad metrics JSON: {e:?}")))?;
    v.as_object()
        .and_then(|m| m.get("metrics"))
        .and_then(Snapshot::from_value)
        .ok_or_else(|| io::Error::other(format!("bad metrics response: {line}")))
}

/// θ the server holds now (a top-up to 0 is a no-op that reports it).
fn theta_of(c: &mut Conn, id: u64) -> io::Result<usize> {
    let r = c.roundtrip(&gen::topup_line(0, id))?;
    theta_in(&r).ok_or_else(|| io::Error::other(format!("bad topup response: {r}")))
}

pub fn theta_in(response: &str) -> Option<usize> {
    let v: serde::Value = serde_json::from_str(response).ok()?;
    match v.as_object()?.get("theta")? {
        serde::Value::UInt(t) => usize::try_from(*t).ok(),
        serde::Value::Int(t) => usize::try_from(*t).ok(),
        _ => None,
    }
}

/// Send `line` and wait for its answer, as one closed-loop op.
fn closed_op(c: &mut Conn, id: u64, line: String, kind: Kind, after: u64) -> io::Result<Op> {
    let sent = Instant::now();
    c.send(&line)?;
    let response = c.recv()?;
    Ok(Op {
        id,
        line,
        kind,
        due: sent,
        sent,
        recv: Some(Instant::now()),
        response,
        phase: CLOSED_PHASE,
        after,
    })
}

/// Ids of warm-up lines live above every measured id.
const WARMUP_ID: u64 = 1 << 40;

/// Build the store, start the server, say hello on every connection and
/// fill the caches the workload relies on.
pub fn setup(env: &Env) -> io::Result<Setup> {
    let start = Instant::now();
    live::build_store(&env.cwelmax, &env.graph_path, &env.store(), gen::INDEX_SEED)?;
    let server = Server::spawn(&env.cwelmax, &env.graph_path, &env.store())?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(server.addr))
        .collect::<io::Result<Vec<_>>>()?;
    for c in &mut conns {
        hello(c)?;
    }
    let theta0 = theta_of(&mut conns[0], WARMUP_ID - 1)?;
    // the hot set and the follow-up SP sets are each sent once, split
    // over the connections, so every later query of theirs is a
    // welfare-cache hit
    let table = env.table();
    let lines: Vec<(u64, String, usize)> = match env.workload {
        Workload::FreshDistinct => Vec::new(),
        Workload::HotMix | Workload::FollowupGrow => table
            .iter()
            .enumerate()
            .map(|(k, q)| {
                let id = WARMUP_ID + k as u64;
                (id, gen::query_line(q, Dialect::V2, id), k)
            })
            .collect(),
    };
    let mut warmup: Vec<Op> = Vec::new();
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<_> = lines.iter().skip(c).step_by(CONNS).cloned().collect();
                s.spawn(move || {
                    mine.into_iter()
                        .map(|(id, line, k)| {
                            let kind = Kind::Query {
                                queries: vec![k],
                                batch: false,
                            };
                            closed_op(conn, id, line, kind, 0)
                        })
                        .collect::<io::Result<Vec<Op>>>()
                })
            })
            .collect();
        for h in handles {
            warmup.extend(h.join().expect("warm-up thread panicked")?);
        }
        Ok(())
    })?;
    warmup.sort_by_key(|o| o.id);
    Ok(Setup {
        server,
        conns,
        theta0,
        seconds: start.elapsed().as_secs_f64(),
        warmup,
    })
}

/// Run the workload's measured phase for `seconds`, then read the
/// scrape, the final θ and the server's peak RSS, and stop the server.
pub fn measure(env: &Env, mut s: Setup, seconds: f64) -> io::Result<Run> {
    let mut table = env.table();
    let before = scrape(&mut s.conns[0])?;
    let start = Instant::now();
    let (mut ops, phases, qps_window) = match env.workload {
        Workload::FreshDistinct => {
            let ops = fresh_loop(env.seed, &mut s.conns, seconds, env.min_answers)?;
            (ops, Vec::new(), None)
        }
        Workload::HotMix => hot_loop(env.seed, &table, &mut s.conns, seconds)?,
        Workload::FollowupGrow => (
            grow_loop(env, &table, s.theta0, &mut s.conns, seconds)?,
            Vec::new(),
            None,
        ),
    };
    let measure_s = start.elapsed().as_secs_f64();
    if env.workload == Workload::FreshDistinct {
        let n = ops.iter().map(|o| o.id + 1).max().unwrap_or(0);
        table = (0..n).map(|i| gen::fresh_query(env.seed, i)).collect();
    }
    let answered = |o: &&Op| o.recv.is_some();
    let mut last_target = ops
        .iter()
        .filter_map(|o| match o.kind {
            Kind::Topup(t) => Some(t),
            _ => None,
        })
        .max()
        .unwrap_or(s.theta0);
    // the top-up probe of the workloads that send none while measured
    if env.workload != Workload::FollowupGrow {
        let base = ops.iter().map(|o| o.id + 1).max().unwrap_or(0);
        for k in 0..PROBE_TOPUPS {
            last_target = s.theta0 + (k + 1) * TOPUP_STEP;
            let id = base + k as u64;
            ops.push(closed_op(
                &mut s.conns[0],
                id,
                gen::topup_line(last_target, id),
                Kind::Topup(last_target),
                0,
            )?);
        }
    }
    let after = scrape(&mut s.conns[0])?;
    let theta_final = theta_of(&mut s.conns[0], WARMUP_ID - 2)?;
    let peak_rss_mb = s.server.peak_rss_mb()?;
    drop(s.conns);
    s.server.shutdown()?;

    // `sustained_qps` is the knee of `hot_mix`'s ladder; a closed loop
    // has no offered rate, so there it is the closed loop's `qps`
    let (qps, sustained_qps) = match env.workload {
        Workload::HotMix => {
            let top = phases.iter().rfind(|p| p.valid && p.sustained);
            let sustained = top.map_or(0.0, |p| p.rate * p.queries as f64 / p.lines as f64);
            (qps_window.unwrap_or(0.0), sustained)
        }
        _ => {
            let queries: Vec<&Op> = ops
                .iter()
                .filter(|o| matches!(o.kind, Kind::Query { .. }))
                .filter(answered)
                .collect();
            let qps = closed_rate(&queries, |_| 1);
            (qps, qps)
        }
    };
    Ok(Run {
        table,
        warmup: s.warmup,
        ops,
        phases,
        measure_s,
        qps,
        sustained_qps,
        theta0: s.theta0,
        theta_final,
        last_target,
        before,
        after,
        peak_rss_mb,
    })
}

/// Slices a closed loop's span is cut into for its throughput.
pub const RATE_WINDOWS: usize = 10;

/// A closed loop's throughput: `count(op)` answers per answered op, per
/// second, as the median over [`RATE_WINDOWS`] equal slices of the span
/// from the first send to the last answer (see [`stats::rate`]).
fn closed_rate(ops: &[&Op], count: impl Fn(&Op) -> usize) -> f64 {
    let Some(start) = ops.iter().map(|o| o.sent).min() else {
        return 0.0;
    };
    let end = ops.iter().filter_map(|o| o.recv).max().unwrap_or(start);
    let times: Vec<f64> = ops
        .iter()
        .filter_map(|o| o.recv.map(|r| ((r - start).as_secs_f64(), count(o))))
        .flat_map(|(t, n)| std::iter::repeat_n(t, n))
        .collect();
    stats::rate(&times, (end - start).as_secs_f64().max(1e-9), RATE_WINDOWS)
}

/// `fresh_distinct`: every connection sends the next unused query id
/// until `seconds` have passed and at least `min_answers` answers are
/// in (bounded at three times `seconds`).
fn fresh_loop(
    seed: u64,
    conns: &mut [Conn],
    seconds: f64,
    min_answers: usize,
) -> io::Result<Vec<Op>> {
    let ticket = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let stop = |start: Instant| {
        let t = start.elapsed().as_secs_f64();
        (t >= seconds && done.load(Ordering::Relaxed) >= min_answers as u64) || t >= 3.0 * seconds
    };
    let mut ops = Vec::new();
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (ticket, done) = (&ticket, &done);
                s.spawn(move || -> io::Result<Vec<Op>> {
                    let mut mine = Vec::new();
                    while !stop(start) {
                        // a ticket is only a unique id: no other data
                        // is published through it
                        let i = ticket.fetch_add(1, Ordering::Relaxed);
                        let line = gen::query_line(&gen::fresh_query(seed, i), Dialect::V2, i);
                        let kind = Kind::Query {
                            queries: vec![i as usize],
                            batch: false,
                        };
                        mine.push(closed_op(conn, i, line, kind, 0)?);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(mine)
                })
            })
            .collect();
        for h in handles {
            ops.extend(h.join().expect("load thread panicked")?);
        }
        Ok(())
    })?;
    ops.sort_by_key(|o| o.id);
    Ok(ops)
}

/// The open loop on one pipelined connection: this thread sleeps until
/// each line is due and sends it; a second thread reads the answers
/// (the server answers a connection in order). Answers still missing
/// `drain` after the last due time are given up on. Socket read
/// timeouts are too coarse (a scheduler tick) to pace sends, hence the
/// two threads.
fn open_loop(conn: &mut Conn, mut sched: Vec<Op>, drain: Duration) -> io::Result<Vec<Op>> {
    let mut writer = conn.writer()?;
    let deadline = sched.last().map_or_else(Instant::now, |o| o.due) + drain;
    let n = sched.len();
    let received = std::thread::scope(|s| -> io::Result<Vec<(Instant, String)>> {
        let reader = s.spawn(|| -> io::Result<Vec<(Instant, String)>> {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if let Some(line) = conn.recv_within(Some(deadline - now))? {
                    got.push((Instant::now(), line));
                }
            }
            Ok(got)
        });
        for op in &mut sched {
            let now = Instant::now();
            if op.due > now {
                std::thread::sleep(op.due - now);
            }
            op.sent = Instant::now();
            writer.send(&op.line)?;
        }
        reader.join().expect("reader thread panicked")
    })?;
    for (op, (t, line)) in sched.iter_mut().zip(received) {
        op.recv = Some(t);
        op.response = line;
    }
    Ok(sched)
}

/// `hot_mix`: a closed-loop phase at full speed on [`HOT_CLOSED_CONNS`]
/// connection, then open-loop phases on one pipelined connection, up
/// the rate ladder from [`HOT_LADDER_FROM`] of the closed phase's line
/// rate until one rung fails twice in a row (not sustained, or
/// invalid), or the rung passes [`HOT_LADDER_TO`] of it. A ladder
/// whose first rung fails twice steps down instead. Returns the ops, the phases and the
/// closed phase's throughput (`qps`).
fn hot_loop(
    seed: u64,
    table: &[Query],
    conns: &mut [Conn],
    seconds: f64,
) -> io::Result<(Vec<Op>, Vec<Phase>, Option<f64>)> {
    let zipf = gen::Zipf::new(table.len(), seed);
    // closed phase: each connection sends the next request as soon as
    // the previous one is answered
    let closed_s = seconds * 0.4;
    let ticket = AtomicU64::new(0);
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = conns[..HOT_CLOSED_CONNS]
            .iter_mut()
            .map(|conn| {
                let (ticket, zipf) = (&ticket, &zipf);
                s.spawn(move || -> io::Result<Vec<Op>> {
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < closed_s {
                        let id = ticket.fetch_add(1, Ordering::Relaxed);
                        let r = gen::hot_request(seed, table, zipf, id);
                        let kind = Kind::Query {
                            queries: r.queries,
                            batch: r.batch,
                        };
                        mine.push(closed_op(conn, id, r.line, kind, 0)?);
                    }
                    Ok(mine)
                })
            })
            .collect();
        for h in handles {
            ops.extend(h.join().expect("load thread panicked")?);
        }
        Ok(())
    })?;
    let closed: Vec<&Op> = ops.iter().collect();
    let qps = closed_rate(&closed, |o| o.queries().len());
    let line_rate = closed_rate(&closed, |_| 1);

    let mut rung = ((HOT_LADDER_FROM * line_rate / HOT_RATE_BASE).ln() / HOT_RATE_STEP.ln())
        .floor()
        .max(0.0) as i32;
    let mut next_id = ticket.into_inner();
    let mut phases = Vec::new();
    let mut retried = false;
    let mut passed_any = false;
    loop {
        let rate = HOT_RATE_BASE * HOT_RATE_STEP.powi(rung);
        if rate > HOT_LADDER_TO * line_rate {
            break;
        }
        let n = ((rate * HOT_PHASE_S) as usize).max(1000);
        let requests: Vec<gen::Request> = (0..n as u64)
            .map(|j| gen::hot_request(seed, table, &zipf, next_id + j))
            .collect();
        // due times start once every line is generated
        let t0 = Instant::now() + Duration::from_millis(20);
        let sched: Vec<Op> = requests
            .into_iter()
            .enumerate()
            .map(|(j, r)| {
                let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                Op {
                    id: next_id + j as u64,
                    line: r.line,
                    kind: Kind::Query {
                        queries: r.queries,
                        batch: r.batch,
                    },
                    due,
                    sent: due,
                    recv: None,
                    response: String::new(),
                    phase: phases.len(),
                    after: 0,
                }
            })
            .collect();
        next_id += n as u64;
        let phase_ops = open_loop(&mut conns[0], sched, Duration::from_secs(5))?;
        let phase = phase_of(rate, &phase_ops);
        let passed = phase.valid && phase.sustained;
        phases.push(phase);
        ops.extend(phase_ops);
        // a host stall can fail one phase below the knee; an overload
        // fails the same rung again. A start above the knee steps down.
        if passed {
            passed_any = true;
            rung += 1;
            retried = false;
        } else if !retried {
            retried = true;
        } else if passed_any || rung == 0 {
            break;
        } else {
            rung -= 1;
            retried = false;
        }
    }
    ops.sort_by_key(|o| o.id);
    Ok((ops, phases, Some(qps)))
}

fn phase_of(rate: f64, ops: &[Op]) -> Phase {
    use crate::stats::percentile;
    let lat: Vec<f64> = ops.iter().filter_map(Op::latency_ms).collect();
    let late: Vec<f64> = ops
        .iter()
        .map(|o| (o.sent - o.due).as_secs_f64() * 1e6)
        .collect();
    let p99 = percentile(&lat, 0.99).unwrap_or(f64::INFINITY);
    let late_p99 = percentile(&late, 0.99).unwrap_or(f64::INFINITY);
    Phase {
        rate,
        lines: ops.len(),
        queries: ops.iter().map(|o| o.queries().len()).sum(),
        answered: lat.len(),
        p50_ms: percentile(&lat, 0.5).unwrap_or(f64::INFINITY),
        p99_ms: p99,
        late_p99_us: late_p99,
        valid: late_p99 <= GEN_LATE_LIMIT_US,
        sustained: lat.len() == ops.len() && p99 <= HOT_P99_LIMIT_MS,
    }
}

/// `followup_grow`: one connection cycles the follow-up queries in a
/// closed loop; the other sends a top-up of [`TOPUP_STEP`] sets every
/// [`GROW_TOPUP_EVERY`] completed queries, except in the last tenth of
/// the run (so the final θ has answers to check).
fn grow_loop(
    env: &Env,
    table: &[Query],
    theta0: usize,
    conns: &mut [Conn],
    seconds: f64,
) -> io::Result<Vec<Op>> {
    let order = gen::grow_order(env.seed);
    let start = Instant::now();
    let (qc, ac) = conns.split_at_mut(1);
    let mut ops = Vec::new();
    // the query thread hands the admin thread each completed count a
    // top-up is due at; the admin thread blocks on it, never polls
    let (due, topups) = std::sync::mpsc::channel::<u64>();
    std::thread::scope(|s| -> io::Result<()> {
        let admin = {
            let conn = &mut ac[0];
            s.spawn(move || -> io::Result<Vec<Op>> {
                let mut mine = Vec::new();
                for completed in topups {
                    let k = completed / GROW_TOPUP_EVERY;
                    let target = theta0 + k as usize * TOPUP_STEP;
                    let id = (1 << 32) + k;
                    let line = gen::topup_line(target, id);
                    mine.push(closed_op(conn, id, line, Kind::Topup(target), completed)?);
                }
                Ok(mine)
            })
        };
        let conn = &mut qc[0];
        let mut i = 0u64;
        while start.elapsed().as_secs_f64() < seconds || i < env.min_answers as u64 {
            if start.elapsed().as_secs_f64() >= 3.0 * seconds {
                break;
            }
            let k = order[(i % order.len() as u64) as usize];
            let line = gen::query_line(&table[k], Dialect::V2, i);
            let kind = Kind::Query {
                queries: vec![k],
                batch: false,
            };
            ops.push(closed_op(conn, i, line, kind, i)?);
            i += 1;
            if i.is_multiple_of(GROW_TOPUP_EVERY) && start.elapsed().as_secs_f64() < seconds * 0.9 {
                // a send fails only if the admin thread already stopped
                // on an error, which its join below reports
                let _ = due.send(i);
            }
        }
        drop(due);
        ops.extend(admin.join().expect("admin thread panicked")?);
        Ok(())
    })?;
    ops.sort_by_key(|o| o.sent);
    Ok(ops)
}
