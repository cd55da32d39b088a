//! The wire workloads, `adhoc_join` and `trickle_warm`: one client, one
//! connection, a spawned `rc_serve`.
//!
//! In the traced pass every request is also replayed in-process, in the
//! server's order (snapshot, serve, `Response::encode`), against a mirror
//! database and cache that apply the same mutations.

use crate::affinity::CpuRotation;
use crate::gen::{self, TRICKLE_QUERIES, TRICKLE_READS};
use crate::spans::Recorder;
use crate::stages::{self, StagedResult};
use crate::wire::{Conn, ServerHandle, ServerStats};
use crate::{corrupted, CacheCounts, Config, Outcome, Traced};
use rc_relalg::{Database, EvalStats, Relation, SharedPlanCache, Tracer};
use rc_safety::pipeline::{compile_and_eval, compile_and_eval_shared, CompileOptions, Compiled};
use rc_serve::protocol::{QueryOk, Request, Response, Verb, WireStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Ping round trips timed in the traced pass.
const PINGS: usize = 200;

/// `adhoc_join` runs its write probe, an insert and a delete, every
/// `PROBE_EVERY` rounds.
const PROBE_EVERY: usize = 10;

/// Every `GUARD_EVERY`-th `adhoc_join` request is also compiled with
/// `compile_for` to check the composed plan's hash.
const GUARD_EVERY: usize = 4;

/// A started server with its client connection.
struct Wire {
    server: ServerHandle,
    conn: Conn,
}

/// Start the server, wait for its first `pong`, and prime `standing`.
fn start(cfg: &Config, facts: &Path, standing: &[&str]) -> Result<(Wire, f64), String> {
    let t0 = Instant::now();
    let server = ServerHandle::start(&cfg.server, facts).map_err(|e| format!("server: {e}"))?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    match conn.call(&Request::bare(Verb::Ping)) {
        Ok(Response::Pong) => {}
        other => return Err(format!("first ping: {other:?}")),
    }
    for q in standing {
        match conn.call(&Request::query(*q)) {
            Ok(Response::Query(_)) => {}
            other => return Err(format!("priming {q}: {other:?}")),
        }
    }
    Ok((Wire { server, conn }, t0.elapsed().as_secs_f64()))
}

/// Set up `times` times, keeping the last server; returns each set-up's
/// duration.
fn setup(
    cfg: &Config,
    facts: &Path,
    standing: &[&str],
    times: usize,
) -> Result<(Wire, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last: Option<Wire> = None;
    for _ in 0..times.max(1) {
        if let Some(w) = last.take() {
            drop(w.conn);
            w.server.stop();
        }
        let (w, s) = start(cfg, facts, standing)?;
        secs.push(s);
        last = Some(w);
    }
    Ok((last.expect("at least one set-up"), secs))
}

fn write_facts(cfg: &Config, facts: &str) -> Result<PathBuf, String> {
    let path = cfg
        .work_dir
        .join(format!("{}-{}.facts", cfg.workload.name(), cfg.seed));
    std::fs::write(&path, facts).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One request's client-side timing.
struct Timed {
    payload: Vec<u8>,
    response: Response,
    sent: Instant,
    received: Instant,
    decoded: Instant,
}

impl Timed {
    fn us(&self) -> f64 {
        (self.decoded - self.sent).as_secs_f64() * 1e6
    }

    fn wire_us(&self) -> f64 {
        (self.received - self.sent).as_secs_f64() * 1e6
    }

    /// Record the client's spans: the request, its transfer and decode.
    fn record(&self, rec: &mut Recorder, req: u64) {
        rec.span_at("request", req, self.sent, self.decoded, |rec| {
            rec.record("wire", req, self.sent, self.received);
            rec.record("protocol.decode", req, self.received, self.decoded);
        });
    }
}

fn send(conn: &mut Conn, request: &[u8]) -> Result<Timed, String> {
    let sent = Instant::now();
    let payload = conn
        .roundtrip(request)
        .map_err(|e| format!("request: {e}"))?;
    let received = Instant::now();
    let response = Response::parse(&payload).map_err(|e| format!("response: {e}"))?;
    let decoded = Instant::now();
    Ok(Timed {
        payload,
        response,
        sent,
        received,
        decoded,
    })
}

fn pings(conn: &mut Conn) -> Result<Vec<f64>, String> {
    let ping = Request::bare(Verb::Ping).encode();
    (0..PINGS)
        .map(|_| {
            let t = send(conn, &ping)?;
            match t.response {
                Response::Pong => Ok(t.us()),
                other => Err(format!("ping: {other:?}")),
            }
        })
        .collect()
}

fn counts(before: &ServerStats, after: &ServerStats) -> CacheCounts {
    let d = |k: &str| after.get(k).saturating_sub(before.get(k));
    CacheCounts {
        plan_hits: d("plan_hits"),
        plan_misses: d("plan_misses"),
        result_hits: d("result_hits"),
        result_misses: d("result_misses"),
        stale: d("stale_results"),
        refreshed: d("refreshed_results"),
        entries: after.get("plans") + after.get("results") + after.get("views"),
        rejected: d("rejected"),
    }
}

/// The answer part of a query response: everything from the `columns`
/// header on, which a verbatim hit must repeat byte for byte.
fn answer_bytes(payload: &[u8]) -> &[u8] {
    let at = payload
        .windows(9)
        .position(|w| w == b"\ncolumns ")
        .unwrap_or(payload.len());
    &payload[at..]
}

/// Check a `mutate` response changed exactly one row, the way `text` says.
fn mutate_ok(response: &Response, text: &str) -> bool {
    let want = if text.starts_with('-') {
        (0, 1)
    } else {
        (1, 0)
    };
    matches!(response, Response::Mutate { delta, .. }
        if delta.len() == 1 && (delta[0].inserted, delta[0].deleted) == want)
}

/// Send a mutation; in the traced pass also replay it on the mirror.
fn mutate(
    conn: &mut Conn,
    text: &str,
    req: u64,
    out: &mut Outcome,
    trace: Option<(&mut Traced, &mut Arc<Database>)>,
) -> Result<(), String> {
    let t = send(conn, &Request::mutate(text).encode())?;
    out.mutation(t.us());
    out.check(mutate_ok(&t.response, text), || {
        format!("mutation {text}: {:?}", t.response)
    });
    if let Some((tr, mirror)) = trace {
        t.record(&mut tr.rec, req);
        let next = tr.rec.span("replay", req, |rec| {
            rec.span("db.apply_delta", req, |_| {
                let mut next = (**mirror).clone();
                next.apply_delta(text).map(|_| next)
            })
        });
        *mirror = Arc::new(next.map_err(|e| format!("mirror: {e}"))?);
    }
    Ok(())
}

/// The client-side figures every traced query shares.
fn traced_query(tr: &mut Traced, t: &Timed, req: u64) {
    t.record(&mut tr.rec, req);
    tr.latency_us.push(t.us());
    tr.response_kb.push(t.payload.len() as f64 / 1024.0);
}

/// Close a replay: the server-side share of the client latency, the rest
/// as residual, and whether the replayed bytes match the wire.
fn close_replay(tr: &mut Traced, t: &Timed, replay_idx: usize, bytes: Option<Vec<u8>>) {
    let serve_us = tr.rec.children_ns(replay_idx) as f64 / 1e3;
    let decode_us = (t.decoded - t.received).as_secs_f64() * 1e6;
    tr.residual_us.push(t.wire_us() - serve_us);
    tr.explained_us.push(serve_us + decode_us);
    if bytes.as_deref() != Some(&t.payload[..]) {
        tr.mismatch += 1;
    }
}

fn query_ok(response: &Response) -> Option<&QueryOk> {
    match response {
        Response::Query(ok) => Some(ok),
        _ => None,
    }
}

pub(crate) fn adhoc(cfg: &Config) -> Result<(Outcome, Option<(Traced, Outcome)>), String> {
    let facts = gen::adhoc_facts(cfg.seed);
    let path = write_facts(cfg, &facts)?;
    let stream = gen::adhoc_stream(cfg.seed, cfg.rounds());
    let oracle_db = Database::from_facts(&facts).map_err(|e| format!("facts: {e}"))?;
    let out = adhoc_phase(cfg, &path, &facts, &stream, &oracle_db, None)?;
    let traced = if cfg.trace {
        let mut t = Traced::default();
        let traced = &stream[..cfg.traced_rounds() * gen::ADHOC_TEMPLATES.len()];
        let o = adhoc_phase(cfg, &path, &facts, traced, &oracle_db, Some(&mut t))?;
        Some((t, o))
    } else {
        None
    };
    Ok((out, traced))
}

fn adhoc_phase(
    cfg: &Config,
    path: &Path,
    facts: &str,
    stream: &[String],
    oracle_db: &Database,
    mut trace: Option<&mut Traced>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let times = if trace.is_some() { 1 } else { cfg.setups };
    let (mut wire, setup_s) = setup(cfg, path, &[], times)?;
    out.setup_s = setup_s;
    let mut mirror = Arc::new(Database::new());
    if let Some(tr) = trace.as_deref_mut() {
        let t0 = Instant::now();
        mirror = Arc::new(Database::from_facts(facts).map_err(|e| format!("facts: {e}"))?);
        tr.load_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.ping_us = pings(&mut wire.conn)?;
    }
    let before = wire.conn.stats().map_err(|e| format!("stats: {e}"))?;
    // Rotation pins the client thread, so the in-process replay of the
    // traced pass, which must partition like the server, runs unpinned.
    let rotation = if trace.is_some() {
        CpuRotation::disabled()
    } else {
        CpuRotation::new()
    };
    let per_round = gen::ADHOC_TEMPLATES.len();
    let rounds = stream.len() / per_round;
    let mut probes = 0;
    for (req, text) in stream.iter().enumerate() {
        let round = req / per_round;
        if req % per_round == 0 {
            out.round(round, rounds);
            rotation.enter(round);
            if round.is_multiple_of(PROBE_EVERY) {
                // The write probe: a one-row insert into G, undone by the
                // next mutation.
                for sign in ["", "-"] {
                    let text = format!("{sign}G({})", 1_000_000 + round);
                    let req = (stream.len() + probes) as u64;
                    probes += 1;
                    mutate(
                        &mut wire.conn,
                        &text,
                        req,
                        &mut out,
                        trace.as_deref_mut().map(|tr| (tr, &mut mirror)),
                    )?;
                }
            }
        }
        let t = send(&mut wire.conn, &Request::query(text.as_str()).encode())?;
        out.query(t.us());
        let Some(ok) = query_ok(&t.response) else {
            out.check(false, || format!("{text}: {:?}", t.response));
            continue;
        };
        let mut want = compile_and_eval(text, oracle_db, CompileOptions::default())
            .map(|o| o.relation)
            .map_err(|e| format!("oracle {text}: {e}"))?;
        if cfg.corrupt_oracle && req == 0 {
            want = corrupted(&want);
        }
        if ok.relation == want {
            out.check(true, String::new);
        } else {
            out.wrong_answer(|| format!("{text}: answer differs from the oracle"));
        }
        if let Some(tr) = trace.as_deref_mut() {
            replay_cold(tr, &mirror, req as u64, text, &t, ok);
        }
    }
    let after = wire.conn.stats().map_err(|e| format!("stats: {e}"))?;
    out.cache = counts(&before, &after);
    out.rss_mb = wire.server.peak_rss_mb();
    drop(wire.conn);
    wire.server.stop();
    Ok(out)
}

/// Replay one cold query in-process, stage by stage.
fn replay_cold(
    tr: &mut Traced,
    mirror: &Arc<Database>,
    req: u64,
    text: &str,
    t: &Timed,
    ok: &QueryOk,
) {
    traced_query(tr, t, req);
    let opts = CompileOptions::default();
    let idx = tr.rec.spans().len();
    let replayed = tr.rec.span("replay", req, |rec| {
        let snap = rec.span("server.snapshot", req, |_| Arc::clone(mirror));
        let StagedResult::Compiled(s) = stages::compile(text, &snap, &opts, rec, req) else {
            return None;
        };
        let mut stats = EvalStats::default();
        let rel = rec
            .span("ivm.maintain", req, |_| {
                s.compiled.run_maintained(
                    &snap,
                    snap.version(),
                    &mut stats,
                    &opts.budget,
                    &mut Tracer::off(),
                )
            })
            .ok()?
            .0;
        let bytes = rec.span("protocol.encode", req, |_| {
            Response::Query(QueryOk {
                version: ok.version,
                plan_cached: false,
                result_cached: false,
                result_refreshed: false,
                stats: WireStats::from(&stats),
                columns: s.compiled.columns.iter().map(|v| v.to_string()).collect(),
                relation: rel.clone(),
                trace_json: None,
                any_infinite: None,
                any_infinite_vars: None,
            })
            .encode()
        });
        Some((s, rel, bytes))
    });
    let Some((s, rel, bytes)) = replayed else {
        close_replay(tr, t, idx, None);
        return;
    };
    close_replay(tr, t, idx, Some(bytes));
    // The decomposition guard: the served answer always, the plan hash on
    // a sample.
    let check_hash = (req as usize).is_multiple_of(GUARD_EVERY);
    let (plain, hash_ok) = tr.cold_query(&s, text, mirror, req, check_hash);
    let agree = hash_ok && rel == ok.relation && plain.is_ok_and(|p| p == rel);
    if !agree {
        tr.mismatch += 1;
    }
}

pub(crate) fn trickle(cfg: &Config) -> Result<(Outcome, Option<(Traced, Outcome)>), String> {
    let facts = gen::trickle_facts(cfg.seed);
    let path = write_facts(cfg, &facts)?;
    let mutations = gen::trickle_mutations(cfg.seed, cfg.rounds());
    let out = trickle_phase(cfg, &path, &facts, &mutations, None)?;
    let traced = if cfg.trace {
        let mut t = Traced::default();
        let traced = &mutations[..cfg.traced_rounds()];
        let o = trickle_phase(cfg, &path, &facts, traced, Some(&mut t))?;
        Some((t, o))
    } else {
        None
    };
    Ok((out, traced))
}

fn trickle_phase(
    cfg: &Config,
    path: &Path,
    facts: &str,
    mutations: &[String],
    mut trace: Option<&mut Traced>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let times = if trace.is_some() { 1 } else { cfg.setups };
    let (mut wire, setup_s) = setup(cfg, path, &TRICKLE_QUERIES, times)?;
    out.setup_s = setup_s;
    let load = |what: &str| Database::from_facts(facts).map_err(|e| format!("{what}: {e}"));
    let mut oracle_db = load("facts")?;
    let mut mirror = Arc::new(Database::new());
    let cache = SharedPlanCache::new();
    if let Some(tr) = trace.as_deref_mut() {
        let t0 = Instant::now();
        mirror = Arc::new(load("mirror")?);
        tr.load_ms = t0.elapsed().as_secs_f64() * 1e3;
        for q in TRICKLE_QUERIES {
            compile_and_eval_shared(q, &mirror, CompileOptions::default(), &cache)
                .map_err(|e| format!("mirror priming {q}: {e}"))?;
        }
        tr.ping_us = pings(&mut wire.conn)?;
    }
    let before = wire.conn.stats().map_err(|e| format!("stats: {e}"))?;
    let mut req = 0u64;
    // Rotation pins the client thread, so the in-process replay of the
    // traced pass, which must partition like the server, runs unpinned.
    let rotation = if trace.is_some() {
        CpuRotation::disabled()
    } else {
        CpuRotation::new()
    };
    for (round, m) in mutations.iter().enumerate() {
        out.round(round, mutations.len());
        rotation.enter(round);
        mutate(
            &mut wire.conn,
            m,
            req,
            &mut out,
            trace.as_deref_mut().map(|tr| (tr, &mut mirror)),
        )?;
        req += 1;
        oracle_db
            .apply_delta(m)
            .map_err(|e| format!("oracle mutation {m}: {e}"))?;
        for q in TRICKLE_QUERIES {
            let mut first: Option<(u64, Vec<u8>)> = None;
            for read in 0..TRICKLE_READS {
                let t = send(&mut wire.conn, &Request::query(q).encode())?;
                out.query(t.us());
                let Some(ok) = query_ok(&t.response) else {
                    out.check(false, || format!("{q}: {:?}", t.response));
                    continue;
                };
                let good = match &first {
                    None => {
                        let mut want: Relation =
                            compile_and_eval(q, &oracle_db, CompileOptions::default())
                                .map(|o| o.relation)
                                .map_err(|e| format!("oracle {q}: {e}"))?;
                        if cfg.corrupt_oracle && round == 0 {
                            want = corrupted(&want);
                        }
                        first = Some((ok.version, answer_bytes(&t.payload).to_vec()));
                        ok.relation == want
                    }
                    Some((version, bytes)) => {
                        ok.version == *version && answer_bytes(&t.payload) == &bytes[..]
                    }
                };
                if good {
                    out.check(true, String::new);
                } else {
                    out.wrong_answer(|| format!("round {round}, read {read} of {q} is wrong"));
                }
                if let Some(tr) = trace.as_deref_mut() {
                    replay_warm(tr, &mirror, &cache, req, q, &t, ok);
                }
                req += 1;
            }
        }
    }
    let after = wire.conn.stats().map_err(|e| format!("stats: {e}"))?;
    out.cache = counts(&before, &after);
    out.rss_mb = wire.server.peak_rss_mb();
    drop(wire.conn);
    wire.server.stop();
    Ok(out)
}

/// Replay one warm read in-process through the mirror cache.
fn replay_warm(
    tr: &mut Traced,
    mirror: &Arc<Database>,
    cache: &SharedPlanCache<Compiled>,
    req: u64,
    q: &str,
    t: &Timed,
    ok: &QueryOk,
) {
    traced_query(tr, t, req);
    let idx = tr.rec.spans().len();
    let bytes = tr.rec.span("replay", req, |rec| {
        let snap = rec.span("server.snapshot", req, |_| Arc::clone(mirror));
        let t0 = Instant::now();
        let served = compile_and_eval_shared(q, &snap, CompileOptions::default(), cache);
        let t1 = Instant::now();
        let name = match &served {
            Ok(o) if o.result_refreshed => "ivm.refresh",
            Ok(o) if o.result_cached => "cache.hit",
            _ => "serve.eval",
        };
        rec.record(name, req, t0, t1);
        let o = served.ok()?;
        Some(rec.span("protocol.encode", req, |_| {
            Response::Query(QueryOk {
                version: ok.version,
                plan_cached: o.plan_cached,
                result_cached: o.result_cached,
                result_refreshed: o.result_refreshed,
                stats: WireStats::from(&o.stats),
                columns: o.compiled.columns.iter().map(|v| v.to_string()).collect(),
                relation: o.relation,
                trace_json: None,
                any_infinite: None,
                any_infinite_vars: None,
            })
            .encode()
        }))
    });
    close_replay(tr, t, idx, bytes);
}
