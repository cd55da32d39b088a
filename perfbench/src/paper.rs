//! `paper_cold`: every corpus formula, served in-process through the
//! server's own entry points with a fresh cache per request.

use crate::affinity::CpuRotation;
use crate::gen::{self, PaperCase};
use crate::spans::Recorder;
use crate::stages::{self, StagedResult};
use crate::stats::peak_rss_mb;
use crate::{corrupted, Config, Outcome, Traced};
use rc_formula::vars::{bound_vars, free_vars};
use rc_formula::{Symbol, Value};
use rc_relalg::{Database, EvalStats, Relation, RelationBuilder, SharedPlanCache, Tracer};
use rc_safety::anyrc::compile_and_eval_any_shared;
use rc_safety::dom_baseline::{eval_brute_force, eval_dom};
use rc_safety::pipeline::{compile_and_eval_shared, CompileOptions, Compiled};
use std::time::Instant;

/// The oracle's answer for one case.
struct Expected {
    finite: Relation,
    /// Per-column infiniteness, for formulas served through the safe pair.
    flags: Option<Vec<bool>>,
}

/// A served answer.
enum Answer {
    Plain(Relation),
    Any {
        finite: Relation,
        maybe_infinite: bool,
        per_variable: Vec<bool>,
    },
    Error(String),
}

impl Answer {
    /// `None` when it agrees with the oracle, else what went wrong (and
    /// whether it is a wrong answer rather than an error).
    fn verdict(&self, want: &Expected) -> Option<(bool, String)> {
        match (self, &want.flags) {
            (Answer::Plain(rel), None) if *rel == want.finite => None,
            (
                Answer::Any {
                    finite,
                    maybe_infinite,
                    per_variable,
                },
                Some(flags),
            ) if *finite == want.finite
                && per_variable == flags
                && *maybe_infinite == flags.iter().any(|&b| b) =>
            {
                None
            }
            (Answer::Error(e), _) => Some((false, e.clone())),
            _ => Some((true, "answer differs from the oracle".into())),
        }
    }
}

/// The oracle, computed once at set-up: brute-force and Dom-baseline
/// answers (which must agree), plus, for rejected formulas, infiniteness
/// flags from a brute-force evaluation over the active domain extended by
/// as many fresh values as the formula has variables (enough by
/// genericity to exhibit every non-active-domain answer column).
fn expected(case: &PaperCase, db: &Database) -> Result<Expected, String> {
    let f = rc_formula::parse(case.text).map_err(|e| format!("{}: {e}", case.id))?;
    let brute = eval_brute_force(&f, db);
    let dom = eval_dom(&f, db).map_err(|e| format!("{}: {e}", case.id))?;
    if brute != dom {
        return Err(format!("{}: the two oracles disagree", case.id));
    }
    let flags = (!case.recognized).then(|| {
        let q = free_vars(&f).len() + bound_vars(&f).len();
        let fresh: Vec<Value> = (0..q as i64).map(|k| Value::int(1_000_000 + k)).collect();
        let mut extended = db.clone();
        let mut b = RelationBuilder::new(1);
        for &v in &fresh {
            b.push_row(&[v]);
        }
        extended.insert_relation(Symbol::intern("Fresh#oracle"), b.finish());
        let wide = eval_brute_force(&f, &extended);
        (0..wide.arity())
            .map(|j| wide.iter().any(|row| fresh.contains(&row[j])))
            .collect()
    });
    Ok(Expected {
        finite: brute,
        flags,
    })
}

/// Serve one request the way the server does, with a fresh cache.
fn serve(case: &PaperCase, db: &Database, cache: &SharedPlanCache<Compiled>) -> Answer {
    let opts = CompileOptions::default();
    if case.recognized {
        match compile_and_eval_shared(case.text, db, opts, cache) {
            Ok(out) => Answer::Plain(out.relation),
            Err(e) => Answer::Error(e.to_string()),
        }
    } else {
        match compile_and_eval_any_shared(case.text, db, opts, cache) {
            Ok(out) => Answer::Any {
                finite: out.answer.finite,
                maybe_infinite: out.answer.maybe_infinite,
                per_variable: out.answer.per_variable,
            },
            Err(e) => Answer::Error(e.to_string()),
        }
    }
}

fn load(cases: &[PaperCase]) -> Result<Vec<Database>, String> {
    cases
        .iter()
        .map(|c| Database::from_facts(&c.facts).map_err(|e| format!("{}: {e}", c.id)))
        .collect()
}

pub(crate) fn run(cfg: &Config) -> Result<(Outcome, Option<(Traced, Outcome)>), String> {
    let cases = gen::paper_cases(cfg.seed);
    let stream = gen::paper_stream(cfg.seed, cases.len(), cfg.rounds());
    let mut out = Outcome::default();
    // Set-up takes a fraction of a millisecond, so which CPU it lands on
    // decides its figure. One sample is therefore the mean of one set-up
    // on each CPU in turn, and `setup_s` the median of those samples.
    let rotation = CpuRotation::new();
    let cpus = rotation.cpus();
    let mut dbs = Vec::new();
    for sample in 0..cfg.setups.max(1) {
        let mut total = 0.0;
        for k in 0..cpus {
            rotation.enter(sample * cpus + k);
            let t = Instant::now();
            dbs = load(&cases)?;
            total += t.elapsed().as_secs_f64();
        }
        out.setup_s.push(total / cpus as f64);
    }
    let mut oracle = cases
        .iter()
        .zip(&dbs)
        .map(|(c, db)| expected(c, db))
        .collect::<Result<Vec<_>, _>>()?;
    if cfg.corrupt_oracle {
        oracle[0].finite = corrupted(&oracle[0].finite);
    }

    let rounds = stream.len() / cases.len();
    for (n, &i) in stream.iter().enumerate() {
        let round = n / cases.len();
        if n % cases.len() == 0 {
            out.round(round, rounds);
            rotation.enter(round);
        }
        let cache = SharedPlanCache::new();
        let t0 = Instant::now();
        let answer = serve(&cases[i], &dbs[i], &cache);
        out.query(t0.elapsed().as_secs_f64() * 1e6);
        tally(&mut out, &answer, &oracle[i], &cases[i]);
        if n % cases.len() == cases.len() - 1 {
            write_probe(&dbs[round % dbs.len()], round, &mut out, None);
        }
    }
    drop(rotation);
    out.rss_mb = peak_rss_mb(std::process::id()).unwrap_or(0.0);

    let traced = if cfg.trace {
        Some(traced(
            &cases,
            &stream[..cfg.traced_rounds() * cases.len()],
            &oracle,
        ))
    } else {
        None
    };
    Ok((out, traced))
}

fn tally(out: &mut Outcome, answer: &Answer, want: &Expected, case: &PaperCase) {
    match answer.verdict(want) {
        None => out.check(true, String::new),
        Some((true, msg)) => out.wrong_answer(|| format!("{}: {msg}", case.id)),
        Some((false, msg)) => out.check(false, || format!("{}: {msg}", case.id)),
    }
}

/// The write probe closing every round: a one-row insert into a clone of
/// `db`, then its delete from a clone of the result, each timed the way
/// the server applies `mutate` (snapshot clone plus `apply_delta`). The
/// served databases are left untouched.
fn write_probe(db: &Database, round: usize, out: &mut Outcome, mut rec: Option<&mut Recorder>) {
    let mut preds = db.predicates();
    preds.sort_by_key(|p| p.as_str());
    let pred = preds[0];
    let arity = db.relation(pred).map_or(1, Relation::arity);
    let row = vec![(1000 + round).to_string(); arity].join(", ");
    let mut base = db.clone();
    for (text, want) in [
        (format!("{pred}({row})"), (1, 0)),
        (format!("-{pred}({row})"), (0, 1)),
    ] {
        let t0 = Instant::now();
        let mut next = base.clone();
        let delta = next.apply_delta(&text);
        let t1 = Instant::now();
        if let Some(rec) = rec.as_deref_mut() {
            rec.record("db.apply_delta", round as u64, t0, t1);
        }
        out.mutation((t1 - t0).as_secs_f64() * 1e6);
        let ok = delta.is_ok_and(|d| {
            d.summary()
                .iter()
                .map(|(_, ins, del)| (*ins, *del))
                .eq([want])
        });
        out.check(ok, || format!("mutation {text} did not apply as one row"));
        base = next;
    }
}

/// The traced pass: the same stream, each request decomposed into its
/// public stage calls, then checked against `compile_for` and the served
/// answer.
fn traced(cases: &[PaperCase], stream: &[usize], oracle: &[Expected]) -> (Traced, Outcome) {
    let mut t = Traced::default();
    let mut out = Outcome::default();
    let load_start = Instant::now();
    let dbs = load(cases).expect("facts loaded once already");
    t.load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    let opts = CompileOptions::default();
    let rotation = CpuRotation::new();
    for (req, &i) in stream.iter().enumerate() {
        let round = req / cases.len();
        if req % cases.len() == 0 {
            rotation.enter(round);
        }
        if req % cases.len() == cases.len() - 1 {
            write_probe(&dbs[round % dbs.len()], round, &mut out, Some(&mut t.rec));
        }
        let req = req as u64;
        let (case, db) = (&cases[i], &dbs[i]);
        let cache = SharedPlanCache::new();
        let idx = t.rec.spans().len();
        let served = t.rec.span("request", req, |rec| {
            match stages::compile(case.text, db, &opts, rec, req) {
                StagedResult::Compiled(s) => {
                    let maintained = rec.span("ivm.maintain", req, |_| {
                        let mut stats = EvalStats::default();
                        s.compiled
                            .run_maintained(
                                db,
                                db.version(),
                                &mut stats,
                                &opts.budget,
                                &mut Tracer::off(),
                            )
                            .map(|(rel, _)| rel)
                    });
                    (
                        Some(s),
                        maintained.map_or_else(|e| Answer::Error(e.to_string()), Answer::Plain),
                    )
                }
                StagedResult::Rejected => {
                    let any = rec.span("anyrc", req, |_| {
                        compile_and_eval_any_shared(case.text, db, opts.clone(), &cache)
                    });
                    let answer = match any {
                        Ok(a) => Answer::Any {
                            finite: a.answer.finite,
                            maybe_infinite: a.answer.maybe_infinite,
                            per_variable: a.answer.per_variable,
                        },
                        Err(e) => Answer::Error(e.to_string()),
                    };
                    (None, answer)
                }
                StagedResult::Failed(e) => (None, Answer::Error(e)),
            }
        });
        t.latency_us
            .push(t.rec.spans()[idx].duration_ns() as f64 / 1e3);
        t.explained_us.push(t.rec.children_ns(idx) as f64 / 1e3);
        let (staged, answer) = served;
        tally(&mut out, &answer, &oracle[i], case);
        let Some(s) = staged else {
            if case.recognized {
                t.mismatch += 1;
            }
            continue;
        };
        // The decomposition guard.
        let (plain, hash_ok) = t.cold_query(&s, case.text, db, req, true);
        let served_ok = match (&answer, serve(case, db, &SharedPlanCache::new()), plain) {
            (Answer::Plain(a), Answer::Plain(b), Ok(c)) => *a == b && *a == c,
            _ => false,
        };
        if !(hash_ok && served_ok) {
            t.mismatch += 1;
        }
    }
    (t, out)
}
