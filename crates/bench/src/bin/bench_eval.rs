//! Experiment E-ENGINE: flat-row batch kernels vs the tuple-at-a-time
//! baseline (`rc_relalg::eval_baseline`) on the operators the paper's
//! translation leans on — hash join, semijoin, anti-join (`diff`),
//! same-arity difference and union — at several scales. A third timing
//! column runs the same kernels under a fully-armed (but never-tripping)
//! [`Budget`] and reports the governance overhead, which is expected to
//! stay under 2%; a fourth runs with a disabled [`Tracer`] and reports the
//! tracing-off overhead, which must stay under 1% (the hooks are a branch
//! on one bool). One traced run per workload supplies a per-operator
//! self-time breakdown.
//!
//! Emits `BENCH_eval.json` at the repository root with median
//! nanoseconds per evaluation, both overheads, the per-operator breakdown,
//! and the speedup factor, so the committed numbers regenerate with one
//! command:
//!
//! ```sh
//! cargo run --release -p rc-bench --bin bench_eval
//! ```
//!
//! Two cache families ride along and land in the same JSON:
//!
//! * **repeated_query** — the full cached serving path
//!   (`compile_and_eval_shared`): cold serve (empty [`SharedPlanCache`])
//!   vs the second serve of the same text against an unchanged database,
//!   which must hit both the plan and the result layer;
//! * **shared_subtree** — plans whose join subtree appears several times:
//!   plain tree evaluation vs the memoizing DAG evaluator
//!   ([`eval_shared`]), with the per-run memo hit count.
//!
//! A **partition** family rides along: a large-join workload timed with
//! the kernels forced sequential (`Budget::with_partitions(1)`) against
//! the auto-partitioned policy, with a paired measurement of the
//! spawn-denied fallback's overhead and a bit-identity check of the two
//! results.
//!
//! A **multi_join** family exercises the cost-based planner
//! ([`rc_relalg::optimize()`]): 3–6 relation chain/star/cycle shapes with
//! skewed cardinalities, written in a pessimal join order. Each query is
//! timed as the heuristic plan (`simplify`) against the cost-optimized
//! plan, with a result-equality assert, the chosen join order, and the
//! root estimation error landing in the JSON.
//!
//! A **rewrite** family exercises the equality-saturation layer
//! ([`rc_relalg::saturate_governed()`]): union/difference shapes with a
//! large shared leg, written in the distributed form. The one-pass cost
//! planner reorders joins but never factors across a union, so it keeps
//! the duplicated big leg; saturation discovers the factored plan. Each
//! query is timed as the cost-optimized plan against the saturated plan,
//! with a result-equality assert, both Estimator prices, and the
//! saturation report's rule-application count landing in the JSON.
//!
//! `bench_eval gates` instead runs the acceptance gates of the `GATES`
//! table, one after another, and exits nonzero if any failed (each gate
//! reports its own failure, so one run names every failing gate; none
//! touches `BENCH_eval.json`):
//!
//! * **par** — results bit-identical across partition policies and the
//!   sequential fallback under 2% median; on hosts with at least 8 cores
//!   the median partitioned speedup reaches 2x (on smaller hosts that leg
//!   is skipped — the auto policy refuses to split below the
//!   per-partition row floor, so there is nothing to measure);
//! * **trace** — paired tracing-off overhead below 1% median;
//! * **cache** — every warm repeated-query serve is a result-cache hit,
//!   median speedup at least 5x;
//! * **opt** — median cost-optimized multi_join speedup at least 2x, every
//!   optimized plan returning exactly the heuristic plan's relation, and
//!   a paired re-check of the standard matrix regressing no query by 5%
//!   or more;
//! * **ivm** — every warm re-serve after a one-row `apply_delta` takes the
//!   view-refresh path, median speedup over full re-evaluation at least
//!   10x;
//! * **any** — every corpus formula, classifier-rejected ones included,
//!   served by `compile_and_eval_any_shared` byte-identical to the
//!   brute-force active-domain oracle, in process *and* over the `any`
//!   wire verb, with the infiniteness flags surviving the round trip;
//! * **egraph** — on every compiled corpus plan, the saturated plan
//!   evaluates bit-identical to the served answer; the Estimator prices
//!   the saturated plan at or below the cost plan on every multi_join /
//!   standard-matrix / rewrite workload; the rewrite family's median
//!   measured speedup reaches 1.2x; and a paired re-check shows
//!   saturation regressing no multi_join or standard workload by 5% or
//!   more.
//!
//! ```sh
//! cargo run --release -p rc-bench --bin bench_eval -- gates
//! ```
//!
//! An **any_query** family rides along in the default run: cold and warm
//! safe-pair serving latency for classifier-rejected formulas (both legs
//! compiled, evaluated, and cached under one budget), with a fast-path
//! member pinning that recognized queries pay nothing for the new entry
//! point.
//!
//! An **update_trickle** family rides along in the default run: a warm
//! standing query re-served after each one-row mutation, with the
//! baseline mutating through `load_facts` (no delta journal, so every
//! serve pays a full re-evaluation — the pre-IVM behavior) and the
//! variant through `apply_delta` (every serve advances the maintained
//! view incrementally).
//!
//! The inputs are deterministic (`i mod k` patterns, no RNG), so tuple
//! counts are exactly reproducible; only wall times vary by machine.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rc_bench::Table;
use rc_formula::{Formula, Term, Value, Var};
use rc_relalg::trace::json_str;
use rc_relalg::{
    eval, eval_baseline, eval_shared, eval_traced, optimize, partition_count, saturate_governed,
    simplify, Budget, Database, Estimator, EvalStats, FaultInjector, OpSpan, RaExpr, Relation,
    RelationBuilder, SelPred, SharedPlanCache, Tracer,
};
use rc_safety::anyrc::compile_and_eval_any_shared;
use rc_safety::corpus::{corpus, formula_of};
use rc_safety::pipeline::{compile_and_eval_shared, compile_for, CompileOptions, Compiled};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Binary relation {(i, i mod key) : i < n} — join fan-out n/key per key.
fn keyed(n: usize, key: i64) -> Relation {
    let mut b = RelationBuilder::with_capacity(2, n);
    for i in 0..n as i64 {
        b.push_row(&[Value::int(i), Value::int(i % key)]);
    }
    b.finish()
}

/// Binary relation {(i mod key, i mod other) : i < n}.
fn keyed_rev(n: usize, key: i64, other: i64) -> Relation {
    let mut b = RelationBuilder::with_capacity(2, n);
    for i in 0..n as i64 {
        b.push_row(&[Value::int(i % key), Value::int(i % other)]);
    }
    b.finish()
}

/// Unary relation {(2i) : i < n} — hits every other join key.
fn evens(n: usize) -> Relation {
    let mut b = RelationBuilder::with_capacity(1, n);
    for i in 0..n as i64 {
        b.push_row(&[Value::int(2 * i)]);
    }
    b.finish()
}

fn db_for(n: usize) -> Database {
    // Key modulus ~n/3 gives a small constant fan-out so join outputs stay
    // O(n) while every probe still does real hash work.
    let key = (n as i64 / 3).max(1);
    let mut db = Database::new();
    db.insert_relation("A", keyed(n, key));
    db.insert_relation("B", keyed_rev(n, key, 97));
    db.insert_relation("C", evens(n / 2));
    db
}

fn workloads() -> Vec<(&'static str, RaExpr)> {
    let a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let b_yz = || RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]);
    let b_xy = || RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]);
    let c_x = || RaExpr::scan("C", vec![Term::var("x")]);
    vec![
        ("join", RaExpr::join(a(), b_yz())),
        ("semijoin", RaExpr::join(a(), c_x())),
        ("antijoin", RaExpr::diff(a(), c_x())),
        ("diff_same_arity", RaExpr::diff(a(), b_xy())),
        ("union_permuted", RaExpr::union(a(), b_xy())),
        (
            "join_project",
            RaExpr::project(
                RaExpr::join(a(), b_yz()),
                vec![Var::new("x"), Var::new("z")],
            ),
        ),
    ]
}

/// Median wall time of `samples` runs of `f`, in nanoseconds.
fn time_median(samples: usize, mut f: impl FnMut()) -> u128 {
    f(); // warm-up (first touch of lazily-built structures)
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Paired comparison of two variants of the same computation: each sample
/// times both back-to-back, so machine drift hits both sides equally, and
/// the reported ratio is the median of per-sample ratios — far more
/// stable for differences in the low percent range than comparing two
/// independently-measured medians.
fn time_paired(
    samples: usize,
    mut base: impl FnMut(),
    mut variant: impl FnMut(),
) -> (u128, u128, f64) {
    base();
    variant(); // warm-up both
    let mut base_ts = Vec::with_capacity(samples);
    let mut var_ts = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        base();
        let b = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        variant();
        let v = t1.elapsed().as_nanos();
        base_ts.push(b);
        var_ts.push(v);
        ratios.push(v as f64 / b as f64);
    }
    base_ts.sort_unstable();
    var_ts.sort_unstable();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (
        base_ts[samples / 2],
        var_ts[samples / 2],
        ratios[samples / 2],
    )
}

/// Paired tracing-off overhead for one workload: plain `eval` against the
/// same evaluation through [`eval_traced`] with a disabled tracer.
fn trace_off_overhead(samples: usize, expr: &RaExpr, db: &Database) -> f64 {
    let (_, _, ratio) = time_paired(
        samples,
        || {
            black_box(eval(black_box(expr), black_box(db)).unwrap());
        },
        || {
            let mut stats = EvalStats::default();
            let mut tracer = Tracer::off();
            black_box(
                eval_traced(
                    black_box(expr),
                    black_box(db),
                    &mut stats,
                    Budget::unlimited(),
                    &mut tracer,
                )
                .unwrap(),
            );
        },
    );
    (ratio - 1.0) * 100.0
}

/// Per-operator *self* time from a span tree: each span's elapsed minus
/// its children's (parallel children overlap in wall time, so self time
/// can clamp to zero), flattened in evaluation order.
fn op_self_times(span: &OpSpan, out: &mut Vec<(String, u64, usize)>) {
    let child_ns: u64 = span.children.iter().map(|c| c.elapsed_ns).sum();
    out.push((
        span.op.clone(),
        span.elapsed_ns.saturating_sub(child_ns),
        span.rows_out,
    ));
    for c in &span.children {
        op_self_times(c, out);
    }
}

/// The `trace` gate: fast paired check that disabled tracing costs less
/// than 1% median, across the workload matrix at reduced sizes.
fn trace_gate() -> Result<(), String> {
    let samples = 25;
    let mut overheads: Vec<f64> = Vec::new();
    for &n in &[2_000usize, 10_000] {
        let db = db_for(n);
        for (name, expr) in workloads() {
            let pct = trace_off_overhead(samples, &expr, &db);
            println!("trace-off overhead {name}/{n}: {pct:+.2}%");
            overheads.push(pct);
        }
    }
    overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = overheads[overheads.len() / 2];
    println!("median tracing-off overhead: {median:+.2}% (gate < 1%)");
    if median >= 1.0 {
        return Err(format!("disabled tracing costs {median:.2}% >= 1%"));
    }
    Ok(())
}

/// Large-join database for the partition family: both sides far above the
/// per-partition row floor, with a fan-out of 9 output rows per key so the
/// join does real per-partition work.
fn partition_db(n: usize) -> Database {
    let key = (n as i64 / 3).max(1);
    let mut db = Database::new();
    db.insert_relation("A", keyed(n, key));
    db.insert_relation("B", keyed_rev(n, key, 97));
    db
}

/// The partition-parallel workloads: a plain co-partitioned hash join and
/// the same join under a partitioned projection.
fn partition_workloads() -> Vec<(&'static str, RaExpr)> {
    let a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let b_yz = || RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]);
    vec![
        ("par_join", RaExpr::join(a(), b_yz())),
        (
            "par_join_project",
            RaExpr::project(
                RaExpr::join(a(), b_yz()),
                vec![Var::new("x"), Var::new("z")],
            ),
        ),
    ]
}

struct PartitionRecord {
    name: &'static str,
    rows: usize,
    partitions: usize,
    seq_ns: u128,
    par_ns: u128,
    speedup: f64,
    fallback_overhead_pct: f64,
    identical: bool,
}

/// One partition-family workload: paired sequential (forced
/// `with_partitions(1)`) vs auto-partitioned timing, a paired measurement
/// of the spawn-denied fallback against the forced-sequential path, and a
/// bit-identity check of the two results (rows *and* rendered order).
fn bench_partition_workload(
    samples: usize,
    name: &'static str,
    expr: &RaExpr,
    db: &Database,
    n: usize,
) -> PartitionRecord {
    let seq_budget = Budget::new().with_partitions(1);
    let par_budget = Budget::new(); // auto: cardinality/cores heuristic
    let run = |budget: &Budget| {
        let mut stats = EvalStats::default();
        eval_traced(
            black_box(expr),
            black_box(db),
            &mut stats,
            budget,
            &mut Tracer::off(),
        )
        .unwrap()
    };
    let seq_rel = run(&seq_budget);
    let par_rel = run(&par_budget);
    let identical = seq_rel == par_rel && seq_rel.to_string() == par_rel.to_string();
    let (seq_ns, par_ns, ratio) = time_paired(
        samples,
        || {
            black_box(run(&seq_budget));
        },
        || {
            black_box(run(&par_budget));
        },
    );
    // Fallback overhead: spawn denial (the degraded path a thread-starved
    // host takes) against the plain forced-sequential kernels.
    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    let denied_budget = Budget::new().with_fault_injector(fault);
    let (_, _, fb_ratio) = time_paired(
        samples,
        || {
            black_box(run(&seq_budget));
        },
        || {
            black_box(run(&denied_budget));
        },
    );
    PartitionRecord {
        name,
        rows: n,
        partitions: partition_count(n),
        seq_ns,
        par_ns,
        speedup: 1.0 / ratio,
        fallback_overhead_pct: (fb_ratio - 1.0) * 100.0,
        identical,
    }
}

/// The `par` gate: bit-identity and fallback overhead are enforced on
/// every host; the 2x median speedup only where the auto policy actually
/// partitions (>= 8 cores).
fn partition_gate() -> Result<(), String> {
    let samples = 9;
    let n = 150_000;
    let db = partition_db(n);
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let mut speedups: Vec<f64> = Vec::new();
    let mut fallbacks: Vec<f64> = Vec::new();
    let mut all_identical = true;
    for (name, expr) in partition_workloads() {
        let r = bench_partition_workload(samples, name, &expr, &db, n);
        println!(
            "partition {name}/{n} ({} parts): seq {:.3} ms, par {:.3} ms, {:.2}x, \
             fallback {:+.2}%, identical: {}",
            r.partitions,
            r.seq_ns as f64 / 1e6,
            r.par_ns as f64 / 1e6,
            r.speedup,
            r.fallback_overhead_pct,
            r.identical
        );
        speedups.push(r.speedup);
        fallbacks.push(r.fallback_overhead_pct);
        all_identical &= r.identical;
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fallbacks.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_speedup = speedups[speedups.len() / 2];
    let median_fallback = fallbacks[fallbacks.len() / 2];
    println!(
        "median partitioned speedup: {median_speedup:.2}x (gate >= 2x at >= 8 cores; \
         this host: {cores}), median fallback overhead: {median_fallback:+.2}% (gate < 2%)"
    );
    if !all_identical {
        return Err("partitioned and sequential results are not bit-identical".into());
    }
    if median_fallback >= 2.0 {
        return Err(format!(
            "sequential fallback costs {median_fallback:.2}% >= 2% median"
        ));
    }
    if cores >= 8 && median_speedup < 2.0 {
        return Err(format!(
            "median partitioned speedup {median_speedup:.2}x < 2x at {cores} cores"
        ));
    }
    if cores < 8 {
        println!(
            "speedup gate skipped: {cores} core(s) < 8 (bit-identity and fallback \
             overhead were still enforced)"
        );
    }
    Ok(())
}

/// Database for the multi_join planner family: chain, star, and cycle
/// query shapes over relations with heavily skewed cardinalities, so join
/// order dominates the evaluation cost. All contents are deterministic
/// `i mod k` patterns with pairwise-coprime moduli (every generated pair
/// is distinct, so set-semantics dedup never shrinks a relation).
fn multi_join_db() -> Database {
    let pairs = |n: usize, f: &dyn Fn(i64) -> (i64, i64)| -> Relation {
        let mut b = RelationBuilder::with_capacity(2, n);
        for i in 0..n as i64 {
            let (a, c) = f(i);
            b.push_row(&[Value::int(a), Value::int(c)]);
        }
        b.finish()
    };
    let unary = |n: usize, f: &dyn Fn(i64) -> i64| -> Relation {
        let mut b = RelationBuilder::with_capacity(1, n);
        for i in 0..n as i64 {
            b.push_row(&[Value::int(f(i))]);
        }
        b.finish()
    };
    let mut db = Database::new();
    // chain3: MA ⋈ MB is a 300k-row intermediate; MC keeps 3 z-values.
    db.insert_relation("MA", pairs(30_000, &|i| (i, i % 3000)));
    db.insert_relation("MB", pairs(30_000, &|i| (i % 3000, i % 299)));
    db.insert_relation("MC", pairs(3, &|i| (i, i)));
    // star4: a 20k-row hub with three dimension tables of wildly
    // different selectivity (10k / 11 / 2 matching values).
    {
        let mut b = RelationBuilder::with_capacity(3, 20_000);
        for i in 0..20_000i64 {
            b.push_row(&[Value::int(i), Value::int(i % 200), Value::int(i % 20)]);
        }
        db.insert_relation("Hub", b.finish());
    }
    db.insert_relation("D1", unary(10_000, &|i| 2 * i));
    db.insert_relation("D2", unary(11, &|i| i));
    db.insert_relation("D3", unary(2, &|i| i));
    // cycle3: CA ⋈ CB fans out to 970k rows; CC closes the cycle on both
    // ends with 3 values.
    db.insert_relation("CA", pairs(10_000, &|i| (i, i % 100)));
    db.insert_relation("CB", pairs(9_700, &|i| (i % 100, i % 97)));
    db.insert_relation("CC", pairs(3, &|i| (i, i)));
    // chain6: a six-relation chain with shrinking tails.
    db.insert_relation("R1", pairs(10_000, &|i| (i, i % 1000)));
    db.insert_relation("R2", pairs(1_000, &|i| (i, i % 100)));
    db.insert_relation("R3", pairs(100, &|i| (i, i % 10)));
    db.insert_relation("R4", pairs(10, &|i| (i, i % 5)));
    db.insert_relation("R5", pairs(5, &|i| (i, i % 2)));
    db.insert_relation("R6", pairs(2, &|i| (i, i)));
    db
}

/// The multi_join queries, deliberately written in a pessimal join order
/// (largest pair first, most selective relation last, chain interleaved so
/// the textual order contains cross products).
fn multi_join_workloads() -> Vec<(&'static str, RaExpr)> {
    let s2 = |p: &str, a: &str, b: &str| RaExpr::scan(p, vec![Term::var(a), Term::var(b)]);
    let s1 = |p: &str, a: &str| RaExpr::scan(p, vec![Term::var(a)]);
    let chain3 = RaExpr::join(
        RaExpr::join(s2("MA", "x", "y"), s2("MB", "y", "z")),
        s2("MC", "z", "w"),
    );
    let star4 = RaExpr::join(
        RaExpr::join(
            RaExpr::join(
                RaExpr::scan("Hub", vec![Term::var("a"), Term::var("b"), Term::var("c")]),
                s1("D1", "a"),
            ),
            s1("D2", "b"),
        ),
        s1("D3", "c"),
    );
    let cycle3 = RaExpr::join(
        RaExpr::join(s2("CA", "x", "y"), s2("CB", "y", "z")),
        s2("CC", "z", "x"),
    );
    // Textually interleaved: R1 ⋈ R6 and the later pairs are cross
    // products until the chain closes.
    let chain6 = RaExpr::join(
        RaExpr::join(
            RaExpr::join(
                RaExpr::join(
                    RaExpr::join(s2("R1", "v0", "v1"), s2("R6", "v5", "v6")),
                    s2("R3", "v2", "v3"),
                ),
                s2("R2", "v1", "v2"),
            ),
            s2("R5", "v4", "v5"),
        ),
        s2("R4", "v3", "v4"),
    );
    vec![
        ("chain3", chain3),
        ("star4", star4),
        ("cycle3", cycle3),
        ("chain6", chain6),
    ]
}

/// The base-relation scan order of a plan, left to right — the planner's
/// chosen join order in readable form.
fn scan_order(e: &RaExpr, out: &mut Vec<String>) {
    if let RaExpr::Scan { pred, .. } = e {
        out.push(pred.as_str().to_string());
    }
    for c in e.children() {
        scan_order(c, out);
    }
}

struct MultiJoinRecord {
    name: &'static str,
    heuristic_ns: u128,
    optimized_ns: u128,
    speedup: f64,
    chosen_order: Vec<String>,
    est_rows: u64,
    actual_rows: usize,
    est_error_factor: f64,
}

/// One multi_join workload: the heuristic (`simplify`) plan against the
/// cost-optimized plan, paired sampling, with a result-equality assert.
fn bench_multi_join(
    samples: usize,
    name: &'static str,
    expr: &RaExpr,
    db: &Database,
) -> MultiJoinRecord {
    let heuristic = simplify(expr);
    let optimized = optimize(expr, db);
    let want = eval(&heuristic, db).expect("heuristic plan evaluates");
    let got = eval(&optimized, db).expect("optimized plan evaluates");
    assert_eq!(want, got, "{name}: cost-optimized plan changed the answer");
    let (heuristic_ns, optimized_ns, ratio) = time_paired(
        samples,
        || {
            black_box(eval(black_box(&heuristic), black_box(db)).unwrap());
        },
        || {
            black_box(eval(black_box(&optimized), black_box(db)).unwrap());
        },
    );
    let mut chosen_order = Vec::new();
    scan_order(&optimized, &mut chosen_order);
    let est_rows = Estimator::new(db).rows(&optimized);
    let actual_rows = got.len();
    let (e, a) = (est_rows.max(1) as f64, actual_rows.max(1) as f64);
    MultiJoinRecord {
        name,
        heuristic_ns,
        optimized_ns,
        speedup: 1.0 / ratio,
        chosen_order,
        est_rows,
        actual_rows,
        est_error_factor: (e / a).max(a / e),
    }
}

fn multi_join_json(r: &MultiJoinRecord) -> String {
    let order = r
        .chosen_order
        .iter()
        .map(|s| json_str(s))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "    {{\"workload\": \"{}\", \"heuristic_ns\": {}, \"optimized_ns\": {}, ",
            "\"speedup\": {:.2}, \"chosen_order\": [{}], \"est_rows\": {}, ",
            "\"actual_rows\": {}, \"est_error_factor\": {:.2}}}"
        ),
        r.name,
        r.heuristic_ns,
        r.optimized_ns,
        r.speedup,
        order,
        r.est_rows,
        r.actual_rows,
        r.est_error_factor
    )
}

/// The `opt` gate: the cost-based planner must deliver a median 2x
/// speedup on the multi_join family (answers verified identical), and a
/// paired re-check of the standard workload matrix must show no query
/// where the optimized plan is 5% or more slower than the heuristic one.
fn opt_gate() -> Result<(), String> {
    let samples = 7;
    let db = multi_join_db();
    let mut speedups: Vec<f64> = Vec::new();
    for (name, expr) in multi_join_workloads() {
        let r = bench_multi_join(samples, name, &expr, &db);
        println!(
            "multi_join {name}: heuristic {:.3} ms, optimized {:.3} ms, {:.2}x, \
             order [{}], est {} vs actual {} ({:.2}x off)",
            r.heuristic_ns as f64 / 1e6,
            r.optimized_ns as f64 / 1e6,
            r.speedup,
            r.chosen_order.join(" "),
            r.est_rows,
            r.actual_rows,
            r.est_error_factor
        );
        speedups.push(r.speedup);
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = speedups[speedups.len() / 2];
    println!("median multi_join speedup: {median:.2}x (gate >= 2x)");
    if median < 2.0 {
        return Err(format!("median multi_join speedup {median:.2}x < 2x"));
    }
    // No-regression leg: on the standard matrix the cost-based plan must
    // not lose to the heuristic plan by 5% or more on any query.
    let n = 10_000;
    let reg_db = db_for(n);
    let mut worst: f64 = 0.0;
    for (name, expr) in workloads() {
        let heuristic = simplify(&expr);
        let optimized = optimize(&expr, &reg_db);
        // When the planner keeps the heuristic plan verbatim there is
        // nothing to regress — timing two evaluations of the *same* plan
        // only measures machine noise, which would flake the gate.
        if optimized == heuristic {
            println!("optimizer regression check {name}/{n}: plan unchanged");
            continue;
        }
        assert_eq!(
            eval(&heuristic, &reg_db).unwrap(),
            eval(&optimized, &reg_db).unwrap(),
            "{name}: optimized plan changed the answer"
        );
        let (_, _, ratio) = time_paired(
            15,
            || {
                black_box(eval(black_box(&heuristic), black_box(&reg_db)).unwrap());
            },
            || {
                black_box(eval(black_box(&optimized), black_box(&reg_db)).unwrap());
            },
        );
        let pct = (ratio - 1.0) * 100.0;
        println!("optimizer regression check {name}/{n}: {pct:+.2}%");
        worst = worst.max(pct);
    }
    println!("worst optimizer regression: {worst:+.2}% (gate < 5%)");
    if worst >= 5.0 {
        return Err(format!(
            "optimizer regresses an existing workload by {worst:.2}% >= 5%"
        ));
    }
    Ok(())
}

/// Shared-leg fixture for the rewrite family. `FA`/`FB` are small probe
/// relations and `FC` is a large shared join leg; `GA`/`GB`/`GC` replay
/// the same skew for the same-schema difference shapes. The cost planner
/// reorders joins but never factors across a union, so it evaluates the
/// big leg once per branch; the factored plan saturation finds touches
/// `FC`/`GC` once.
fn rewrite_db() -> Database {
    let mut db = Database::new();
    // FA/FB: 500 rows each with disjoint x-ranges, each hitting a sparse
    // disjoint slice of FC's unique keys (stride 100, shifts 0/1) so the
    // joins are selective: probing FC's 50k rows dominates, the outputs
    // stay small, and factoring — which halves the FC probes — shows up
    // as wall time instead of drowning in output materialization.
    let small = |off: i64, shift: i64| -> Relation {
        let mut b = RelationBuilder::with_capacity(2, 500);
        for i in 0..500i64 {
            b.push_row(&[Value::int(off + i), Value::int(100 * i + shift)]);
        }
        b.finish()
    };
    db.insert_relation("FA", small(0, 0));
    db.insert_relation("FB", small(10_000, 1));
    {
        let mut b = RelationBuilder::with_capacity(2, 50_000);
        for i in 0..50_000i64 {
            b.push_row(&[Value::int(i), Value::int(2 * i)]);
        }
        db.insert_relation("FC", b.finish());
    }
    // GA/GB: 2k rows each; GC: 50k rows. The distributed difference
    // builds GC's probe set once per branch, the factored one once.
    let g = |off: i64, n: i64| -> Relation {
        let mut b = RelationBuilder::with_capacity(2, n as usize);
        for i in 0..n {
            b.push_row(&[Value::int(off + i), Value::int(i % 7)]);
        }
        b.finish()
    };
    db.insert_relation("GA", g(0, 2_000));
    db.insert_relation("GB", g(1_000, 2_000));
    db.insert_relation("GC", g(500, 50_000));
    db
}

/// The rewrite-family queries: algebra shapes whose best plan needs an
/// *equivalence* the one-pass cost planner never explores — factoring a
/// shared leg out of a union of joins or differences. All are written in
/// the distributed (pessimal) form; discovering the factored form takes
/// the `union-factor` / `diff-distribute` rules, with `join-commute`
/// aligning the flipped branch and `select-push-*` feeding the selected
/// variant.
fn rewrite_workloads() -> Vec<(&'static str, RaExpr)> {
    let fa = || RaExpr::scan("FA", vec![Term::var("x"), Term::var("y")]);
    let fb = || RaExpr::scan("FB", vec![Term::var("x"), Term::var("y")]);
    let fc = || RaExpr::scan("FC", vec![Term::var("y"), Term::var("z")]);
    let ga = || RaExpr::scan("GA", vec![Term::var("x"), Term::var("y")]);
    let gb = || RaExpr::scan("GB", vec![Term::var("x"), Term::var("y")]);
    let gc = || RaExpr::scan("GC", vec![Term::var("x"), Term::var("y")]);
    vec![
        (
            "factor_union",
            RaExpr::union(RaExpr::join(fa(), fc()), RaExpr::join(fb(), fc())),
        ),
        (
            "factor_union_commuted",
            RaExpr::union(RaExpr::join(fc(), fa()), RaExpr::join(fb(), fc())),
        ),
        (
            "factor_diff",
            RaExpr::union(RaExpr::diff(ga(), gc()), RaExpr::diff(gb(), gc())),
        ),
        (
            "factor_select",
            RaExpr::select(
                RaExpr::union(RaExpr::join(fa(), fc()), RaExpr::join(fb(), fc())),
                SelPred::NeqConst(Var::new("z"), Value::int(7)),
            ),
        ),
    ]
}

struct RewriteRecord {
    name: &'static str,
    cost_ns: u128,
    saturated_ns: u128,
    speedup: f64,
    cost_est: f64,
    saturated_est: f64,
    rules_applied: usize,
    improved: bool,
}

/// One rewrite workload: the cost-optimized plan against the
/// equality-saturated plan, paired sampling, with a result-equality
/// assert and the saturation report's rule-application count.
fn bench_rewrite(
    samples: usize,
    name: &'static str,
    expr: &RaExpr,
    db: &Database,
) -> RewriteRecord {
    let cost_plan = optimize(expr, db);
    let (sat_plan, report) =
        saturate_governed(expr, db, Budget::unlimited()).expect("unlimited budget never trips");
    let want = eval(&cost_plan, db).expect("cost plan evaluates");
    let got = eval(&sat_plan, db).expect("saturated plan evaluates");
    assert_eq!(want, got, "{name}: saturated plan changed the answer");
    let (cost_ns, saturated_ns, ratio) = time_paired(
        samples,
        || {
            black_box(eval(black_box(&cost_plan), black_box(db)).unwrap());
        },
        || {
            black_box(eval(black_box(&sat_plan), black_box(db)).unwrap());
        },
    );
    let est = Estimator::new(db);
    RewriteRecord {
        name,
        cost_ns,
        saturated_ns,
        speedup: 1.0 / ratio,
        cost_est: est.cost(&cost_plan),
        saturated_est: est.cost(&sat_plan),
        rules_applied: report.total_applied(),
        improved: report.improved,
    }
}

fn rewrite_json(r: &RewriteRecord) -> String {
    format!(
        concat!(
            "    {{\"workload\": \"{}\", \"cost_ns\": {}, \"saturated_ns\": {}, ",
            "\"speedup\": {:.2}, \"cost_est\": {:.0}, \"saturated_est\": {:.0}, ",
            "\"rules_applied\": {}, \"improved\": {}}}"
        ),
        r.name,
        r.cost_ns,
        r.saturated_ns,
        r.speedup,
        r.cost_est,
        r.saturated_est,
        r.rules_applied,
        r.improved
    )
}

/// A corpus formula's database: seed 0 declares its schema's relations
/// empty; any other seed fills them at random over `1..=4` plus the
/// formula's constants.
fn corpus_db(f: &Formula, seed: u64) -> Database {
    let schema = rc_formula::Schema::infer(f).expect("corpus schema");
    if seed == 0 {
        let mut d = Database::new();
        for (p, ar) in schema.predicates() {
            d.declare(p, ar);
        }
        return d;
    }
    let mut domain: Vec<Value> = (1..=4).map(Value::int).collect();
    for c in f.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed))
}

/// The `egraph` gate: the acceptance gate for the equality-saturation
/// layer ([`saturate_governed`], a library pass off the serving path).
/// Four legs, all required:
///
/// 1. **corpus bit-identity** — on every corpus plan the pipeline
///    compiles (over declared-empty and seeded random databases),
///    saturating the plan yields a plan that evaluates byte-identical to
///    the served answer;
/// 2. **never costlier** — the [`Estimator`] prices the saturated plan at
///    or below the cost planner's plan on every multi_join,
///    standard-matrix, and rewrite workload (the extraction guard's
///    contract, re-checked from outside the planner);
/// 3. **measured win** — the rewrite family's median wall-clock speedup
///    over the cost plan reaches 1.2x;
/// 4. **no regression** — a paired re-check shows the saturated plan
///    losing to the cost plan by 5% or more on no multi_join or
///    standard-matrix workload (identical plans are skipped — timing the
///    same plan twice only measures machine noise).
fn egraph_gate() -> Result<(), String> {
    // Leg 1: the plan saturated is the unoptimized one — the optimize
    // stage's own input — so the seed optimizer, every rule and
    // extraction all run on real pipeline output.
    let unoptimized = CompileOptions {
        optimize: false,
        ..CompileOptions::default()
    };
    let mut served = 0u32;
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        for seed in [0u64, 3] {
            let db = corpus_db(&f, seed);
            let ctx = format!("{} (seed {seed})", entry.id);
            let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
            let out = compile_and_eval_shared(entry.text, &db, CompileOptions::default(), &cache)
                .map_err(|e| format!("{ctx} errors: {e}"))?;
            let plan = compile_for(&f, unoptimized.clone(), &db)
                .map_err(|e| format!("{ctx} does not compile: {e}"))?
                .expr;
            let (saturated, _) = saturate_governed(&plan, &db, Budget::unlimited())
                .expect("unlimited budget never trips");
            let answer =
                eval(&saturated, &db).map_err(|e| format!("{ctx} saturated plan errors: {e}"))?;
            if answer != out.relation {
                return Err(format!(
                    "{ctx} saturated plan diverges from the served answer"
                ));
            }
            served += 1;
        }
    }
    println!("egraph gate: {served} corpus plans saturate bit-identical to the served answer");

    // Leg 2: the saturated plan is never priced above the cost plan.
    type Family = (&'static str, Database, Vec<(&'static str, RaExpr)>);
    let families: Vec<Family> = vec![
        ("multi_join", multi_join_db(), multi_join_workloads()),
        ("standard", db_for(10_000), workloads()),
        ("rewrite", rewrite_db(), rewrite_workloads()),
    ];
    for (family, db, exprs) in &families {
        let est = Estimator::new(db);
        let mut ratios: Vec<f64> = Vec::new();
        for (name, expr) in exprs {
            let cost_plan = optimize(expr, db);
            let (sat_plan, _) = saturate_governed(expr, db, Budget::unlimited())
                .expect("unlimited budget never trips");
            let (c, s) = (est.cost(&cost_plan), est.cost(&sat_plan));
            if s > c {
                return Err(format!(
                    "{family}/{name}: saturated plan priced at {s:.0} above the cost \
                     plan's {c:.0}"
                ));
            }
            ratios.push(s / c.max(1.0));
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        println!(
            "egraph gate: {family}: saturated/cost estimator price median {median:.2} \
             (gate <= 1.0 on every workload)"
        );
    }

    // Leg 3: the rewrite family must show a measured median speedup.
    let samples = 7;
    let rw_db = rewrite_db();
    let mut speedups: Vec<f64> = Vec::new();
    for (name, expr) in rewrite_workloads() {
        let r = bench_rewrite(samples, name, &expr, &rw_db);
        println!(
            "rewrite {name}: cost {:.3} ms, saturated {:.3} ms, {:.2}x, \
             {} rule application(s), improved {}",
            r.cost_ns as f64 / 1e6,
            r.saturated_ns as f64 / 1e6,
            r.speedup,
            r.rules_applied,
            r.improved
        );
        speedups.push(r.speedup);
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = speedups[speedups.len() / 2];
    println!("median rewrite speedup: {median:.2}x (gate >= 1.2x)");
    if median < 1.2 {
        return Err(format!("median rewrite speedup {median:.2}x < 1.2x"));
    }

    // Leg 4: saturation must not regress plans the cost planner already
    // gets right.
    let mut worst: f64 = 0.0;
    for (family, db, exprs) in &families[..2] {
        for (name, expr) in exprs {
            let cost_plan = optimize(expr, db);
            let (sat_plan, _) = saturate_governed(expr, db, Budget::unlimited())
                .expect("unlimited budget never trips");
            // When extraction returns the seed plan verbatim there is
            // nothing to regress — timing the same plan twice only
            // measures machine noise, which would flake the gate.
            if sat_plan == cost_plan {
                println!("egraph regression check {family}/{name}: plan unchanged");
                continue;
            }
            assert_eq!(
                eval(&cost_plan, db).unwrap(),
                eval(&sat_plan, db).unwrap(),
                "{family}/{name}: saturated plan changed the answer"
            );
            let (_, _, ratio) = time_paired(
                15,
                || {
                    black_box(eval(black_box(&cost_plan), black_box(db)).unwrap());
                },
                || {
                    black_box(eval(black_box(&sat_plan), black_box(db)).unwrap());
                },
            );
            let pct = (ratio - 1.0) * 100.0;
            println!("egraph regression check {family}/{name}: {pct:+.2}%");
            worst = worst.max(pct);
        }
    }
    println!("worst saturation regression: {worst:+.2}% (gate < 5%)");
    if worst >= 5.0 {
        return Err(format!(
            "saturation regresses an existing workload by {worst:.2}% >= 5%"
        ));
    }
    Ok(())
}

/// The repeated-query texts served through the full cached pipeline.
fn repeated_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("repeat_join", "A(x, y) & B(y, z)"),
        ("repeat_antijoin", "A(x, y) & !C(x)"),
        ("repeat_exists", "exists z. (A(x, y) & B(y, z))"),
    ]
}

/// Plans whose join subtree occurs several times, so the DAG evaluator
/// can reuse one materialization (the selects differ, so no union-dedup
/// rewrite can collapse the sharing away).
fn shared_subtree_workloads() -> Vec<(&'static str, RaExpr)> {
    let a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let b_yz = || RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]);
    let j = || RaExpr::join(a(), b_yz());
    let eq = RaExpr::select(
        j(),
        rc_relalg::SelPred::EqCols(Var::new("x"), Var::new("y")),
    );
    let neq = RaExpr::select(
        j(),
        rc_relalg::SelPred::NeqCols(Var::new("x"), Var::new("y")),
    );
    let neq_z = RaExpr::select(
        j(),
        rc_relalg::SelPred::NeqCols(Var::new("x"), Var::new("z")),
    );
    vec![
        ("shared_join_2x", RaExpr::union(eq.clone(), neq.clone())),
        (
            "shared_join_3x",
            RaExpr::union(eq, RaExpr::union(neq, neq_z)),
        ),
    ]
}

struct CacheRecord {
    name: &'static str,
    rows: usize,
    cold_ns: u128,
    warm_ns: u128,
    speedup: f64,
    warm_hits: bool,
}

/// Cold-vs-warm timing of one repeated query. Cold pays the whole
/// pipeline into a fresh cache every sample; warm serves from a cache
/// primed once against the same (unmutated) database.
fn bench_repeated_query(
    samples: usize,
    name: &'static str,
    text: &str,
    db: &Database,
    n: usize,
) -> CacheRecord {
    let cold_ns = time_median(samples, || {
        let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
        black_box(
            compile_and_eval_shared(text, db, CompileOptions::default(), &cache)
                .expect("cold serve"),
        );
    });
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    compile_and_eval_shared(text, db, CompileOptions::default(), &cache).expect("prime");
    let warm_ns = time_median(samples, || {
        black_box(
            compile_and_eval_shared(text, db, CompileOptions::default(), &cache)
                .expect("warm serve"),
        );
    });
    let check =
        compile_and_eval_shared(text, db, CompileOptions::default(), &cache).expect("warm serve");
    CacheRecord {
        name,
        rows: n,
        cold_ns,
        warm_ns,
        speedup: cold_ns as f64 / warm_ns as f64,
        warm_hits: check.plan_cached && check.result_cached,
    }
}

/// The `cache` gate: the repeated-query family must hit the result cache
/// on every warm serve with a median speedup of at least 5x.
fn cache_gate() -> Result<(), String> {
    let samples = 15;
    let n = 10_000;
    let db = db_for(n);
    let mut speedups: Vec<f64> = Vec::new();
    let mut all_hit = true;
    for (name, text) in repeated_queries() {
        let r = bench_repeated_query(samples, name, text, &db, n);
        println!(
            "repeated query {name}/{n}: cold {:.3} ms, warm {:.3} ms, {:.1}x, warm hit: {}",
            r.cold_ns as f64 / 1e6,
            r.warm_ns as f64 / 1e6,
            r.speedup,
            r.warm_hits
        );
        speedups.push(r.speedup);
        all_hit &= r.warm_hits;
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = speedups[speedups.len() / 2];
    println!("median repeated-query speedup: {median:.1}x (gate >= 5x, all warm serves must hit)");
    if !all_hit {
        return Err("a warm serve missed the result cache".into());
    }
    if median < 5.0 {
        return Err(format!("median warm speedup {median:.1}x < 5x"));
    }
    Ok(())
}

/// The update-trickle texts: warm standing queries re-served after a
/// one-row mutation. Join-heavy shapes are where maintenance pays —
/// full re-evaluation re-probes every row while the refresh probes one
/// delta row against persistent indexes; the antijoin and bare-exists
/// entries are kept as honest low-end members (their full evaluations
/// are order-preserving single passes, so the refresh's merge floor
/// caps the win).
fn update_trickle_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("trickle_join", "A(x, y) & B(y, z)"),
        ("trickle_triple", "A(x, y) & B(y, z) & C(z)"),
        ("trickle_chain", "A(x, y) & B(y, z) & B(z, w)"),
        ("trickle_antijoin", "A(x, y) & !C(x)"),
        ("trickle_exists", "exists z. (A(x, y) & B(y, z))"),
    ]
}

struct TrickleRecord {
    name: &'static str,
    rows: usize,
    delta_rows: usize,
    full_ns: u128,
    refresh_ns: u128,
    speedup: f64,
    refreshed: bool,
}

/// One update-trickle workload: two identical databases behind two
/// identically-primed caches, fed the same one-fact insert trickle, with
/// the *warm re-serve* after each fact timed on both sides. The baseline
/// side mutates through [`Database::load_facts`] — a version bump with no
/// delta journal entry, so every warm re-serve pays a full re-evaluation
/// (the pre-IVM stale-hit behavior). The variant side applies the same
/// fact through [`Database::apply_delta`], so every re-serve advances the
/// maintained view by the one-row delta. Mutations happen outside the
/// timed region (they are the same database change either way); each
/// sample times the two serves back to back and the medians are paired.
fn bench_update_trickle(samples: usize, name: &'static str, text: &str, n: usize) -> TrickleRecord {
    let mut db_full = db_for(n);
    let mut db_ivm = db_for(n);
    let cache_full: SharedPlanCache<Compiled> = SharedPlanCache::new();
    let cache_ivm: SharedPlanCache<Compiled> = SharedPlanCache::new();
    compile_and_eval_shared(text, &db_full, CompileOptions::default(), &cache_full)
        .expect("prime baseline cache");
    compile_and_eval_shared(text, &db_ivm, CompileOptions::default(), &cache_ivm)
        .expect("prime ivm cache");
    let key = (n as i64 / 3).max(1);
    let fresh = 10 * n as i64; // key range disjoint from the seeded rows
    let mut full_times: Vec<u128> = Vec::with_capacity(samples);
    let mut refresh_times: Vec<u128> = Vec::with_capacity(samples);
    let mut refreshed = true;
    // One untimed warm-up round, then the measured trickle. `i % key`
    // keeps the new fact's join key inside B's key range, so every
    // insert genuinely changes the answer.
    for i in 0..=samples as i64 {
        let fact = format!("A({}, {})", fresh + i, i % key);
        db_full.load_facts(&fact).expect("baseline mutation");
        db_ivm.apply_delta(&fact).expect("delta mutation");
        let t0 = Instant::now();
        black_box(
            compile_and_eval_shared(text, &db_full, CompileOptions::default(), &cache_full)
                .expect("full re-serve"),
        );
        let full = t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let out = compile_and_eval_shared(text, &db_ivm, CompileOptions::default(), &cache_ivm)
            .expect("delta re-serve");
        let refresh = t1.elapsed().as_nanos();
        refreshed &= out.result_refreshed;
        black_box(out);
        if i > 0 {
            full_times.push(full);
            refresh_times.push(refresh);
        }
    }
    full_times.sort_unstable();
    refresh_times.sort_unstable();
    let full_ns = full_times[full_times.len() / 2];
    let refresh_ns = refresh_times[refresh_times.len() / 2];
    TrickleRecord {
        name,
        rows: n,
        delta_rows: 1,
        full_ns,
        refresh_ns,
        speedup: full_ns as f64 / refresh_ns as f64,
        refreshed,
    }
}

/// The `ivm` gate: warm re-serves after one-row deltas must take the
/// refresh path and beat the full-re-evaluation fallback by at least 10x
/// median. The delta work is O(|Δ|·fanout), independent of core count, so
/// unlike the `par` speedup leg this gate applies on any host.
fn ivm_gate() -> Result<(), String> {
    let samples = 15;
    let n = 50_000;
    let mut speedups: Vec<f64> = Vec::new();
    let mut all_refreshed = true;
    for (name, text) in update_trickle_queries() {
        let r = bench_update_trickle(samples, name, text, n);
        println!(
            "update trickle {name}/{n}: full {:.3} ms, refresh {:.3} ms, {:.1}x, refreshed: {}",
            r.full_ns as f64 / 1e6,
            r.refresh_ns as f64 / 1e6,
            r.speedup,
            r.refreshed
        );
        speedups.push(r.speedup);
        all_refreshed &= r.refreshed;
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = speedups[speedups.len() / 2];
    println!(
        "median update-trickle speedup: {median:.1}x \
         (gate >= 10x, every delta serve must refresh)"
    );
    if !all_refreshed {
        return Err("a delta serve fell back to full re-evaluation".into());
    }
    if median < 10.0 {
        return Err(format!("median refresh speedup {median:.1}x < 10x"));
    }
    Ok(())
}

/// The any_query texts: classifier-rejected formulas over the bench
/// schema, served end to end through the safe-pair translation (both
/// legs compiled, evaluated, and cached), plus one recognized member
/// that must take the ordinary fast path through the same entry point.
fn any_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("any_negation", "!C(x)"),
        ("any_uncurable_exists", "exists y. (C(x) | C(y))"),
        ("any_forall", "forall y. (C(y) | B(x, y))"),
        ("any_fastpath_join", "A(x, y) & B(y, z)"),
    ]
}

struct AnyRecord {
    name: &'static str,
    rows: usize,
    cold_ns: u128,
    warm_ns: u128,
    speedup: f64,
    safe_pair: bool,
    maybe_infinite: bool,
    warm_hits: bool,
}

/// Cold-vs-warm timing of one safe-pair serve. Cold pays parse, both
/// legs' compilation, the augmented guard databases, and both
/// evaluations into a fresh cache every sample; warm serves both legs
/// from a cache primed against the same (unmutated) database.
fn bench_any_query(
    samples: usize,
    name: &'static str,
    text: &str,
    db: &Database,
    n: usize,
) -> AnyRecord {
    let cold_ns = time_median(samples, || {
        let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
        black_box(
            compile_and_eval_any_shared(text, db, CompileOptions::default(), &cache)
                .expect("cold any serve"),
        );
    });
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    compile_and_eval_any_shared(text, db, CompileOptions::default(), &cache).expect("prime");
    let warm_ns = time_median(samples, || {
        black_box(
            compile_and_eval_any_shared(text, db, CompileOptions::default(), &cache)
                .expect("warm any serve"),
        );
    });
    let check = compile_and_eval_any_shared(text, db, CompileOptions::default(), &cache)
        .expect("warm any serve");
    AnyRecord {
        name,
        rows: n,
        cold_ns,
        warm_ns,
        speedup: cold_ns as f64 / warm_ns as f64,
        safe_pair: check.answer.safe_pair,
        maybe_infinite: check.answer.maybe_infinite,
        warm_hits: check.plan_cached && check.result_cached,
    }
}

/// The `any` gate: the safe-pair acceptance check. Every corpus formula —
/// and in particular every classifier-rejected one — must be served by
/// `compile_and_eval_any_shared` with a finite part byte-identical to the
/// brute-force active-domain oracle, both in process and over the `any`
/// wire verb, with the infiniteness flags surviving the round trip.
fn any_gate() -> Result<(), String> {
    use rc_safety::dom_baseline::eval_brute_force;
    use rc_safety::pipeline::{classify, SafetyClass};
    use rc_serve::{Client, Response, Server, ServerConfig};

    let mut checked = 0u32;
    let mut via_pair = 0u32;
    for entry in corpus() {
        let f = formula_of(&entry);
        let rejected = classify(&f) == SafetyClass::NotRecognized;
        for seed in [0u64, 3] {
            let db = corpus_db(&f, seed);
            let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
            let out =
                compile_and_eval_any_shared(entry.text, &db, CompileOptions::default(), &cache)
                    .map_err(|e| format!("{} (seed {seed}) errors: {e}", entry.id))?;
            if out.answer.finite != eval_brute_force(&f, &db) {
                return Err(format!(
                    "{} (seed {seed}) diverges from the brute-force oracle",
                    entry.id
                ));
            }
            let server = Server::start(db.clone(), ServerConfig::default()).expect("bind server");
            let mut client = Client::connect(server.local_addr()).expect("connect client");
            match client.any(entry.text) {
                Ok(Response::Query(ok)) => {
                    if ok.relation != out.answer.finite
                        || ok.any_infinite != Some(out.answer.maybe_infinite)
                        || ok.any_infinite_vars.as_deref() != Some(&out.answer.per_variable)
                    {
                        return Err(format!(
                            "{} (seed {seed}) wire round-trip diverges \
                             (relation or infiniteness flags)",
                            entry.id
                        ));
                    }
                }
                other => {
                    return Err(format!(
                        "{} (seed {seed}) unexpected response: {other:?}",
                        entry.id
                    ));
                }
            }
            checked += 1;
            if rejected {
                via_pair += 1;
            }
        }
    }
    println!(
        "any gate: {checked} corpus serves match the oracle ({via_pair} via the safe pair), \
         infiniteness flags intact over the wire"
    );
    if via_pair == 0 {
        return Err("no classifier-rejected entries exercised".into());
    }
    Ok(())
}

/// One acceptance gate: its name, the bounds it enforces, and the check,
/// which returns `Err` naming the bound missed.
type Gate = (&'static str, &'static str, fn() -> Result<(), String>);

/// Every acceptance gate, in the order `bench_eval gates` runs them. `par`
/// runs first: its fallback-overhead leg compares two paths within a few
/// percent and is the one most sensitive to the heap state earlier gates
/// leave behind.
const GATES: [Gate; 7] = [
    (
        "par",
        "bit-identical results, fallback < 2%; 2x speedup at >= 8 cores",
        partition_gate,
    ),
    ("trace", "tracing off costs < 1% median, paired", trace_gate),
    (
        "cache",
        "warm serves hit; median repeated-query speedup >= 5x",
        cache_gate,
    ),
    (
        "opt",
        "median multi_join speedup >= 2x; no workload regresses >= 5%",
        opt_gate,
    ),
    (
        "ivm",
        "every trickle re-serve refreshes; median speedup over full re-eval >= 10x",
        ivm_gate,
    ),
    (
        "any",
        "every corpus formula serves byte-identical to the oracle, flags surviving the wire",
        any_gate,
    ),
    (
        "egraph",
        "corpus plans saturate bit-identical; saturated plans never priced above cost plans; \
         median rewrite speedup >= 1.2x; no workload regresses >= 5%",
        egraph_gate,
    ),
];

/// Run every gate and fail if any failed; a failing (or panicking) gate
/// never hides the ones after it. Never touches `BENCH_eval.json`.
fn run_gates() -> ExitCode {
    let mut failed = Vec::new();
    for (name, bounds, gate) in GATES {
        println!("==> {name} gate ({bounds})");
        let outcome = std::panic::catch_unwind(gate).unwrap_or_else(|_| Err("panicked".into()));
        if let Err(why) = outcome {
            eprintln!("{name} gate FAILED: {why}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("all {} gates passed", GATES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("failed gates: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("gates") => return run_gates(),
        Some(other) => {
            eprintln!("usage: bench_eval [gates] (unknown argument `{other}`)");
            return ExitCode::from(2);
        }
    }
    let sizes = [2_000usize, 10_000, 50_000];
    // Overheads in the low percent range need more repetitions than the
    // headline speedups do for the median to settle.
    let samples = 25;
    let mut records = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    let mut trace_overheads: Vec<f64> = Vec::new();
    let mut table = Table::new(&[
        "workload",
        "rows",
        "out rows",
        "kernel ms",
        "governed ms",
        "overhead",
        "trace-off",
        "baseline ms",
        "speedup",
    ]);
    for &n in &sizes {
        let db = db_for(n);
        for (name, expr) in workloads() {
            let out_rows = eval(&expr, &db).expect("evaluates").len();
            // Governance overhead: every limit armed (so checkpoints take
            // their full path — deadline comparison included) but set high
            // enough to never trip. Paired sampling cancels machine drift.
            let (kernel_ns, governed_ns, ratio) = time_paired(
                samples,
                || {
                    black_box(eval(black_box(&expr), black_box(&db)).unwrap());
                },
                || {
                    let budget = Budget::new()
                        .with_deadline(Duration::from_secs(3600))
                        .with_max_tuples(u64::MAX / 2)
                        .with_max_nodes(u64::MAX / 2);
                    let mut stats = EvalStats::default();
                    let (e, d) = (black_box(&expr), black_box(&db));
                    black_box(eval_traced(e, d, &mut stats, &budget, &mut Tracer::off()).unwrap());
                },
            );
            let baseline_ns = time_median(samples, || {
                black_box(eval_baseline(black_box(&expr), black_box(&db)).unwrap());
            });
            let speedup = baseline_ns as f64 / kernel_ns as f64;
            let overhead_pct = (ratio - 1.0) * 100.0;
            overheads.push(overhead_pct);
            // Tracing-off overhead: identical evaluation, disabled tracer.
            let trace_off_pct = trace_off_overhead(samples, &expr, &db);
            trace_overheads.push(trace_off_pct);
            // One traced run: per-operator self-time breakdown.
            let mut tstats = EvalStats::default();
            let mut tracer = Tracer::on();
            eval_traced(&expr, &db, &mut tstats, Budget::unlimited(), &mut tracer).unwrap();
            let root = tracer.finish().expect("traced run leaves a root span");
            let mut ops: Vec<(String, u64, usize)> = Vec::new();
            op_self_times(&root, &mut ops);
            let breakdown = ops
                .iter()
                .map(|(op, ns, rows)| {
                    format!(
                        "{{\"op\": {}, \"self_ns\": {ns}, \"rows_out\": {rows}}}",
                        json_str(op)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            table.row(vec![
                name.to_string(),
                n.to_string(),
                out_rows.to_string(),
                format!("{:.3}", kernel_ns as f64 / 1e6),
                format!("{:.3}", governed_ns as f64 / 1e6),
                format!("{overhead_pct:+.2}%"),
                format!("{trace_off_pct:+.2}%"),
                format!("{:.3}", baseline_ns as f64 / 1e6),
                format!("{speedup:.2}x"),
            ]);
            records.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"rows\": {}, \"out_rows\": {}, ",
                    "\"kernel_ns\": {}, \"governed_ns\": {}, \"overhead_pct\": {:.2}, ",
                    "\"trace_off_overhead_pct\": {:.2}, ",
                    "\"baseline_ns\": {}, \"speedup\": {:.2}, ",
                    "\"operator_breakdown\": [{}]}}"
                ),
                name,
                n,
                out_rows,
                kernel_ns,
                governed_ns,
                overhead_pct,
                trace_off_pct,
                baseline_ns,
                speedup,
                breakdown
            ));
        }
    }
    // Cache families: repeated-query serving and shared-subtree DAG eval.
    let cache_n = 10_000;
    let cache_db = db_for(cache_n);
    let mut cache_records: Vec<String> = Vec::new();
    let mut cache_speedups: Vec<f64> = Vec::new();
    let mut cache_table = Table::new(&[
        "workload", "rows", "cold ms", "warm ms", "speedup", "warm hit",
    ]);
    for (name, text) in repeated_queries() {
        let r = bench_repeated_query(samples, name, text, &cache_db, cache_n);
        cache_speedups.push(r.speedup);
        cache_table.row(vec![
            r.name.to_string(),
            r.rows.to_string(),
            format!("{:.3}", r.cold_ns as f64 / 1e6),
            format!("{:.3}", r.warm_ns as f64 / 1e6),
            format!("{:.1}x", r.speedup),
            r.warm_hits.to_string(),
        ]);
        cache_records.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"rows\": {}, \"cold_ns\": {}, ",
                "\"warm_ns\": {}, \"speedup\": {:.2}, \"warm_result_hit\": {}}}"
            ),
            r.name, r.rows, r.cold_ns, r.warm_ns, r.speedup, r.warm_hits
        ));
    }
    cache_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_cache_speedup = cache_speedups[cache_speedups.len() / 2];
    let mut shared_records: Vec<String> = Vec::new();
    let mut shared_table = Table::new(&[
        "workload",
        "rows",
        "tree ms",
        "dag ms",
        "memo hits",
        "speedup",
    ]);
    for (name, expr) in shared_subtree_workloads() {
        let tree_ns = time_median(samples, || {
            black_box(eval(black_box(&expr), black_box(&cache_db)).unwrap());
        });
        let dag_ns = time_median(samples, || {
            let mut stats = EvalStats::default();
            black_box(
                eval_shared(
                    black_box(&expr),
                    black_box(&cache_db),
                    &mut stats,
                    Budget::unlimited(),
                    &mut Tracer::off(),
                )
                .unwrap(),
            );
        });
        let mut stats = EvalStats::default();
        eval_shared(
            &expr,
            &cache_db,
            &mut stats,
            Budget::unlimited(),
            &mut Tracer::off(),
        )
        .unwrap();
        let speedup = tree_ns as f64 / dag_ns as f64;
        shared_table.row(vec![
            name.to_string(),
            cache_n.to_string(),
            format!("{:.3}", tree_ns as f64 / 1e6),
            format!("{:.3}", dag_ns as f64 / 1e6),
            stats.memo_hits.to_string(),
            format!("{speedup:.2}x"),
        ]);
        shared_records.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"rows\": {}, \"tree_ns\": {}, ",
                "\"dag_ns\": {}, \"memo_hits\": {}, \"speedup\": {:.2}}}"
            ),
            name, cache_n, tree_ns, dag_ns, stats.memo_hits, speedup
        ));
    }

    // Partition family: forced-sequential kernels vs the auto policy.
    let par_n = 150_000;
    let par_db = partition_db(par_n);
    let par_samples = 9; // each sample evaluates a 450k-row join twice
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let mut par_records: Vec<String> = Vec::new();
    let mut par_speedups: Vec<f64> = Vec::new();
    let mut par_table = Table::new(&[
        "workload",
        "rows",
        "parts",
        "seq ms",
        "par ms",
        "speedup",
        "fallback",
        "identical",
    ]);
    for (name, expr) in partition_workloads() {
        let r = bench_partition_workload(par_samples, name, &expr, &par_db, par_n);
        par_speedups.push(r.speedup);
        par_table.row(vec![
            r.name.to_string(),
            r.rows.to_string(),
            r.partitions.to_string(),
            format!("{:.3}", r.seq_ns as f64 / 1e6),
            format!("{:.3}", r.par_ns as f64 / 1e6),
            format!("{:.2}x", r.speedup),
            format!("{:+.2}%", r.fallback_overhead_pct),
            r.identical.to_string(),
        ]);
        par_records.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"rows\": {}, \"partitions\": {}, ",
                "\"seq_ns\": {}, \"par_ns\": {}, \"speedup\": {:.2}, ",
                "\"fallback_overhead_pct\": {:.2}, \"identical\": {}}}"
            ),
            r.name,
            r.rows,
            r.partitions,
            r.seq_ns,
            r.par_ns,
            r.speedup,
            r.fallback_overhead_pct,
            r.identical
        ));
    }
    par_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_par_speedup = par_speedups[par_speedups.len() / 2];

    // Multi-join planner family: heuristic plan vs cost-optimized plan.
    let mj_db = multi_join_db();
    let mj_samples = 7;
    let mut mj_records: Vec<String> = Vec::new();
    let mut mj_speedups: Vec<f64> = Vec::new();
    let mut mj_table = Table::new(&[
        "workload",
        "heuristic ms",
        "optimized ms",
        "speedup",
        "chosen order",
        "est rows",
        "actual",
        "est err",
    ]);
    for (name, expr) in multi_join_workloads() {
        let r = bench_multi_join(mj_samples, name, &expr, &mj_db);
        mj_speedups.push(r.speedup);
        mj_table.row(vec![
            r.name.to_string(),
            format!("{:.3}", r.heuristic_ns as f64 / 1e6),
            format!("{:.3}", r.optimized_ns as f64 / 1e6),
            format!("{:.2}x", r.speedup),
            r.chosen_order.join(" "),
            r.est_rows.to_string(),
            r.actual_rows.to_string(),
            format!("{:.2}x", r.est_error_factor),
        ]);
        mj_records.push(multi_join_json(&r));
    }
    mj_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_mj_speedup = mj_speedups[mj_speedups.len() / 2];

    // Rewrite family: cost-optimized plan vs equality-saturated plan on
    // shared-leg factoring shapes.
    let rw_db = rewrite_db();
    let rw_samples = 7;
    let mut rw_records: Vec<String> = Vec::new();
    let mut rw_speedups: Vec<f64> = Vec::new();
    let mut rw_table = Table::new(&[
        "workload",
        "cost ms",
        "saturated ms",
        "speedup",
        "cost est",
        "saturated est",
        "rules",
        "improved",
    ]);
    for (name, expr) in rewrite_workloads() {
        let r = bench_rewrite(rw_samples, name, &expr, &rw_db);
        rw_speedups.push(r.speedup);
        rw_table.row(vec![
            r.name.to_string(),
            format!("{:.3}", r.cost_ns as f64 / 1e6),
            format!("{:.3}", r.saturated_ns as f64 / 1e6),
            format!("{:.2}x", r.speedup),
            format!("{:.0}", r.cost_est),
            format!("{:.0}", r.saturated_est),
            r.rules_applied.to_string(),
            r.improved.to_string(),
        ]);
        rw_records.push(rewrite_json(&r));
    }
    rw_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_rw_speedup = rw_speedups[rw_speedups.len() / 2];

    // Update-trickle family: full re-evaluation vs delta refresh after
    // one-row mutations to a warm standing query.
    let trickle_n = 10_000;
    let trickle_samples = 9;
    let mut trickle_records: Vec<String> = Vec::new();
    let mut trickle_speedups: Vec<f64> = Vec::new();
    let mut trickle_table = Table::new(&[
        "workload",
        "rows",
        "delta",
        "full ms",
        "refresh ms",
        "speedup",
        "refreshed",
    ]);
    for (name, text) in update_trickle_queries() {
        let r = bench_update_trickle(trickle_samples, name, text, trickle_n);
        trickle_speedups.push(r.speedup);
        trickle_table.row(vec![
            r.name.to_string(),
            r.rows.to_string(),
            r.delta_rows.to_string(),
            format!("{:.3}", r.full_ns as f64 / 1e6),
            format!("{:.3}", r.refresh_ns as f64 / 1e6),
            format!("{:.1}x", r.speedup),
            r.refreshed.to_string(),
        ]);
        trickle_records.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"rows\": {}, \"delta_rows\": {}, ",
                "\"full_ns\": {}, \"refresh_ns\": {}, \"speedup\": {:.2}, ",
                "\"refreshed\": {}}}"
            ),
            r.name, r.rows, r.delta_rows, r.full_ns, r.refresh_ns, r.speedup, r.refreshed
        ));
    }
    trickle_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_trickle_speedup = trickle_speedups[trickle_speedups.len() / 2];

    // Any-query family: safe-pair serving of classifier-rejected
    // formulas, cold (both legs compiled + evaluated) vs warm (both legs
    // cached).
    let any_n = 2_000;
    let any_db = db_for(any_n);
    let any_samples = 9;
    let mut any_records: Vec<String> = Vec::new();
    let mut any_speedups: Vec<f64> = Vec::new();
    let mut any_table = Table::new(&[
        "workload",
        "rows",
        "cold ms",
        "warm ms",
        "speedup",
        "safe pair",
        "infinite",
        "warm hit",
    ]);
    for (name, text) in any_queries() {
        let r = bench_any_query(any_samples, name, text, &any_db, any_n);
        any_speedups.push(r.speedup);
        any_table.row(vec![
            r.name.to_string(),
            r.rows.to_string(),
            format!("{:.3}", r.cold_ns as f64 / 1e6),
            format!("{:.3}", r.warm_ns as f64 / 1e6),
            format!("{:.1}x", r.speedup),
            r.safe_pair.to_string(),
            r.maybe_infinite.to_string(),
            r.warm_hits.to_string(),
        ]);
        any_records.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"rows\": {}, \"cold_ns\": {}, ",
                "\"warm_ns\": {}, \"speedup\": {:.2}, \"safe_pair\": {}, ",
                "\"maybe_infinite\": {}, \"warm_result_hit\": {}}}"
            ),
            r.name,
            r.rows,
            r.cold_ns,
            r.warm_ns,
            r.speedup,
            r.safe_pair,
            r.maybe_infinite,
            r.warm_hits
        ));
    }
    any_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_any_speedup = any_speedups[any_speedups.len() / 2];

    println!("=== E-ENGINE: batch kernels vs tuple-at-a-time baseline ===\n");
    println!("{}", table.render());
    println!("=== repeated-query serving: cold vs cached ===\n");
    println!("{}", cache_table.render());
    println!("median repeated-query speedup: {median_cache_speedup:.1}x (target >= 5x)");
    println!("\n=== shared-subtree plans: tree eval vs memoizing DAG eval ===\n");
    println!("{}", shared_table.render());
    println!("=== partition family: sequential kernels vs auto-partitioned ===\n");
    println!("{}", par_table.render());
    println!(
        "median partitioned speedup: {median_par_speedup:.2}x \
         ({cores} core(s); 2x gate applies at >= 8 cores)"
    );
    println!("\n=== multi_join family: heuristic plan vs cost-based planner ===\n");
    println!("{}", mj_table.render());
    println!("median multi_join speedup: {median_mj_speedup:.2}x (target >= 2x)");
    println!("\n=== rewrite family: cost-based plan vs equality-saturated plan ===\n");
    println!("{}", rw_table.render());
    println!("median rewrite speedup: {median_rw_speedup:.2}x (target >= 1.2x)");
    println!("\n=== update_trickle family: full re-evaluation vs delta refresh ===\n");
    println!("{}", trickle_table.render());
    println!("median update-trickle speedup: {median_trickle_speedup:.1}x (target >= 10x)");
    println!("\n=== any_query family: safe-pair serving, cold vs warm ===\n");
    println!("{}", any_table.render());
    println!("median any-query warm speedup: {median_any_speedup:.1}x");
    overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_overhead = overheads[overheads.len() / 2];
    println!("median governance overhead across workloads: {median_overhead:+.2}% (target < 2%)");
    trace_overheads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_trace_off = trace_overheads[trace_overheads.len() / 2];
    println!("median tracing-off overhead across workloads: {median_trace_off:+.2}% (target < 1%)");

    let json = format!(
        "{{\n  \"experiment\": \"E-ENGINE\",\n  \"command\": \"cargo run --release -p rc-bench --bin bench_eval\",\n  \"samples\": {samples},\n  \"time_unit\": \"ns (median per evaluation)\",\n  \"governance_overhead_target_pct\": 2.0,\n  \"median_governance_overhead_pct\": {median_overhead:.2},\n  \"trace_off_overhead_target_pct\": 1.0,\n  \"median_trace_off_overhead_pct\": {median_trace_off:.2},\n  \"repeated_query_speedup_target\": 5.0,\n  \"median_repeated_query_speedup\": {median_cache_speedup:.2},\n  \"partition_speedup_target\": 2.0,\n  \"partition_speedup_gate_min_cores\": 8,\n  \"cores\": {cores},\n  \"median_partition_speedup\": {median_par_speedup:.2},\n  \"multi_join_speedup_target\": 2.0,\n  \"median_multi_join_speedup\": {median_mj_speedup:.2},\n  \"rewrite_speedup_target\": 1.2,\n  \"median_rewrite_speedup\": {median_rw_speedup:.2},\n  \"update_trickle_speedup_target\": 10.0,\n  \"median_update_trickle_speedup\": {median_trickle_speedup:.2},\n  \"median_any_query_warm_speedup\": {median_any_speedup:.2},\n  \"results\": [\n{}\n  ],\n  \"repeated_query_results\": [\n{}\n  ],\n  \"shared_subtree_results\": [\n{}\n  ],\n  \"partition_results\": [\n{}\n  ],\n  \"multi_join_results\": [\n{}\n  ],\n  \"rewrite_results\": [\n{}\n  ],\n  \"update_trickle_results\": [\n{}\n  ],\n  \"any_query_results\": [\n{}\n  ]\n}}\n",
        records.join(",\n"),
        cache_records.join(",\n"),
        shared_records.join(",\n"),
        par_records.join(",\n"),
        mj_records.join(",\n"),
        rw_records.join(",\n"),
        trickle_records.join(",\n"),
        any_records.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    std::fs::write(path, &json).expect("write BENCH_eval.json");
    println!("wrote {path}");
    ExitCode::SUCCESS
}
