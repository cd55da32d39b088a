//! Tracing properties: observation must not perturb the observed.
//!
//! For random evaluable formulas and databases:
//!
//! * traced and untraced evaluation return **bit-identical** relations and
//!   identical [`EvalStats`];
//! * the root span's subtree tuple total equals
//!   [`EvalStats::tuples_produced`], and its span count equals
//!   [`EvalStats::operators`];
//! * every operator span's output cardinality equals the relation its
//!   subtree actually produced (checked by re-evaluating each subtree);
//! * the deterministic trace projection is identical under parallel and
//!   sequential evaluation (spawn denial via the fault injector).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{eval_traced, EvalStats, OpSpan, Tracer};
use rcsafe::safety::pipeline::compile;
use rcsafe::{Budget, Database, FaultInjector, Formula, RaExpr, Schema, Value, Var};

fn allowed_sample(seed: u64) -> Formula {
    let cfg = GenConfig::default();
    rectified(&random_allowed_formula(
        &cfg,
        &[Var::new("x"), Var::new("y")],
        &mut StdRng::seed_from_u64(seed),
        3,
    ))
}

fn random_db_for(f: &Formula, seed: u64) -> Database {
    let schema = Schema::infer(f).expect("consistent");
    let mut domain: Vec<Value> = (1..=4).map(Value::int).collect();
    for c in f.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed))
}

/// Walk the span tree and the expression tree in lockstep (they mirror by
/// construction) asserting each span's `rows_out` equals the cardinality
/// of the relation its subtree evaluates to.
fn check_span_cardinalities(
    span: &OpSpan,
    expr: &RaExpr,
    db: &Database,
) -> Result<(), TestCaseError> {
    let mut stats = EvalStats::default();
    let rel = eval_traced(
        expr,
        db,
        &mut stats,
        Budget::unlimited(),
        &mut Tracer::off(),
    )
    .expect("subtree evaluates");
    prop_assert!(span.completed, "span {} incomplete on a clean run", span.op);
    prop_assert_eq!(
        span.rows_out,
        rel.len(),
        "span {} records {} rows, subtree produces {}",
        &span.op,
        span.rows_out,
        rel.len()
    );
    prop_assert!(
        span.raw_rows >= span.rows_out as u64,
        "span {}: raw {} < out {}",
        &span.op,
        span.raw_rows,
        span.rows_out
    );
    let children = expr.children();
    prop_assert_eq!(span.children.len(), children.len(), "arity of {}", &span.op);
    for (cs, ce) in span.children.iter().zip(children) {
        check_span_cardinalities(cs, ce, db)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tracing is a pure observer: identical relation, identical stats.
    #[test]
    fn traced_and_untraced_agree(seed in 0u64..4_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let c = compile(&f).expect("allowed formulas compile");
        let db = random_db_for(&f, seed + 11);
        let mut plain_stats = EvalStats::default();
        let plain = c
            .run_traced(&db, &mut plain_stats, Budget::unlimited(), &mut Tracer::off())
            .expect("untraced evaluation succeeds");
        let mut traced_stats = EvalStats::default();
        let mut tracer = Tracer::on();
        let traced = c
            .run_traced(&db, &mut traced_stats, Budget::unlimited(), &mut tracer)
            .expect("traced evaluation succeeds");
        prop_assert_eq!(&traced, &plain, "traced relation differs: {}", &f);
        prop_assert_eq!(traced.to_string(), plain.to_string());
        prop_assert_eq!(traced_stats, plain_stats, "stats differ: {}", &f);

        // The span tree totals reconcile with the stats counters.
        let root = tracer.finish().expect("traced run leaves a root span");
        prop_assert_eq!(root.total_rows_out(), traced_stats.tuples_produced, "{}", &f);
        prop_assert_eq!(root.span_count() as u64, traced_stats.operators, "{}", &f);
        prop_assert_eq!(root.rows_out, plain.len(), "root cardinality: {}", &f);
        prop_assert!(root.completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every span's recorded output cardinality is the true cardinality of
    /// the subtree it observed (re-evaluated independently).
    #[test]
    fn span_cardinalities_are_true(seed in 0u64..2_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 40);
        let c = compile(&f).expect("compiles");
        let db = random_db_for(&f, seed + 23);
        // Evaluate against the prepared database (missing predicates
        // declared) exactly as run_traced does internally.
        let mut prepared = db.clone();
        for (p, arity) in c.original.predicates() {
            prepared.declare(p, arity);
        }
        let mut stats = EvalStats::default();
        let mut tracer = Tracer::on();
        eval_traced(&c.expr, &prepared, &mut stats, Budget::unlimited(), &mut tracer)
            .expect("evaluates");
        let root = tracer.finish().expect("root span");
        check_span_cardinalities(&root, &c.expr, &prepared)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The deterministic projection is independent of the parallel path:
    /// denying thread spawns (sequential fallback) yields a byte-identical
    /// projection, and the relations and stats agree too.
    #[test]
    fn projection_is_parallel_invariant(seed in 0u64..2_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let c = compile(&f).expect("compiles");
        let db = random_db_for(&f, seed + 31);

        let mut par_stats = EvalStats::default();
        let mut par_tr = Tracer::on();
        let par = c
            .run_traced(&db, &mut par_stats, Budget::unlimited(), &mut par_tr)
            .expect("parallel-capable run succeeds");

        let fault = FaultInjector::new();
        fault.deny_thread_spawn(true);
        let budget = Budget::new().with_fault_injector(fault);
        let mut seq_stats = EvalStats::default();
        let mut seq_tr = Tracer::on();
        let seq = c
            .run_traced(&db, &mut seq_stats, &budget, &mut seq_tr)
            .expect("sequential run succeeds");

        prop_assert_eq!(par, seq, "relations differ: {}", &f);
        prop_assert_eq!(par_stats, seq_stats, "stats differ: {}", &f);
        let par_proj = span_projection(&par_tr.finish().unwrap());
        let seq_proj = span_projection(&seq_tr.finish().unwrap());
        prop_assert_eq!(par_proj, seq_proj, "projections differ: {}", &f);
    }
}

/// The operator-level deterministic projection (what
/// `PipelineTrace::deterministic` prints for the eval tree).
fn span_projection(root: &OpSpan) -> String {
    fn go(s: &OpSpan, depth: usize, out: &mut String) {
        let ins: Vec<String> = s.rows_in.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "{}{} in=[{}] out={} raw={}\n",
            "  ".repeat(depth),
            s.op,
            ins.join(","),
            s.rows_out,
            s.raw_rows
        ));
        for c in &s.children {
            go(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    go(root, 0, &mut out);
    out
}
