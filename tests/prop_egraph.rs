//! Differential suite for equality saturation: saturating a compiled plan
//! must be *observationally identical* to the cost-based plan and the
//! heuristic plan — same relation, same answer-column order — across the
//! paper corpus and generated allowed formulas, including under forced
//! partitioning and budget cancellation. Plus the per-rule soundness
//! properties (each registered rewrite preserves answers on random
//! databases over its trigger shape) and the extraction-never-costlier
//! invariant backing the `egraph` gate of `bench_eval gates`.

#![recursion_limit = "512"]

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::govern::Stage;
use rcsafe::relalg::{
    eval, eval_traced, optimize, plan_hash, rules, saturate_governed, simplify, Estimator,
    EvalStats, RaExpr, SelPred, Tracer,
};
use rcsafe::safety::corpus::{corpus, formula_of};
use rcsafe::safety::pipeline::{compile_for, compile_with, CompileOptions, Compiled};
use rcsafe::{Budget, Database, Schema, Term, Value, Var};

/// A reproducible database over a formula's inferred schema. Seed 0 is the
/// empty database, so vacuous plans stay covered.
fn db_for(f: &rcsafe::Formula, seed: u64) -> Database {
    let schema = Schema::infer(f).expect("consistent arities");
    let mut domain: Vec<Value> = (1..=4).map(Value::int).collect();
    for c in f.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    if seed == 0 {
        let mut d = Database::new();
        for (p, ar) in schema.predicates() {
            d.declare(p, ar);
        }
        d
    } else {
        Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed))
    }
}

/// Unbounded saturation of `e` against `db`'s statistics.
fn saturate_unlimited(e: &RaExpr, db: &Database) -> RaExpr {
    saturate_governed(e, db, Budget::unlimited())
        .expect("unlimited budget never trips")
        .0
}

/// Plan `f` three ways: heuristic-only (no database statistics),
/// cost-based against `db`, and the cost-based plan equality-saturated
/// against `db`.
fn three_plans(f: &rcsafe::Formula, db: &Database) -> Option<(Compiled, Compiled, RaExpr)> {
    let heuristic = compile_with(f, CompileOptions::default()).ok()?;
    let cost = compile_for(f, CompileOptions::default(), db).ok()?;
    let saturated = saturate_unlimited(&cost.expr, db);
    Some((heuristic, cost, saturated))
}

/// All three plans must expose the same answer columns and produce the
/// identical relation on `db`.
fn assert_three_way(h: &Compiled, c: &Compiled, s: &RaExpr, db: &Database, ctx: &str) {
    assert_eq!(h.columns, c.columns, "{ctx}: cost planner changed columns");
    assert_eq!(h.columns, s.cols(), "{ctx}: saturation changed columns");
    let baseline = eval(&h.expr, db).expect("heuristic plan evaluates");
    let costed = eval(&c.expr, db).expect("cost plan evaluates");
    let saturated = eval(s, db).expect("saturated plan evaluates");
    assert_eq!(
        baseline, costed,
        "{ctx}: cost plan diverged\nheuristic: {}\ncost: {}",
        h.expr, c.expr
    );
    assert_eq!(
        baseline, saturated,
        "{ctx}: saturated plan diverged\nheuristic: {}\nsaturated: {s}",
        h.expr
    );
}

/// Every wide-sense corpus entry: saturated ≡ cost-based ≡ heuristic on
/// empty and random databases, and the saturated plan is never estimated
/// costlier than the cost-based one.
#[test]
fn corpus_saturated_plans_match_heuristic_and_cost_plans() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        for seed in [0u64, 1, 2, 7] {
            let db = db_for(&f, seed);
            let Some((h, c, s)) = three_plans(&f, &db) else {
                continue;
            };
            let ctx = format!("{} seed {seed}", entry.id);
            assert_three_way(&h, &c, &s, &db, &ctx);
            let est = Estimator::new(&db);
            assert!(
                est.cost(&s) <= est.cost(&c.expr),
                "{ctx}: saturation chose a costlier plan\ncost: {}\nsaturated: {s}",
                c.expr
            );
        }
    }
}

/// Forced partitioning must not interact with saturation: for every
/// corpus entry and partition count 1..=4 the saturated plan still equals
/// the heuristic answer.
#[test]
fn corpus_saturated_plans_survive_forced_partitioning() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        let db = db_for(&f, 7);
        let Some((h, _, s)) = three_plans(&f, &db) else {
            continue;
        };
        let baseline = eval(&h.expr, &db).expect("heuristic plan evaluates");
        for parts in 1..=4usize {
            let budget = Budget::new().with_partitions(parts);
            let mut stats = EvalStats::default();
            let out = eval_traced(&s, &db, &mut stats, &budget, &mut Tracer::off())
                .expect("saturated plan evaluates under forced partitioning");
            assert_eq!(
                out, baseline,
                "{}: saturated plan diverged at {parts} partition(s)",
                entry.id
            );
        }
    }
}

/// A budget cancelled before saturation starts stops it in the Optimize
/// stage — saturating a compiled corpus plan errors rather than returning
/// a plan built under a dead budget.
#[test]
fn corpus_saturation_honors_cancelled_budgets() {
    for entry in corpus().iter().filter(|e| e.wide_sense).take(6) {
        let f = formula_of(entry);
        let db = db_for(&f, 7);
        let compiled = compile_for(&f, CompileOptions::default(), &db).expect("corpus compiles");
        let budget = Budget::new();
        budget.cancel_handle().cancel();
        let out = saturate_governed(&compiled.expr, &db, &budget);
        assert!(
            out.is_err(),
            "{}: saturation ignored a pre-cancelled budget",
            entry.id
        );
        assert_eq!(out.unwrap_err().stage, Stage::Optimize, "{}", entry.id);
    }
}

/// A random plan mixing every operator. Invariant: every subplan has
/// columns exactly `[x, y]`, so unions stay arity-aligned, selections
/// always see their column, and diff right sides are the narrower/equal
/// operands the evaluator accepts.
fn random_plan(rng: &mut StdRng, depth: usize) -> RaExpr {
    let scan_a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let scan_b = || RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]);
    let scan_c = || RaExpr::scan("C", vec![Term::var("y")]);
    if depth == 0 {
        return match rng.gen_range(0..3) {
            0 => scan_a(),
            1 => scan_b(),
            _ => RaExpr::join(scan_a(), scan_c()),
        };
    }
    match rng.gen_range(0..8) {
        0 => RaExpr::join(random_plan(rng, depth - 1), random_plan(rng, depth - 1)),
        1 => RaExpr::union(random_plan(rng, depth - 1), random_plan(rng, depth - 1)),
        2 => RaExpr::diff(random_plan(rng, depth - 1), scan_c()),
        3 => RaExpr::diff(
            random_plan(rng, depth - 1),
            RaExpr::project(random_plan(rng, depth - 1), vec![Var::new("y")]),
        ),
        4 => RaExpr::select(
            random_plan(rng, depth - 1),
            match rng.gen_range(0..3) {
                0 => SelPred::EqCols(Var::new("x"), Var::new("y")),
                1 => SelPred::EqConst(Var::new("y"), Value::int(rng.gen_range(0..6))),
                _ => SelPred::NeqConst(Var::new("x"), Value::int(rng.gen_range(0..6))),
            },
        ),
        5 => RaExpr::join(RaExpr::Unit, random_plan(rng, depth - 1)),
        6 => RaExpr::union(
            random_plan(rng, depth - 1),
            RaExpr::Empty {
                cols: vec![Var::new("x"), Var::new("y")],
            },
        ),
        _ => RaExpr::join(random_plan(rng, depth - 1), scan_c()),
    }
}

/// A small skewed fixture database so the cost model has real statistics
/// to read (A large, B medium, C tiny).
fn stats_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut facts = String::new();
    for i in 0..40i64 {
        facts.push_str(&format!("A({}, {})\n", i, rng.gen_range(0..8)));
    }
    for i in 0..12i64 {
        facts.push_str(&format!("B({}, {})\n", rng.gen_range(0..8), i % 5));
    }
    facts.push_str("C(1)\nC(3)\n");
    db.load_facts(&facts).expect("fixture facts load");
    db
}

/// Generated allowed formulas: the saturated plan agrees with the
/// cost-based and heuristic plans, sequentially and under forced
/// partitioning.
fn check_generated_formula(seed: u64) {
    let cfg = GenConfig::default();
    let f = rectified(&random_allowed_formula(
        &cfg,
        &[Var::new("x")],
        &mut StdRng::seed_from_u64(seed),
        3,
    ));
    let db = db_for(&f, seed | 1);
    let Some((h, c, s)) = three_plans(&f, &db) else {
        return;
    };
    assert_three_way(&h, &c, &s, &db, &format!("gen seed {seed}"));
    let baseline = eval(&h.expr, &db).expect("heuristic plan evaluates");
    let budget = Budget::new().with_partitions(1 + (seed as usize % 4));
    let mut stats = EvalStats::default();
    let partitioned = eval_traced(&s, &db, &mut stats, &budget, &mut Tracer::off())
        .expect("saturated plan evaluates partitioned");
    assert_eq!(
        partitioned, baseline,
        "gen seed {seed}: partitioned saturated eval diverged"
    );
}

/// On raw random plans, saturation preserves answers (and the column
/// order, which it restores itself) and is never estimated costlier than
/// either the cost-based or the heuristic planner — the gate's invariant,
/// as a property.
fn check_never_costlier(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let e = random_plan(&mut rng, 4);
    let db = stats_db(seed);
    let s = saturate_unlimited(&e, &db);
    assert_eq!(
        s.cols(),
        e.cols(),
        "saturate changed the column order of {e}"
    );
    assert_eq!(
        eval(&s, &db).expect("saturated plan evaluates"),
        eval(&e, &db).expect("raw plan evaluates"),
        "saturation changed answers on {e}"
    );
    let est = Estimator::new(&db);
    assert!(
        est.cost(&s) <= est.cost(&optimize(&e, &db)),
        "saturation beat by the cost planner on {e}"
    );
    assert!(
        est.cost(&s) <= est.cost(&simplify(&e)),
        "saturation beat by the heuristic simplifier on {e}"
    );
}

/// Saturation is plan-hash stable: re-saturating its own output returns
/// the same plan (the seed optimizer is idempotent and the never-costlier
/// gate is strict, so nothing can change twice).
fn check_hash_stable(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let e = random_plan(&mut rng, 3);
    let db = stats_db(seed);
    let once = saturate_unlimited(&e, &db);
    let twice = saturate_unlimited(&once, &db);
    assert_eq!(
        plan_hash(&twice),
        plan_hash(&once),
        "re-saturating changed the plan: {once} -> {twice}"
    );
}

/// A tight node budget never corrupts the plan: the run either errors
/// (budget smaller than the seed plan) or returns a plan with the
/// baseline answer.
fn check_node_budget(seed: u64, max_nodes: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let e = random_plan(&mut rng, 3);
    let db = stats_db(seed);
    let budget = Budget::new().with_max_nodes(max_nodes);
    match saturate_governed(&e, &db, &budget) {
        Err(_) => {} // seed plan alone exceeded the bound
        Ok((s, _)) => assert_eq!(
            eval(&s, &db).expect("bounded saturated plan evaluates"),
            eval(&e, &db).expect("raw plan evaluates"),
            "bounded saturation changed answers on {e}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_formulas_saturate_soundly(seed in 0u64..10_000) {
        check_generated_formula(seed);
    }

    #[test]
    fn saturation_never_costlier_and_answer_preserving(seed in 0u64..10_000) {
        check_never_costlier(seed);
    }

    #[test]
    fn saturate_is_plan_hash_stable(seed in 0u64..10_000) {
        check_hash_stable(seed);
    }

    #[test]
    fn saturation_under_node_budgets_errs_or_agrees(seed in 0u64..10_000) {
        check_node_budget(seed, 1 + seed % 64);
    }
}

// ------------------------------------------- per-rule soundness shapes --

/// Evaluate `plan` raw and saturated on a family of random databases and
/// require identical answers, and when `require_fire` is set also assert
/// the named rule actually applied during saturation. Rules whose trigger
/// shapes the seed optimizer normalizes away before the e-graph is built
/// (the selection pushdowns, projection narrowing) verify the documented
/// equivalence via [`assert_rule_equivalence`] instead and skip the
/// firing assertion here.
fn assert_rule_sound(
    plan: &RaExpr,
    rule: &str,
    require_fire: bool,
    mk_db: impl Fn(u64) -> Database,
) {
    let mut fired_somewhere = false;
    for seed in [1u64, 2, 5, 11] {
        let db = mk_db(seed);
        let (s, report) =
            saturate_governed(plan, &db, Budget::unlimited()).expect("unlimited saturation");
        let fired = report
            .applied
            .iter()
            .find(|(n, _)| *n == rule)
            .unwrap_or_else(|| panic!("rule {rule} not registered"))
            .1;
        fired_somewhere |= fired > 0;
        assert_eq!(
            eval(&s, &db).expect("saturated plan evaluates"),
            eval(plan, &db).expect("raw plan evaluates"),
            "rule {rule}: saturation changed answers on {plan} (seed {seed})"
        );
    }
    if require_fire {
        assert!(
            fired_somewhere,
            "rule {rule} never fired on its trigger shape {plan}"
        );
    }
}

/// The direct per-rule soundness property: the rule's left- and
/// right-hand sides, built by hand exactly as the catalog documents
/// them, evaluate to the same relation on a family of random databases
/// (right side projected onto the left's column order where the rewrite
/// reorders columns, mirroring saturation's own alignment step).
fn assert_rule_equivalence(
    lhs: &RaExpr,
    rhs: &RaExpr,
    rule: &str,
    mk_db: impl Fn(u64) -> Database,
) {
    for seed in [1u64, 2, 5, 11] {
        let db = mk_db(seed);
        let l = eval(lhs, &db).expect("lhs evaluates");
        let aligned = if rhs.cols() == lhs.cols() {
            rhs.clone()
        } else {
            RaExpr::project(rhs.clone(), lhs.cols())
        };
        let r = eval(&aligned, &db).expect("rhs evaluates");
        assert_eq!(l, r, "rule {rule}: {lhs} != {rhs} (seed {seed})");
    }
}

fn rule_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut facts = String::new();
    for _ in 0..15 {
        facts.push_str(&format!(
            "A({}, {})\n",
            rng.gen_range(0..6),
            rng.gen_range(0..4)
        ));
        facts.push_str(&format!(
            "B({}, {})\n",
            rng.gen_range(0..6),
            rng.gen_range(0..4)
        ));
    }
    for _ in 0..30 {
        facts.push_str(&format!(
            "C({}, {})\n",
            rng.gen_range(0..4),
            rng.gen_range(0..9)
        ));
    }
    db.load_facts(&facts).expect("rule fixture facts load");
    db
}

fn xy(p: &str) -> RaExpr {
    RaExpr::scan(p, vec![Term::var("x"), Term::var("y")])
}

fn yz(p: &str) -> RaExpr {
    RaExpr::scan(p, vec![Term::var("y"), Term::var("z")])
}

#[test]
fn rule_select_push_join_is_sound() {
    let pred = SelPred::NeqConst(Var::new("z"), Value::int(3));
    let lhs = RaExpr::select(RaExpr::join(xy("A"), yz("C")), pred);
    let rhs = RaExpr::join(xy("A"), RaExpr::select(yz("C"), pred));
    assert_rule_equivalence(&lhs, &rhs, "select-push-join", rule_db);
    assert_rule_sound(&lhs, "select-push-join", false, rule_db);
}

#[test]
fn rule_select_push_union_is_sound() {
    let pred = SelPred::EqConst(Var::new("x"), Value::int(2));
    let lhs = RaExpr::select(RaExpr::union(xy("A"), xy("B")), pred);
    let rhs = RaExpr::union(RaExpr::select(xy("A"), pred), RaExpr::select(xy("B"), pred));
    assert_rule_equivalence(&lhs, &rhs, "select-push-union", rule_db);
    assert_rule_sound(&lhs, "select-push-union", false, rule_db);
}

#[test]
fn rule_select_push_diff_is_sound() {
    let pred = SelPred::NeqConst(Var::new("x"), Value::int(2));
    let lhs = RaExpr::select(RaExpr::diff(xy("A"), xy("B")), pred);
    let rhs = RaExpr::diff(RaExpr::select(xy("A"), pred), xy("B"));
    assert_rule_equivalence(&lhs, &rhs, "select-push-diff", rule_db);
    assert_rule_sound(&lhs, "select-push-diff", false, rule_db);
    // The right-side push is NOT an equivalence: the classic
    // counterexample A = {1, 2}, B = {2}, p = (x ≠ 2) separates them.
    let db = Database::from_facts("A(1)\nA(2)\nB(2)").unwrap();
    let x = || RaExpr::scan("A", vec![Term::var("x")]);
    let b = || RaExpr::scan("B", vec![Term::var("x")]);
    let p = SelPred::NeqConst(Var::new("x"), Value::int(2));
    let sound = RaExpr::select(RaExpr::diff(x(), b()), p);
    let unsound = RaExpr::diff(x(), RaExpr::select(b(), p));
    assert_ne!(
        eval(&sound, &db).unwrap(),
        eval(&unsound, &db).unwrap(),
        "right-side diff pushdown must stay unregistered: it is not an equivalence"
    );
}

#[test]
fn rule_union_factor_is_sound() {
    let lhs = RaExpr::union(
        RaExpr::join(xy("A"), yz("C")),
        RaExpr::join(xy("B"), yz("C")),
    );
    let rhs = RaExpr::join(RaExpr::union(xy("A"), xy("B")), yz("C"));
    assert_rule_equivalence(&lhs, &rhs, "union-factor", rule_db);
    assert_rule_sound(&lhs, "union-factor", true, rule_db);
}

#[test]
fn rule_diff_distribute_is_sound() {
    let lhs = RaExpr::union(
        RaExpr::diff(xy("A"), xy("C")),
        RaExpr::diff(xy("B"), xy("C")),
    );
    let rhs = RaExpr::diff(RaExpr::union(xy("A"), xy("B")), xy("C"));
    assert_rule_equivalence(&lhs, &rhs, "diff-distribute", rule_db);
    assert_rule_sound(&lhs, "diff-distribute", true, rule_db);
}

#[test]
fn rule_project_narrow_is_sound() {
    let lhs = RaExpr::project(RaExpr::join(xy("A"), yz("C")), vec![Var::new("x")]);
    let rhs = RaExpr::project(
        RaExpr::join(xy("A"), RaExpr::project(yz("C"), vec![Var::new("y")])),
        vec![Var::new("x")],
    );
    assert_rule_equivalence(&lhs, &rhs, "project-narrow", rule_db);
    assert_rule_sound(&lhs, "project-narrow", false, rule_db);
}

#[test]
fn rule_join_commute_and_associate_are_sound() {
    let commute_lhs = RaExpr::join(xy("A"), yz("C"));
    let commute_rhs = RaExpr::join(yz("C"), xy("A"));
    assert_rule_equivalence(&commute_lhs, &commute_rhs, "join-commute", rule_db);
    let assoc_lhs = RaExpr::join(RaExpr::join(xy("A"), yz("C")), xy("B"));
    let assoc_rhs = RaExpr::join(xy("A"), RaExpr::join(yz("C"), xy("B")));
    assert_rule_equivalence(&assoc_lhs, &assoc_rhs, "join-associate", rule_db);
    assert_rule_sound(&assoc_lhs, "join-commute", true, rule_db);
    assert_rule_sound(&assoc_lhs, "join-associate", true, rule_db);
}

/// Every registered rule is exercised by a soundness test above: keep
/// this list in sync so a newly registered rule cannot land untested.
#[test]
fn every_registered_rule_has_a_soundness_shape() {
    let covered = [
        "select-push-join",
        "select-push-union",
        "select-push-diff",
        "union-factor",
        "diff-distribute",
        "project-narrow",
        "join-commute",
        "join-associate",
    ];
    for rule in rules() {
        assert!(
            covered.contains(&rule.name),
            "registered rule {} has no per-rule soundness test",
            rule.name
        );
    }
    assert_eq!(covered.len(), rules().len());
}
