//! Differential tests for the safe-pair evaluation of *arbitrary*
//! formulas (`compile_and_eval_any_shared`): on finite databases the
//! finite part must equal both active-domain oracles — brute-force
//! satisfaction and the Dom-relativized algebra baseline — for every
//! paper-corpus entry, recognized-safe or rejected, and for random
//! formulas; the infiniteness flags must be sound (never set for
//! domain-independent entries, always set for the paper's introduction
//! counterexamples on nonempty databases); and the cached / partitioned /
//! incremental serving paths must all agree with the one-shot evaluation.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::safety::corpus::{corpus, formula_of, PaperFormula};
use rcsafe::safety::dom_baseline::{eval_brute_force, eval_dom};
use rcsafe::safety::pipeline::{CompileOptions, Compiled, SafetyClass};
use rcsafe::{
    classify, compile_and_eval_any_shared, parse, AnyAnswer, Budget, Database, PipelineError,
    Schema, SharedPlanCache, Value,
};

/// One-shot safe-pair evaluation through a fresh cache.
fn eval_any(text: &str, db: &Database, opts: CompileOptions) -> Result<AnyAnswer, PipelineError> {
    compile_and_eval_any_shared(text, db, opts, &SharedPlanCache::new()).map(|out| out.answer)
}

/// A reproducible database over an entry's inferred schema (seed 0 is the
/// empty database).
fn db_for(entry: &PaperFormula, seed: u64) -> Database {
    let f = formula_of(entry);
    let schema = Schema::infer(&f).expect("corpus formulas have consistent arities");
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

/// The whole corpus — including every classifier-rejected entry — matches
/// both active-domain oracles, and domain-independent entries never flag
/// infiniteness on any database.
#[test]
fn corpus_matches_both_oracles_and_di_entries_stay_finite() {
    let mut rejected_checked = 0;
    for entry in corpus() {
        let f = formula_of(&entry);
        for seed in [0u64, 3, 9] {
            let db = db_for(&entry, seed);
            let ans = eval_any(entry.text, &db, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", entry.id));
            let brute = eval_brute_force(&f, &db);
            assert_eq!(
                ans.finite, brute,
                "{} (seed {seed}): finite part diverges from brute force",
                entry.id
            );
            let dom = eval_dom(&f, &db).expect("dom baseline evaluates");
            assert_eq!(
                ans.finite, dom,
                "{} (seed {seed}): finite part diverges from the Dom baseline",
                entry.id
            );
            if entry.domain_independent {
                assert!(
                    !ans.maybe_infinite && ans.per_variable.iter().all(|b| !b),
                    "{} is domain independent; no column may star (seed {seed})",
                    entry.id
                );
            }
            if ans.safe_pair {
                rejected_checked += 1;
            }
        }
    }
    assert!(
        rejected_checked >= 15,
        "the corpus must exercise the safe-pair path broadly (got {rejected_checked})"
    );
}

/// The paper's introduction counterexamples really are infinite on
/// nonempty databases, with the stars in exactly the unconstrained
/// columns.
#[test]
fn known_infinite_entries_flag_the_right_columns() {
    // intro-F: ¬P(x) holds for every x outside the database.
    let db = Database::from_facts("P(1)").unwrap();
    let ans = eval_any("!P(x)", &db, CompileOptions::default()).unwrap();
    assert!(ans.maybe_infinite, "!P(x) must flag infiniteness");
    assert_eq!(ans.per_variable, vec![true]);

    // intro-G: with both sides nonempty, each column is unconstrained
    // whenever the other disjunct fires.
    let db = Database::from_facts("P(1)\nQ(2)").unwrap();
    let ans = eval_any("P(x) | Q(y)", &db, CompileOptions::default()).unwrap();
    assert!(ans.maybe_infinite);
    assert_eq!(ans.per_variable, vec![true, true]);

    // sec21-uncurable: ∃y (P(x) ∨ Q(y)) — x is arbitrary once Q is
    // nonempty.
    let ans = eval_any("exists y. (P(x) | Q(y))", &db, CompileOptions::default()).unwrap();
    assert!(ans.maybe_infinite);
    assert_eq!(ans.per_variable, vec![true]);

    // ... but on the empty database none of them can produce anything.
    let mut empty = Database::new();
    empty.declare(rcsafe::Symbol::intern("P"), 1);
    empty.declare(rcsafe::Symbol::intern("Q"), 1);
    for text in ["P(x) | Q(y)", "exists y. (P(x) | Q(y))"] {
        let ans = eval_any(text, &empty, CompileOptions::default()).unwrap();
        assert!(
            ans.finite.is_empty(),
            "{text}: empty database, empty answer"
        );
        assert!(!ans.maybe_infinite, "{text}: nothing fires, nothing stars");
    }
}

/// The corpus's rejected-but-domain-independent entries (Example 6.3's G
/// and the Sec. 10 closing formula) go through the safe pair and still
/// never star: the extended-domain answer collapses to the active-domain
/// one.
#[test]
fn rejected_domain_independent_entries_never_star() {
    let targets: Vec<PaperFormula> = corpus()
        .into_iter()
        .filter(|e| ["ex6.3-G", "sec10-closing"].contains(&e.id))
        .collect();
    assert_eq!(targets.len(), 2, "both witnesses must be in the corpus");
    for entry in targets {
        assert_eq!(
            classify(&formula_of(&entry)),
            SafetyClass::NotRecognized,
            "{} must exercise the safe-pair path",
            entry.id
        );
        assert!(entry.domain_independent, "{}", entry.id);
        for seed in 0..6u64 {
            let db = db_for(&entry, seed);
            let ans = eval_any(entry.text, &db, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", entry.id));
            assert!(ans.safe_pair, "{} (seed {seed})", entry.id);
            assert!(
                !ans.maybe_infinite,
                "{} (seed {seed}): domain independent, yet starred",
                entry.id
            );
        }
    }
}

/// Budget trips surface as errors, never panics — the safe pair doubles
/// the evaluation work, and both legs run under one shared budget.
#[test]
fn budget_trips_surface_as_errors() {
    let db = Database::from_facts("P(1)\nP(2)\nP(3)\nQ(4)\nQ(5)").unwrap();
    let opts = CompileOptions {
        budget: Budget::new().with_max_tuples(1),
        ..CompileOptions::default()
    };
    match eval_any("P(x) | Q(y)", &db, opts) {
        Err(PipelineError::Budget(_)) => {}
        other => panic!("expected a budget trip, got {other:?}"),
    }
}

/// With equality reduction switched off, a wide-sense evaluable formula
/// is outside every class the pipeline compiles, so it must be served
/// through the safe pair rather than rejected — with the oracle's answer
/// and, being domain independent, no stars.
#[test]
fn wide_sense_formula_without_equality_reduction_takes_the_safe_pair() {
    let text = "Q(y, y) & (x = y | P(x))";
    let db = Database::from_facts("Q(1, 1)\nQ(2, 2)\nP(7)").unwrap();
    let no_reduction = CompileOptions {
        equality_reduction: false,
        ..CompileOptions::default()
    };
    let off = eval_any(text, &db, no_reduction).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(off.class, SafetyClass::WideSenseEvaluable);
    assert!(
        off.safe_pair,
        "equality reduction off: the safe pair serves"
    );
    assert_eq!(off.finite, eval_brute_force(&parse(text).unwrap(), &db));
    assert!(!off.maybe_infinite && off.per_variable == vec![false, false]);
    // Default options keep the fast path, with the same answer.
    let on = eval_any(text, &db, CompileOptions::default()).unwrap();
    assert!(!on.safe_pair);
    assert_eq!(on.finite, off.finite);
}

/// Forcing partitioned kernels does not change safe-pair answers.
#[test]
fn forced_partitions_agree_with_sequential() {
    for entry in corpus()
        .into_iter()
        .filter(|e| !e.evaluable && !e.wide_sense)
    {
        let db = db_for(&entry, 5);
        let plain = eval_any(entry.text, &db, CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        let opts = CompileOptions {
            budget: Budget::new().with_partitions(3),
            ..CompileOptions::default()
        };
        let partitioned = eval_any(entry.text, &db, opts)
            .unwrap_or_else(|e| panic!("{} (partitioned): {e}", entry.id));
        assert_eq!(plain.finite, partitioned.finite, "{}", entry.id);
        assert_eq!(plain.per_variable, partitioned.per_variable, "{}", entry.id);
    }
}

/// One-shot serving, a reused cache (cold then warm), and a second cache
/// return identical answers, and warm rounds really serve from cache.
#[test]
fn cached_and_shared_serving_agree_with_one_shot() {
    for entry in corpus() {
        let db = db_for(&entry, 3);
        let one_shot = match eval_any(entry.text, &db, CompileOptions::default()) {
            Ok(a) => a,
            Err(_) => continue, // nothing to compare against
        };
        let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
        let cold = compile_and_eval_any_shared(entry.text, &db, CompileOptions::default(), &cache)
            .unwrap_or_else(|e| panic!("{} (cold): {e}", entry.id));
        assert!(!cold.result_cached, "{}: first round is cold", entry.id);
        let warm = compile_and_eval_any_shared(entry.text, &db, CompileOptions::default(), &cache)
            .unwrap_or_else(|e| panic!("{} (warm): {e}", entry.id));
        assert!(
            warm.plan_cached && warm.result_cached,
            "{}: second round must serve from cache",
            entry.id
        );
        let shared: SharedPlanCache<Compiled> = SharedPlanCache::new();
        let via_shared =
            compile_and_eval_any_shared(entry.text, &db, CompileOptions::default(), &shared)
                .unwrap_or_else(|e| panic!("{} (shared): {e}", entry.id));
        for (label, got) in [
            ("cached cold", &cold.answer),
            ("cached warm", &warm.answer),
            ("shared", &via_shared.answer),
        ] {
            assert_eq!(got.finite, one_shot.finite, "{} ({label})", entry.id);
            assert_eq!(
                got.maybe_infinite, one_shot.maybe_infinite,
                "{} ({label})",
                entry.id
            );
            assert_eq!(
                got.per_variable, one_shot.per_variable,
                "{} ({label})",
                entry.id
            );
        }
    }
}

/// Mutating the database between cached serves yields exactly the answer
/// a fresh evaluation produces — the incremental refresh (guard delta
/// included) never serves stale safe-pair results.
#[test]
fn incremental_refresh_matches_fresh_evaluation() {
    for text in ["!P(x)", "P(x) | Q(y)", "exists y. (P(x) | Q(y))"] {
        let mut db = Database::from_facts("P(1)\nP(2)\nQ(3)").unwrap();
        let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
        let _ = compile_and_eval_any_shared(text, &db, CompileOptions::default(), &cache)
            .unwrap_or_else(|e| panic!("{text} (cold): {e}"));
        for delta in ["P(7)", "Q(8)\nP(9)"] {
            db.apply_delta(delta).unwrap();
            let served = compile_and_eval_any_shared(text, &db, CompileOptions::default(), &cache)
                .unwrap_or_else(|e| panic!("{text} (after {delta}): {e}"));
            let fresh = eval_any(text, &db, CompileOptions::default()).unwrap();
            assert_eq!(
                served.answer.finite, fresh.finite,
                "{text} after inserting {delta}: stale finite part"
            );
            assert_eq!(
                served.answer.per_variable, fresh.per_variable,
                "{text} after inserting {delta}: stale star mask"
            );
            let f = parse(text).unwrap();
            assert_eq!(
                served.answer.finite,
                eval_brute_force(&f, &db),
                "{text} after inserting {delta}: diverges from the oracle"
            );
        }
    }
}

/// Domain independence certified by construction: a random *allowed*
/// formula `A` (DI by the paper's theorems) is wrapped into the
/// Sec. 10-closing shape `∀w ((A ∧ Q0(w)) ∨ (A ∧ ¬R0(w)))` — logically
/// `A ∧ ∀w (Q0(w) ∨ ¬R0(w))`, a conjunction of DI formulas and
/// therefore DI, but the repeated-`A` disjunction defeats the class
/// analysis exactly as the corpus notes for `sec10-closing`. The safe
/// pair must match the oracle and must never flag infiniteness.
#[test]
fn constructed_di_formulas_never_star() {
    use rcsafe::formula::generate::random_allowed_formula;
    use rcsafe::{Formula, Term, Var};

    let mut exercised = 0;
    for seed in 0..200u64 {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_allowed_formula(&cfg, &[Var::new("x"), Var::new("y")], &mut rng, 2);
        let w = || Term::var("w0");
        // Deliberately NOT rectified: the two copies of `a` live in parallel
        // disjuncts, so their coinciding binder names are legal surface
        // syntax, whereas rectifying the duplicate would mint `#`-suffixed
        // names the lexer refuses — and the entry point takes query *text*.
        let f = Formula::forall(
            Var::new("w0"),
            Formula::or(vec![
                Formula::and(vec![a.clone(), Formula::atom("Q0", vec![w()])]),
                Formula::and(vec![
                    a.clone(),
                    Formula::not(Formula::atom("R0", vec![w()])),
                ]),
            ]),
        );
        if classify(&f) != SafetyClass::NotRecognized || f.node_count() > 60 {
            continue;
        }
        let text = f.to_string();
        let schema = Schema::infer(&f).expect("consistent");
        let mut domain: Vec<Value> = (1..=3).map(Value::int).collect();
        for c in f.constants() {
            if !domain.contains(&c) {
                domain.push(c);
            }
        }
        for trial in 0..2u64 {
            let db = Database::random(
                &schema,
                &domain,
                5,
                &mut StdRng::seed_from_u64(seed * 17 + trial),
            );
            let ans = eval_any(&text, &db, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{f}: {e}"));
            assert!(ans.safe_pair, "{f}");
            assert!(
                !ans.maybe_infinite,
                "seed {seed} trial {trial}: DI formula starred: {f}"
            );
            assert_eq!(
                ans.finite,
                eval_brute_force(&f, &db),
                "seed {seed} trial {trial}: {f}"
            );
        }
        exercised += 1;
        if exercised >= 25 {
            break;
        }
    }
    assert!(
        exercised >= 5,
        "the constructed certificates must land outside the recognized \
         classes often enough to exercise the DI guarantee (got {exercised})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Random formulas — safe and unsafe alike — match the brute-force
    /// active-domain oracle through the safe pair.
    #[test]
    fn random_formulas_match_the_oracle(seed in 0u64..4_000) {
        let cfg = GenConfig { max_depth: 3, ..GenConfig::default() };
        let f = rectified(&random_formula(&cfg, &mut StdRng::seed_from_u64(seed)));
        prop_assume!(f.node_count() <= 40);
        let text = f.to_string();
        prop_assume!(parse(&text).is_ok());
        let schema = Schema::infer(&f).expect("generated formulas are consistent");
        let mut domain: Vec<Value> = (1..=3).map(Value::int).collect();
        for c in f.constants() {
            if !domain.contains(&c) {
                domain.push(c);
            }
        }
        for trial in 0..2u64 {
            let db = Database::random(
                &schema,
                &domain,
                5,
                &mut StdRng::seed_from_u64(seed * 31 + trial),
            );
            let ans = match eval_any(&text, &db, CompileOptions::default()) {
                Ok(a) => a,
                Err(e) => return Err(TestCaseError::fail(format!("{f}: {e}"))),
            };
            let oracle = eval_brute_force(&f, &db);
            prop_assert_eq!(
                &ans.finite, &oracle,
                "seed {} trial {}: {}", seed, trial, &f
            );
        }
    }
}
