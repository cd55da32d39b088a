//! End-to-end tests for the repeated-query serving path:
//! [`compile_and_eval_shared`] must be answer-identical to the uncached
//! pipeline, and the [`Database`] version stamp must invalidate
//! materialized results the moment the database changes.

use rcsafe::safety::corpus::corpus;
use rcsafe::safety::pipeline::{
    compile_and_eval, compile_and_eval_shared, CompileOptions, Compiled,
};
use rcsafe::{compile_and_eval_any_shared, Budget, Database, PipelineError, SharedPlanCache};

fn db() -> Database {
    Database::from_facts(
        "Part('bolt')\nPart('nut')\nSupplies('acme', 'bolt')\nSupplies('acme', 'nut')\nSupplies('busy', 'bolt')",
    )
    .unwrap()
}

const ALL_SUPPLIER: &str = "exists y. forall x. (!Part(x) | Supplies(y, x))";

/// The differential acceptance test: over every formula in the paper
/// corpus, cached serving (cold, then warm) returns exactly what the
/// uncached pipeline returns, and the warm call hits both cache layers.
#[test]
fn cached_serving_matches_uncached_across_the_corpus() {
    let db = db();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    let mut seen = std::collections::HashSet::new();
    let mut served = 0;
    for entry in corpus() {
        let uncached = match compile_and_eval(entry.text, &db, CompileOptions::default()) {
            Ok(o) => o,
            Err(_) => {
                // Unsafe formulas must be rejected by the cached path too,
                // not silently served.
                assert!(
                    compile_and_eval_shared(entry.text, &db, CompileOptions::default(), &cache)
                        .is_err(),
                    "{}: cached path accepted a formula the pipeline rejects",
                    entry.id
                );
                continue;
            }
        };
        // The corpus repeats some formulas verbatim; only a first
        // occurrence is genuinely plan-cold. Results key on the structural
        // plan hash, so a textually new formula may still legitimately hit
        // the result cache when it compiles to a plan already served —
        // the answer comparison below keeps that sharing honest.
        let fresh = seen.insert(entry.text);
        let cold = compile_and_eval_shared(entry.text, &db, CompileOptions::default(), &cache)
            .unwrap_or_else(|e| panic!("{}: cold cached serve failed: {e}", entry.id));
        assert_eq!(cold.plan_cached, !fresh, "{}", entry.id);
        assert_eq!(cold.relation, uncached.relation, "{} (cold)", entry.id);
        let warm = compile_and_eval_shared(entry.text, &db, CompileOptions::default(), &cache)
            .unwrap_or_else(|e| panic!("{}: warm cached serve failed: {e}", entry.id));
        assert!(warm.plan_cached && warm.result_cached, "{}", entry.id);
        assert_eq!(warm.relation, uncached.relation, "{} (warm)", entry.id);
        assert_eq!(
            warm.compiled.columns, uncached.compiled.columns,
            "{}",
            entry.id
        );
        served += 1;
    }
    assert!(served >= 10, "corpus should exercise the cache broadly");
    let s = cache.stats();
    assert!(s.result_hits >= served, "every warm call must hit");
    assert_eq!(s.stale_results, 0);
}

/// Serve → mutate → serve: the plan survives, the materialized result is
/// recognized as stale, and the fresh answer reflects the mutation.
#[test]
fn database_mutation_invalidates_cached_results() {
    let mut db = db();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();

    let first = compile_and_eval_shared(ALL_SUPPLIER, &db, CompileOptions::default(), &cache)
        .expect("cold serve");
    assert_eq!(first.relation.as_bool(), Some(true));
    assert!(!first.plan_cached && !first.result_cached);

    // An unsupplied part flips the answer; the version bump must prevent
    // the cached `true` from being served.
    db.load_facts("Part('washer')").unwrap();
    let second = compile_and_eval_shared(ALL_SUPPLIER, &db, CompileOptions::default(), &cache)
        .expect("post-mutation serve");
    assert!(second.plan_cached, "compilation must be reused");
    assert!(!second.result_cached, "stale result must not be served");
    assert_eq!(second.relation.as_bool(), Some(false));
    assert_eq!(cache.stats().stale_results, 1);

    // Steady state again: the refreshed result serves until the next bump.
    let third = compile_and_eval_shared(ALL_SUPPLIER, &db, CompileOptions::default(), &cache)
        .expect("warm serve");
    assert!(third.plan_cached && third.result_cached);
    assert_eq!(third.relation.as_bool(), Some(false));
}

/// A result-cache hit is not a budget bypass: serving a materialized
/// relation still charges its cardinality against the caller's budget.
#[test]
fn result_hits_still_charge_the_budget() {
    let db = db();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    let text = "Part(x)";

    let cold =
        compile_and_eval_shared(text, &db, CompileOptions::default(), &cache).expect("cold serve");
    assert_eq!(cold.relation.len(), 2);

    let tight = CompileOptions {
        budget: Budget::new().with_max_tuples(1),
        ..CompileOptions::default()
    };
    let err = compile_and_eval_shared(text, &db, tight, &cache)
        .expect_err("serving 2 cached tuples under a 1-tuple budget must trip");
    assert!(err.budget().is_some(), "expected a budget trip, got: {err}");
    // The budget is not part of the cache key, so the hit was attempted
    // (and correctly refused) rather than recompiled.
    assert_eq!(cache.stats().plan_hits, 1);
    assert_eq!(cache.stats().result_hits, 1);

    // Safe-pair legs are served the same way: a verbatim warm hit and an
    // IVM-refreshed hit each charge the served cardinality, and a trip
    // leaves the cache serving the right answer afterwards.
    let facts: Vec<String> = (1..=20).map(|i| format!("Q({i})")).collect();
    let mut db = Database::from_facts(&format!("P(1)\nP(2)\n{}", facts.join("\n"))).unwrap();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    let text = "!P(x)";
    // Below the 18-row answer, above what a one-row refresh itself costs,
    // so the served cardinality is what trips.
    let tight = || CompileOptions {
        budget: Budget::new().with_max_tuples(10),
        ..CompileOptions::default()
    };
    let cold = compile_and_eval_any_shared(text, &db, CompileOptions::default(), &cache)
        .expect("cold safe-pair serve");
    assert!(cold.answer.safe_pair && cold.answer.finite.len() > 1);
    let err = compile_and_eval_any_shared(text, &db, tight(), &cache)
        .expect_err("a verbatim safe-pair hit above the tuple cap must trip");
    assert!(
        matches!(err, PipelineError::Budget(_)),
        "expected a budget trip, got: {err}"
    );
    let warm = compile_and_eval_any_shared(text, &db, CompileOptions::default(), &cache)
        .expect("warm safe-pair serve");
    assert!(warm.result_cached && !warm.result_refreshed);
    assert_eq!(warm.answer.finite, cold.answer.finite);

    db.apply_delta("P(7)").unwrap();
    let installed = cache.stats().refreshed_results;
    let err = compile_and_eval_any_shared(text, &db, tight(), &cache)
        .expect_err("a refreshed safe-pair hit above the tuple cap must trip");
    assert!(
        matches!(err, PipelineError::Budget(_)),
        "expected a budget trip, got: {err}"
    );
    assert_eq!(
        cache.stats().refreshed_results,
        installed,
        "a tripped refresh must not be installed"
    );
    let refreshed = compile_and_eval_any_shared(text, &db, CompileOptions::default(), &cache)
        .expect("refreshed safe-pair serve");
    assert!(refreshed.result_cached && refreshed.result_refreshed);
    let fresh = compile_and_eval_any_shared(
        text,
        &db,
        CompileOptions::default(),
        &SharedPlanCache::new(),
    )
    .expect("fresh safe-pair serve");
    assert_eq!(refreshed.answer.finite, fresh.answer.finite);
    assert_eq!(refreshed.answer.per_variable, fresh.answer.per_variable);
}

/// Semantically different [`CompileOptions`] must not share plan entries.
#[test]
fn options_fragment_the_plan_cache() {
    let db = db();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    let raw = CompileOptions {
        optimize: false,
        ..CompileOptions::default()
    };
    let a = compile_and_eval_shared(ALL_SUPPLIER, &db, CompileOptions::default(), &cache)
        .expect("optimized serve");
    let b = compile_and_eval_shared(ALL_SUPPLIER, &db, raw, &cache).expect("unoptimized serve");
    assert!(!b.plan_cached, "different options must compile separately");
    assert_eq!(cache.plan_count(), 2);
    assert_eq!(a.relation, b.relation);
}

/// The partition policy is pure execution policy: it is excluded from the
/// cache key (like the rest of the budget), so a result computed under one
/// policy is served — bit-identical — under any other, and a cold eval
/// under a forced partition count caches a relation indistinguishable from
/// the sequential one.
#[test]
fn partition_policy_never_fragments_or_skews_the_cache() {
    let db = db();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();
    let text = "Part(x) & !Supplies('busy', x)";
    let with_parts = |n: usize| CompileOptions {
        budget: Budget::new().with_partitions(n),
        ..CompileOptions::default()
    };

    // Cold serve evaluated with forced 4-way partitioned kernels.
    let cold =
        compile_and_eval_shared(text, &db, with_parts(4), &cache).expect("cold partitioned serve");
    assert!(!cold.plan_cached && !cold.result_cached);

    // Warm serves under sequential kernels and a different forced count
    // both hit the same entry and return the identical relation.
    for n in [1usize, 7] {
        let warm = compile_and_eval_shared(text, &db, with_parts(n), &cache)
            .unwrap_or_else(|e| panic!("warm serve at partitions={n}: {e}"));
        assert!(
            warm.plan_cached && warm.result_cached,
            "partition count {n} must not fragment the cache"
        );
        assert_eq!(warm.relation, cold.relation);
        assert_eq!(warm.relation.to_string(), cold.relation.to_string());
    }
    assert_eq!(cache.plan_count(), 1);

    // And the partitioned-cold result equals an uncached sequential run.
    let plain = rcsafe::safety::pipeline::compile_and_eval(text, &db, CompileOptions::default())
        .expect("uncached sequential run");
    assert_eq!(plain.relation, cold.relation);
}
