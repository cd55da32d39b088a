//! Tests of the benchmark itself: seeded inputs, exact cache counts,
//! oracle failures, the traced run's metric set, and `BENCHMARK.json`.
//!
//! The wire workloads run against an in-process server here, with a few
//! rounds each.

use rc_perfbench::stats::{quantile, Summary};
use rc_perfbench::{end_to_end_names, gen, per_layer_names, run, Config, Workload};
use std::collections::HashSet;
use std::path::PathBuf;

fn small(workload: Workload, seed: u64, rounds: usize) -> Config {
    let mut cfg = Config::new(workload, seed);
    cfg.rounds = Some(rounds);
    cfg.setups = 1;
    cfg.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    cfg
}

#[test]
fn same_seed_gives_identical_facts_and_streams() {
    let facts = |cases: Vec<gen::PaperCase>| -> Vec<String> {
        cases.into_iter().map(|c| c.facts).collect()
    };
    assert_eq!(facts(gen::paper_cases(7)), facts(gen::paper_cases(7)));
    assert_eq!(gen::paper_stream(7, 26, 3), gen::paper_stream(7, 26, 3));
    assert_eq!(gen::adhoc_facts(7), gen::adhoc_facts(7));
    assert_eq!(gen::adhoc_stream(7, 20), gen::adhoc_stream(7, 20));
    assert_eq!(gen::trickle_facts(7), gen::trickle_facts(7));
    assert_eq!(gen::trickle_mutations(7, 20), gen::trickle_mutations(7, 20));
}

#[test]
fn different_seed_gives_different_streams() {
    let facts = |seed| -> Vec<String> {
        gen::paper_cases(seed)
            .into_iter()
            .map(|c| c.facts)
            .collect()
    };
    assert_ne!(facts(7), facts(8));
    assert_ne!(gen::paper_stream(7, 26, 3), gen::paper_stream(8, 26, 3));
    assert_ne!(gen::adhoc_facts(7), gen::adhoc_facts(8));
    assert_ne!(gen::adhoc_stream(7, 20), gen::adhoc_stream(8, 20));
    assert_ne!(gen::trickle_facts(7), gen::trickle_facts(8));
    assert_ne!(gen::trickle_mutations(7, 20), gen::trickle_mutations(8, 20));
}

#[test]
fn adhoc_texts_never_repeat_and_paper_rounds_cover_the_corpus() {
    let stream = gen::adhoc_stream(3, 500);
    let distinct: HashSet<&String> = stream.iter().collect();
    assert_eq!(distinct.len(), stream.len());
    let cases = gen::paper_cases(3);
    assert_eq!(cases.len(), 26);
    assert_eq!(cases.iter().filter(|c| c.recognized).count(), 14);
    let round: HashSet<usize> = gen::paper_stream(3, 26, 1).into_iter().collect();
    assert_eq!(round.len(), 26);
}

#[test]
fn wire_workloads_repeat_their_cache_counts_exactly() {
    for workload in [Workload::AdhocJoin, Workload::TrickleWarm] {
        let a = run(&small(workload, 5, 6)).expect("first run");
        let b = run(&small(workload, 5, 6)).expect("second run");
        assert!(a.correct() && a.outcome.failed == 0, "{workload:?}");
        assert_eq!(a.outcome.cache, b.outcome.cache, "{workload:?}");
        assert_eq!(a.outcome.query_us().len(), b.outcome.query_us().len());
    }
    let t = run(&small(Workload::TrickleWarm, 5, 6)).expect("trickle run");
    let c = t.outcome.cache;
    let reads = 6 * gen::TRICKLE_QUERIES.len() as u64;
    assert_eq!((c.stale, c.refreshed), (reads, reads));
    assert_eq!(c.result_hits, reads * (gen::TRICKLE_READS as u64 - 1));
    let a = run(&small(Workload::AdhocJoin, 5, 6)).expect("adhoc run");
    assert_eq!(a.outcome.cache.plan_hits, 0, "ad-hoc texts never repeat");
}

#[test]
fn summary_prints_its_sample_count() {
    let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]);
    assert_eq!((s.n, s.p50, s.p90), (4, 2.0, 4.0));
    assert!(s.to_string().contains("(n=4)"), "{s}");
    assert_eq!(quantile(&[], 0.5), 0.0);
}

#[test]
fn a_corrupted_oracle_answer_fails_the_run() {
    for workload in Workload::ALL {
        let mut cfg = small(workload, 9, 1);
        cfg.corrupt_oracle = true;
        let report = run(&cfg).expect("runs");
        assert!(!report.correct(), "{workload:?}");
        assert!(report.outcome.failed > 0, "{workload:?}");
        cfg.corrupt_oracle = false;
        let report = run(&cfg).expect("runs");
        assert!(
            report.correct() && report.outcome.failed == 0,
            "{workload:?}"
        );
    }
}

#[test]
fn traced_run_reports_every_layer_without_mismatch() {
    for workload in Workload::ALL {
        let mut cfg = small(workload, 4, 2);
        cfg.trace = true;
        let report = run(&cfg).expect("traced run");
        assert!(
            report.correct() && report.outcome.failed == 0,
            "{workload:?}"
        );
        let layers = report.layers.expect("per-layer metrics");
        let names: Vec<&str> = layers.iter().map(|m| m.0).collect();
        assert_eq!(names, per_layer_names());
        let get = |name: &str| layers.iter().find(|m| m.0 == name).expect(name).2;
        assert_eq!(get("trace.mismatch"), 0.0, "{workload:?}");
        assert_eq!(get("admit.rejected"), 0.0, "{workload:?}");
        assert!(get("trace.coverage") > 0.0, "{workload:?}");
        if workload == Workload::TrickleWarm {
            assert_eq!(get("classify.p50_us"), 0.0, "warm reads never classify");
            assert_eq!(get("ivm.refresh_ratio"), 1.0);
        }
    }
}

#[test]
fn benchmark_json_names_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    assert_eq!(section("end_to_end"), end_to_end_names());
    assert_eq!(section("per_layer"), per_layer_names());
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(section("workloads"), workloads);
}
