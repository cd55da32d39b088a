//! The rcsafe benchmark: three seeded workloads, each a single client in a
//! closed loop, with every answer checked against an oracle outside the
//! timed region.
//!
//! * `paper_cold` — every corpus formula over its own six-row tables,
//!   served in-process through the server's entry points with a fresh
//!   cache per request.
//! * `adhoc_join` — never-repeating 2- to 4-way joins against a spawned
//!   `rc_serve` over thousands-row tables.
//! * `trickle_warm` — standing queries over the wire, each round one
//!   one-row mutation followed by repeated reads.
//!
//! An untraced run reports the end-to-end metrics; a traced run repeats
//! the same request stream with spans around every public layer call and
//! reports the per-layer metrics. See `perfbench/README.md`.

#![deny(missing_docs)]

pub mod affinity;
pub mod gen;
mod paper;
pub mod spans;
pub mod stages;
pub mod stats;
pub mod wire;
mod wire_workloads;

use rc_formula::Value;
use rc_relalg::{
    plan_hash, Budget, Database, EvalError, EvalStats, OpSpan, Relation, RelationBuilder, Tracer,
};
use rc_safety::pipeline::{compile_for, CompileOptions};
use spans::Recorder;
use stages::Staged;
use stats::{mean, quantile};
use std::path::PathBuf;
use wire::ServerKind;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale cold serving, in-process.
    PaperCold,
    /// Bench-scale cold joins over the wire.
    AdhocJoin,
    /// Trickle mutations beside warm reads over the wire.
    TrickleWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::AdhocJoin,
        Workload::TrickleWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::AdhocJoin => "adhoc_join",
            Workload::TrickleWarm => "trickle_warm",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds of the request stream per second of `--seconds`: a run's
    /// size is a request count, so cache counts and memory repeat
    /// exactly, scaled so that one second of `--seconds` is roughly one
    /// second of timed requests on a 2-vCPU machine.
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::PaperCold => 80.0,
            Workload::AdhocJoin => 150.0,
            Workload::TrickleWarm => 60.0,
        }
    }
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measurement length; sets the number of rounds.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the wire workloads get their server.
    pub server: ServerKind,
    /// Directory for fact files and the span dump.
    pub work_dir: PathBuf,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Explicit round count, overriding `seconds`.
    pub rounds: Option<usize>,
    /// Replace one oracle answer with a wrong one (tests that a wrong
    /// answer fails the run).
    pub corrupt_oracle: bool,
}

impl Config {
    /// Defaults for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            server: ServerKind::InProcess,
            work_dir: PathBuf::from(".bench_build/perfbench"),
            // A paper-scale set-up loads 26 six-row databases in well under
            // a millisecond, so it takes more repetitions to steady.
            setups: if workload == Workload::PaperCold {
                25
            } else {
                9
            },
            rounds: None,
            corrupt_oracle: false,
        }
    }

    fn rounds(&self) -> usize {
        self.rounds.unwrap_or_else(|| {
            ((self.seconds * self.workload.rounds_per_second()).ceil() as usize).max(1)
        })
    }

    /// Rounds replayed by the traced pass: the first quarter of the
    /// stream, which keeps a traced run well inside its time limit.
    fn traced_rounds(&self) -> usize {
        self.rounds().div_ceil(4)
    }
}

/// Cache and admission counters over a measured phase (server `stats`
/// deltas on the wire workloads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Result-cache hits (verbatim).
    pub result_hits: u64,
    /// Result-cache misses (cold or stale).
    pub result_misses: u64,
    /// Result lookups that found a stale entry.
    pub stale: u64,
    /// Stale results refreshed by incremental maintenance.
    pub refreshed: u64,
    /// Plans, results and views held at the end of the phase.
    pub entries: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
}

/// Blocks a measured stream is cut into. Every timing metric is computed
/// per block and reported as the median over blocks, so a slow spell of
/// the machine shorter than half the run does not move it.
pub const BLOCKS: usize = 20;

/// Whole rounds of the measured stream, in order.
#[derive(Debug, Default)]
pub struct Block {
    /// Client-observed query latencies, µs.
    pub query_us: Vec<f64>,
    /// Client-observed mutation latencies, µs.
    pub mutate_us: Vec<f64>,
    /// Sum of the block's timed request latencies, s.
    pub busy_s: f64,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted (queries and mutations).
    pub attempted: u64,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Wrong answers among `failed`.
    pub wrong: u64,
    /// The measured stream's timings, block by block.
    pub blocks: Vec<Block>,
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of the process holding the caches, MiB.
    pub rss_mb: f64,
    /// Cache counters.
    pub cache: CacheCounts,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: {}", what());
            }
        }
    }

    fn wrong_answer(&mut self, what: impl FnOnce() -> String) {
        self.wrong += 1;
        self.check(false, what);
    }

    /// Start round `round` of `rounds`, opening its block.
    fn round(&mut self, round: usize, rounds: usize) {
        let block = round * BLOCKS / rounds.max(1);
        while self.blocks.len() <= block {
            self.blocks.push(Block::default());
        }
    }

    fn block(&mut self) -> &mut Block {
        if self.blocks.is_empty() {
            self.blocks.push(Block::default());
        }
        self.blocks.last_mut().expect("a block is open")
    }

    fn query(&mut self, us: f64) {
        let b = self.block();
        b.query_us.push(us);
        b.busy_s += us / 1e6;
    }

    fn mutation(&mut self, us: f64) {
        let b = self.block();
        b.mutate_us.push(us);
        b.busy_s += us / 1e6;
    }

    /// Every query latency of the measured stream, µs.
    pub fn query_us(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.query_us.iter().copied())
            .collect()
    }

    /// Every mutation latency of the measured stream, µs.
    pub fn mutate_us(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.mutate_us.iter().copied())
            .collect()
    }

    /// The median over blocks of a per-block figure (blocks where it is
    /// undefined are skipped).
    fn block_median(&self, f: impl Fn(&Block) -> Option<f64>) -> f64 {
        let per_block: Vec<f64> = self.blocks.iter().filter_map(f).collect();
        quantile(&per_block, 0.5)
    }
}

/// What the traced pass gathers besides the spans.
#[derive(Default)]
pub struct Traced {
    /// Every span.
    pub rec: Recorder,
    /// Per cold evaluation: operators run.
    pub operators: Vec<f64>,
    /// Per cold evaluation: tuples produced.
    pub tuples: Vec<f64>,
    /// Per cold evaluation: `run_maintained` minus `run_shared`, µs.
    pub materialize_us: Vec<f64>,
    /// Operators whose kernel ran partition-parallel.
    pub partitioned_ops: u64,
    /// Operators seen by the operator tracer.
    pub traced_ops: u64,
    /// Per compiled query: RANF node count.
    pub ranf_nodes: Vec<f64>,
    /// Per wire request: response payload size, KiB.
    pub response_kb: Vec<f64>,
    /// Ping round trips, µs.
    pub ping_us: Vec<f64>,
    /// Per wire request: client latency minus serve, encode and decode, µs.
    pub residual_us: Vec<f64>,
    /// Per query: time the layer spans explain, µs.
    pub explained_us: Vec<f64>,
    /// Per query: traced end-to-end latency, µs.
    pub latency_us: Vec<f64>,
    /// Time to load the database in-process, ms.
    pub load_ms: f64,
    /// Decomposition mismatches (`trace.mismatch`).
    pub mismatch: u64,
}

impl Traced {
    /// The measurements beside one cold query whose served evaluation
    /// (`run_maintained`) was just recorded as `ivm.maintain`: a plain
    /// `run_shared` under an `eval` span, its operator and tuple counts,
    /// the materialization overhead, the partitioned share of its
    /// operators, and `saturate_governed` on the same plan. Returns the
    /// plain evaluation's answer and whether the composed plan hashes like
    /// `compile_for`'s (checked only when `check_hash`).
    fn cold_query(
        &mut self,
        s: &Staged,
        text: &str,
        db: &Database,
        req: u64,
        check_hash: bool,
    ) -> (Result<Relation, EvalError>, bool) {
        let budget = Budget::new();
        let maintain_us = self.rec.last_us("ivm.maintain");
        let mut stats = EvalStats::default();
        let plain = self.rec.span("eval", req, |_| {
            s.compiled
                .run_shared(db, &mut stats, &budget, &mut Tracer::off())
        });
        self.materialize_us
            .push(maintain_us - self.rec.last_us("eval"));
        self.operators.push(stats.operators as f64);
        self.tuples.push(stats.tuples_produced as f64);
        self.ranf_nodes
            .push(s.compiled.ranf_form.node_count() as f64);
        let mut tracer = Tracer::on();
        let _ = s
            .compiled
            .run_shared(db, &mut EvalStats::default(), &budget, &mut tracer);
        if let Some(root) = tracer.finish() {
            self.count_partitions(&root);
        }
        let _ = self.rec.span("optimize.saturate", req, |_| {
            rc_relalg::saturate_governed(&s.unoptimized, db, &budget)
        });
        let hash_ok = !check_hash
            || rc_formula::parse(text).is_ok_and(|f| {
                compile_for(&f, CompileOptions::default(), db)
                    .is_ok_and(|c| plan_hash(&c.expr) == plan_hash(&s.compiled.expr))
            });
        (plain, hash_ok)
    }

    /// Count the operators of one traced evaluation, and how many of them
    /// ran partition-parallel.
    fn count_partitions(&mut self, root: &OpSpan) {
        self.traced_ops += 1;
        if !root.partitions.is_empty() {
            self.partitioned_ops += 1;
        }
        for c in &root.children {
            self.count_partitions(c);
        }
    }
}

/// A metric's name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

/// The result of one benchmark invocation.
pub struct Report {
    /// The untraced phase.
    pub outcome: Outcome,
    /// The traced phase's per-layer metrics (with `--trace 1`).
    pub layers: Option<Vec<Metric>>,
}

impl Report {
    /// No wrong answer was seen.
    pub fn correct(&self) -> bool {
        self.outcome.wrong == 0
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Timings are
    /// medians over blocks of the per-block figure.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let o = &self.outcome;
        let q =
            |p: f64| o.block_median(|b| (!b.query_us.is_empty()).then(|| quantile(&b.query_us, p)));
        vec![
            ("setup_s", "s", quantile(&o.setup_s, 0.5)),
            ("query_p50_us", "us", q(0.5)),
            ("query_p90_us", "us", q(0.9)),
            (
                "queries_per_s",
                "1/s",
                o.block_median(|b| (b.busy_s > 0.0).then(|| b.query_us.len() as f64 / b.busy_s)),
            ),
            (
                "mutate_p50_us",
                "us",
                o.block_median(|b| (!b.mutate_us.is_empty()).then(|| quantile(&b.mutate_us, 0.5))),
            ),
            ("rss_mb", "MiB", o.rss_mb),
        ]
    }
}

/// Run one workload: the untraced phase, then (with `cfg.trace`) the
/// traced phase over the same request stream.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let (outcome, traced) = match cfg.workload {
        Workload::PaperCold => paper::run(cfg)?,
        Workload::AdhocJoin => wire_workloads::adhoc(cfg)?,
        Workload::TrickleWarm => wire_workloads::trickle(cfg)?,
    };
    let mut report = Report {
        outcome,
        layers: None,
    };
    if let Some((t, traced_outcome)) = traced {
        report.outcome.attempted += traced_outcome.attempted;
        report.outcome.failed += traced_outcome.failed;
        report.outcome.wrong += traced_outcome.wrong;
        let path = cfg
            .work_dir
            .join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        if let Err(e) = t.rec.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let untraced_p50_us = quantile(&report.outcome.query_us(), 0.5);
        report.layers = Some(per_layer(&t, &traced_outcome, untraced_p50_us));
    }
    Ok(report)
}

/// Names of the end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end_names() -> Vec<&'static str> {
    let empty = Report {
        outcome: Outcome::default(),
        layers: None,
    };
    empty.end_to_end().into_iter().map(|m| m.0).collect()
}

/// Names of the per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<&'static str> {
    per_layer(&Traced::default(), &Outcome::default(), 0.0)
        .into_iter()
        .map(|m| m.0)
        .collect()
}

/// The per-layer metrics of a traced phase, in `BENCHMARK.json` order. A
/// layer that did no work reports 0.
fn per_layer(t: &Traced, traced: &Outcome, untraced_p50_us: f64) -> Vec<Metric> {
    let by_name = t.rec.self_us_by_name();
    let samples = |name: &str| by_name.get(name).map_or(&[][..], |v| &v[..]);
    let p50 = |name: &str| quantile(samples(name), 0.5);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let anyrc_total: f64 = samples("anyrc").iter().sum();
    let request_total: f64 = t.latency_us.iter().sum();
    let eval_total: f64 = samples("eval").iter().sum();
    let ops_total: f64 = t.operators.iter().sum();
    let c = &traced.cache;
    let traced_p50 = quantile(&t.latency_us, 0.5);
    vec![
        ("parse.p50_us", "us", p50("parse")),
        ("classify.p50_us", "us", p50("classify")),
        ("classify.p90_us", "us", quantile(samples("classify"), 0.9)),
        ("genify.p50_us", "us", p50("genify")),
        ("ranf.p50_us", "us", p50("ranf")),
        ("ranf.nodes_per_query", "count", mean(&t.ranf_nodes)),
        ("translate.p50_us", "us", p50("translate")),
        ("optimize.p50_us", "us", p50("optimize")),
        ("optimize.saturate_p50_us", "us", p50("optimize.saturate")),
        (
            "anyrc.share",
            "ratio",
            if request_total > 0.0 {
                anyrc_total / request_total
            } else {
                0.0
            },
        ),
        ("anyrc.p50_us", "us", p50("anyrc")),
        ("eval.p50_us", "us", p50("eval")),
        (
            "eval.us_per_operator",
            "us",
            if ops_total > 0.0 {
                eval_total / ops_total
            } else {
                0.0
            },
        ),
        ("eval.operators_per_query", "count", mean(&t.operators)),
        ("eval.tuples_per_query", "count", mean(&t.tuples)),
        (
            "eval.partitioned_share",
            "ratio",
            ratio(t.partitioned_ops, t.traced_ops),
        ),
        (
            "ivm.materialize_p50_us",
            "us",
            quantile(&t.materialize_us, 0.5),
        ),
        ("ivm.refresh_p50_us", "us", p50("ivm.refresh")),
        ("ivm.refresh_ratio", "ratio", ratio(c.refreshed, c.stale)),
        (
            "cache.plan_hit_ratio",
            "ratio",
            ratio(c.plan_hits, c.plan_hits + c.plan_misses),
        ),
        (
            "cache.result_hit_ratio",
            "ratio",
            ratio(c.result_hits, c.result_hits + c.result_misses),
        ),
        ("cache.entries", "count", c.entries as f64),
        ("db.load_ms", "ms", t.load_ms),
        ("db.apply_delta_p50_us", "us", p50("db.apply_delta")),
        ("protocol.encode_p50_us", "us", p50("protocol.encode")),
        ("protocol.decode_p50_us", "us", p50("protocol.decode")),
        (
            "protocol.response_kb_p50",
            "KiB",
            quantile(&t.response_kb, 0.5),
        ),
        ("server.ping_p50_us", "us", quantile(&t.ping_us, 0.5)),
        (
            "server.residual_p50_us",
            "us",
            quantile(&t.residual_us, 0.5),
        ),
        ("admit.rejected", "count", c.rejected as f64),
        (
            "trace.coverage",
            "ratio",
            if untraced_p50_us > 0.0 {
                quantile(&t.explained_us, 0.5) / untraced_p50_us
            } else {
                0.0
            },
        ),
        ("trace.overhead", "us", traced_p50 - untraced_p50_us),
        ("trace.mismatch", "count", t.mismatch as f64),
    ]
}

/// A deliberately wrong copy of `rel`: one row dropped, or one added when
/// there is none to drop.
fn corrupted(rel: &Relation) -> Relation {
    if rel.arity() == 0 {
        return if rel.is_empty() {
            Relation::unit()
        } else {
            Relation::empty_nullary()
        };
    }
    let mut b = RelationBuilder::new(rel.arity());
    if rel.is_empty() {
        b.push_row_from((0..rel.arity()).map(|_| Value::int(-1)));
    }
    for row in rel.iter().skip(1) {
        b.push_row(row);
    }
    b.finish()
}
