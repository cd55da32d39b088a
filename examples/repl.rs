//! An interactive query console over the safety pipeline.
//!
//! ```sh
//! cargo run --example repl
//! ```
//!
//! Commands:
//!
//! * `fact <Atom>` — insert a ground fact, e.g. `fact P(1, 'a')`
//! * `db` — show the database
//! * `explain <formula>` — classify, show every compilation stage, and
//!   render the plan tree with estimated cardinalities
//! * `explain analyze <formula>` — additionally evaluate with tracing on:
//!   per-stage wall times and the plan tree annotated with estimated vs.
//!   actual cardinalities, dedup ratios, and per-operator times
//! * `budget tuples <n>` / `budget nodes <n>` / `budget ms <n>` — cap the
//!   intermediate tuples, formula/plan nodes, or wall-clock per query
//! * `budget off` / `budget` — clear / show the current limits
//! * `partitions <n>` / `partitions auto` — force every partitionable
//!   operator kernel to exactly `n` partitions (1 = sequential kernels) /
//!   return to the cardinality-and-cores heuristic
//! * `cache` / `cache clear` — show plan/result cache statistics / drop
//!   all cached entries (inserting a fact never serves stale answers: the
//!   database version bump invalidates results automatically)
//! * `stats` / `stats clear` — show the per-database statistics the
//!   cost-based planner reads (per-relation rows and per-column distinct
//!   counts, the stats epoch, and how many observed cardinalities the
//!   trace feedback loop has filed) / drop them all, moving the epoch
//!   (`explain analyze` repopulates observations — re-running a query
//!   after one lets the planner reorder joins against observed truth)
//! * `<formula>` — compile and evaluate (served through the plan/result
//!   cache: repeating a query skips compilation, and — until the database
//!   changes — evaluation too)
//! * `query any <formula>` — evaluate *any* formula, recognized-safe or
//!   not, via the safe-pair translation: prints the active-domain answer
//!   and warns when the full answer may be infinite (naming the columns)
//! * `quit`
//!
//! ## Client mode
//!
//! ```sh
//! cargo run --example repl -- --connect 127.0.0.1:4567
//! ```
//!
//! Instead of an in-process database, serve every command over one
//! `rc_serve` connection (see `crates/serve`): `fact` becomes a mutation,
//! `stats` asks the server, `explain analyze` requests a traced
//! evaluation, `query any` sends the safe-pair `any` verb (the response
//! carries the infiniteness flags), and plain formulas are served through
//! the server's shared plan cache. Budget and partition commands translate
//! to per-request wire limits. Start a server with
//! `cargo run -p rc-serve --bin rc_serve`.

use rcsafe::formula::vars::rectified;
use rcsafe::relalg::trace::{render_analyze, render_plan};
use rcsafe::relalg::EvalStats;
use rcsafe::safety::check_evaluable;
use rcsafe::safety::pipeline::{
    compile_and_eval, compile_and_eval_shared, compile_and_eval_traced, CompileOptions, Compiled,
    PipelineError, QueryOutput,
};
use rcsafe::{
    classify, compile_and_eval_any_shared, parse, Budget, Database, Relation, SafetyClass,
    SharedPlanCache,
};
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// What every query mode produces: cached serving hands back a shared
/// `Arc<Compiled>`, the uncached paths an owned one — unify on the `Arc`.
struct Served {
    compiled: Arc<Compiled>,
    relation: Relation,
    stats: EvalStats,
}

impl From<QueryOutput> for Served {
    fn from(o: QueryOutput) -> Served {
        Served {
            compiled: Arc::new(o.compiled),
            relation: o.relation,
            stats: o.stats,
        }
    }
}

/// The limits the user has configured; a fresh [`Budget`] is armed from
/// these for every query (a deadline starts counting when armed, and
/// tuple consumption is cumulative, so budgets must not be reused).
#[derive(Clone, Copy, Default)]
struct Limits {
    tuples: Option<u64>,
    nodes: Option<u64>,
    ms: Option<u64>,
    partitions: Option<usize>,
}

impl Limits {
    fn arm(&self) -> Budget {
        let mut b = Budget::new();
        if let Some(t) = self.tuples {
            b = b.with_max_tuples(t);
        }
        if let Some(n) = self.nodes {
            b = b.with_max_nodes(n);
        }
        if let Some(ms) = self.ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(p) = self.partitions {
            b = b.with_partitions(p);
        }
        b
    }

    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(t) = self.tuples {
            parts.push(format!("tuples ≤ {t}"));
        }
        if let Some(n) = self.nodes {
            parts.push(format!("nodes ≤ {n}"));
        }
        if let Some(ms) = self.ms {
            parts.push(format!("deadline {ms} ms"));
        }
        if let Some(p) = self.partitions {
            parts.push(format!("partitions = {p}"));
        }
        if parts.is_empty() {
            "unlimited".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// Handle a `budget …` command line; returns the updated limits.
fn budget_command(args: &str, mut limits: Limits) -> Limits {
    let mut words = args.split_whitespace();
    match (words.next(), words.next()) {
        (None, _) => println!("  budget: {}", limits.describe()),
        (Some("off"), _) => {
            limits = Limits::default();
            println!("  budget cleared");
        }
        (Some(kind @ ("tuples" | "nodes" | "ms")), Some(n)) => match n.parse::<u64>() {
            Ok(v) => {
                match kind {
                    "tuples" => limits.tuples = Some(v),
                    "nodes" => limits.nodes = Some(v),
                    _ => limits.ms = Some(v),
                }
                println!("  budget: {}", limits.describe());
            }
            Err(_) => println!("  error: `{n}` is not a number"),
        },
        _ => println!("  usage: budget [tuples <n> | nodes <n> | ms <n> | off]"),
    }
    limits
}

/// The `--connect` client loop: the same console surface, served over one
/// `rc_serve` connection instead of an in-process database.
fn client_main(addr: &str) {
    use rc_serve::{Client, Priority, Request, Response, Verb, WireLimits};

    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rcsafe console: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut limits = Limits::default();
    println!("rcsafe console — connected to {addr}");
    println!(
        "Commands: fact, stats, budget, partitions, explain analyze, query any, <formula>, \
         quit.\n"
    );

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("rc[{addr}]> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        if line == "budget" {
            limits = budget_command("", limits);
            continue;
        }
        if let Some(args) = line.strip_prefix("budget ") {
            limits = budget_command(args, limits);
            continue;
        }
        if let Some(args) = line.strip_prefix("partitions ") {
            match args.trim() {
                "auto" => limits.partitions = None,
                n => match n.parse::<usize>() {
                    Ok(v) if v >= 1 => limits.partitions = Some(v),
                    _ => {
                        println!("  usage: partitions [<n ≥ 1> | auto]");
                        continue;
                    }
                },
            }
            println!("  budget: {}", limits.describe());
            continue;
        }
        if line == "stats" {
            match client.stats() {
                Ok(pairs) => {
                    for (k, v) in pairs {
                        println!("  {k}: {v}");
                    }
                }
                Err(e) => println!("  error: {e}"),
            }
            continue;
        }
        let wire_limits = WireLimits {
            tuples: limits.tuples,
            nodes: limits.nodes,
            ms: limits.ms,
            partitions: limits.partitions,
        };
        let request = if let Some(fact) = line.strip_prefix("fact ") {
            Request::mutate(fact)
        } else if let Some(text) = line.strip_prefix("explain analyze ") {
            Request {
                limits: wire_limits,
                ..Request::analyze(text)
            }
        } else if let Some(text) = line.strip_prefix("query any ") {
            Request {
                limits: wire_limits,
                ..Request::any(text)
            }
        } else {
            Request {
                verb: Verb::Query,
                priority: Priority::Normal,
                limits: wire_limits,
                ..Request::query(line)
            }
        };
        match client.request(&request) {
            Err(e) => {
                println!("  connection error: {e}");
                break;
            }
            Ok(Response::Mutate { version, delta }) => {
                let summary: Vec<String> = delta
                    .iter()
                    .map(|d| format!("{} +{} -{}", d.table, d.inserted, d.deleted))
                    .collect();
                if summary.is_empty() {
                    println!("  ok (version {version}, no net change)");
                } else {
                    println!("  ok (version {version}; {})", summary.join(", "));
                }
            }
            Ok(Response::Query(ok)) => {
                match (ok.plan_cached, ok.result_cached, ok.result_refreshed) {
                    (_, true, true) => {
                        println!("  result refreshed from cached view (delta applied)")
                    }
                    (_, true, false) => println!("  result served from cache (database unchanged)"),
                    (true, false, _) => println!("  plan served from cache"),
                    (false, false, _) => {}
                }
                println!(
                    "  stats:    {} operators, {} tuples, {} budget checks (version {})",
                    ok.stats.operators,
                    ok.stats.tuples_produced,
                    ok.stats.budget_checks,
                    ok.version
                );
                if let Some(trace) = &ok.trace_json {
                    println!("  trace:    {trace}");
                }
                if ok.any_infinite == Some(true) {
                    let starred = ok
                        .any_infinite_vars
                        .as_deref()
                        .unwrap_or(&[])
                        .iter()
                        .zip(&ok.columns)
                        .filter(|(inf, _)| **inf)
                        .map(|(_, c)| c.as_str())
                        .collect::<Vec<_>>()
                        .join(", ");
                    println!(
                        "  warning: the full answer may be infinite — the active-domain \
                         answer below is complete only within the database ({starred})"
                    );
                }
                if ok.columns.is_empty() {
                    println!("  {}", ok.relation.as_bool().unwrap_or(false));
                } else {
                    println!("  ({}) ∈ {}", ok.columns.join(", "), ok.relation);
                }
            }
            Ok(Response::Error(e)) => {
                print!("  {} error", e.kind);
                if let Some(stage) = &e.stage {
                    print!(" in stage {stage}");
                }
                println!(": {}", e.message);
            }
            Ok(other) => println!("  unexpected response: {other:?}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--connect") {
        match args.get(pos + 1) {
            Some(addr) => {
                client_main(addr);
                return;
            }
            None => {
                eprintln!("--connect needs an address (e.g. --connect 127.0.0.1:4567)");
                std::process::exit(2);
            }
        }
    }
    let mut db = Database::from_facts(
        "Part('bolt')\nPart('nut')\nSupplies('acme', 'bolt')\nSupplies('acme', 'nut')\nSupplies('busy', 'bolt')",
    )
    .unwrap();
    let mut limits = Limits::default();
    let cache: SharedPlanCache<Compiled> = SharedPlanCache::new();

    println!("rcsafe console — relational calculus with safe translation");
    println!("preloaded: Part/1, Supplies/2. Type `help` for commands.\n");

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("rc> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "quit" | "exit" => break,
            "help" => {
                println!("  fact <Atom>        insert a ground fact");
                println!("  db                 show the database");
                println!("  explain <formula>  show all compilation stages + estimated plan");
                println!("  explain analyze <formula>");
                println!("                     evaluate traced: stage times, est vs actual rows");
                println!("  budget tuples <n>  cap intermediate tuples per query");
                println!("  budget nodes <n>   cap formula/plan size per query");
                println!("  budget ms <n>      wall-clock deadline per query");
                println!("  budget off         remove all limits (budget: show them)");
                println!("  partitions <n>     force n-way partitioned kernels (1 = sequential)");
                println!("  partitions auto    partition by cardinality and cores (default)");
                println!("  cache              show plan/result cache statistics");
                println!("  cache clear        drop all cached plans and results");
                println!("  stats              show planner statistics (rows, distincts, epoch)");
                println!("  stats clear        drop table stats and observed cardinalities");
                println!("  <formula>          evaluate a query");
                println!("  query any <formula>");
                println!("                     evaluate any formula (safe-pair translation):");
                println!("                     active-domain answer + may-be-infinite warning");
                println!("  quit               leave");
                continue;
            }
            "db" => {
                print!("{db}");
                continue;
            }
            _ => {}
        }
        if let Some(fact) = line.strip_prefix("fact ") {
            match db.load_facts(fact) {
                Ok(()) => println!("  ok"),
                Err(e) => println!("  error: {e}"),
            }
            continue;
        }
        if line == "cache" {
            let s = cache.stats();
            println!(
                "  plans: {} cached ({} hits / {} misses)",
                cache.plan_count(),
                s.plan_hits,
                s.plan_misses
            );
            println!(
                "  results: {} cached ({} hits / {} misses, {} stale)",
                cache.result_count(),
                s.result_hits,
                s.result_misses,
                s.stale_results
            );
            continue;
        }
        if line == "cache clear" {
            cache.clear();
            println!("  cache cleared");
            continue;
        }
        if line == "stats" {
            println!("  stats epoch: {}", db.stats_epoch());
            let mut preds = db.predicates();
            preds.sort_by_key(|p| p.as_str().to_string());
            for p in preds {
                match db.table_stats(p) {
                    Some(ts) => {
                        let ds = ts
                            .distinct
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join(", ");
                        println!("  {p}: {} rows, distinct per column [{ds}]", ts.rows);
                    }
                    None => println!("  {p}: no stats"),
                }
            }
            println!(
                "  observed cardinalities on file: {} (filed by `explain analyze`)",
                db.observed_count()
            );
            continue;
        }
        if line == "stats clear" {
            db.clear_stats();
            println!("  stats cleared (epoch moved: cached plans will re-plan)");
            continue;
        }
        if line == "budget" {
            limits = budget_command("", limits);
            continue;
        }
        if let Some(args) = line.strip_prefix("budget ") {
            limits = budget_command(args, limits);
            continue;
        }
        if let Some(args) = line.strip_prefix("partitions ") {
            match args.trim() {
                "auto" => {
                    limits.partitions = None;
                    println!("  partitions: auto (cardinality/cores heuristic)");
                }
                n => match n.parse::<usize>() {
                    Ok(0) | Err(_) => println!("  usage: partitions [<n ≥ 1> | auto]"),
                    Ok(v) => {
                        limits.partitions = Some(v);
                        println!("  partitions: forced to {v}");
                    }
                },
            }
            continue;
        }
        if let Some(text) = line.strip_prefix("query any ") {
            let opts = CompileOptions {
                budget: limits.arm(),
                ..CompileOptions::default()
            };
            match compile_and_eval_any_shared(text, &db, opts, &cache) {
                Ok(out) => {
                    match (out.plan_cached, out.result_cached, out.result_refreshed) {
                        (_, true, true) => {
                            println!("  result refreshed from cached view (delta applied)")
                        }
                        (_, true, false) => {
                            println!("  result served from cache (database unchanged)")
                        }
                        (true, false, _) => println!("  plan served from cache"),
                        (false, false, _) => {}
                    }
                    let a = &out.answer;
                    if a.safe_pair {
                        println!("  not recognized safe: evaluated via safe-pair translation");
                    }
                    if a.maybe_infinite {
                        let starred = a
                            .columns
                            .iter()
                            .zip(&a.per_variable)
                            .filter(|(_, inf)| **inf)
                            .map(|(v, _)| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", ");
                        println!(
                            "  warning: the full answer may be infinite — the active-domain \
                             answer below is complete only within the database ({starred})"
                        );
                    }
                    if a.columns.is_empty() {
                        println!("  {}", a.finite.as_bool().unwrap_or(false));
                    } else {
                        let cols = a
                            .columns
                            .iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", ");
                        println!("  ({cols}) ∈ {}", a.finite);
                    }
                }
                Err(PipelineError::Parse(e)) => println!("  parse error: {e}"),
                Err(PipelineError::Budget(b)) => println!("  budget exceeded: {b}"),
                Err(e) => println!("  error: {e}"),
            }
            continue;
        }
        #[derive(PartialEq)]
        enum Mode {
            Plain,
            Explain,
            Analyze,
        }
        let (mode, text) = if let Some(rest) = line.strip_prefix("explain analyze ") {
            (Mode::Analyze, rest)
        } else if let Some(rest) = line.strip_prefix("explain ") {
            (Mode::Explain, rest)
        } else {
            (Mode::Plain, line)
        };
        // Pre-classify for a friendlier rejection than the raw error,
        // pointing at the innermost violating subformula when we can.
        if let Ok(f) = parse(text) {
            if classify(&f) == SafetyClass::NotRecognized {
                match check_evaluable(&rectified(&f)) {
                    Err(v) => println!("  rejected: {v}"),
                    Ok(()) => {
                        println!("  rejected: not in a recognized safe class (Defs. 5.2/5.3/A.1)")
                    }
                }
                println!("  try: query any {text}");
                continue;
            }
        }
        let opts = CompileOptions {
            budget: limits.arm(),
            ..CompileOptions::default()
        };
        // Plain queries are served through the cross-run cache; `explain`
        // modes always recompile so the reported stages stay live.
        let (result, trace, served) = if mode == Mode::Analyze {
            let (r, t) = compile_and_eval_traced(text, &db, opts);
            (r.map(Served::from), Some(t), None)
        } else if mode == Mode::Explain {
            (
                compile_and_eval(text, &db, opts).map(Served::from),
                None,
                None,
            )
        } else {
            match compile_and_eval_shared(text, &db, opts, &cache) {
                Ok(o) => {
                    let note = match (o.plan_cached, o.result_cached, o.result_refreshed) {
                        (_, true, true) => {
                            Some("result refreshed from cached view (delta applied)")
                        }
                        (_, true, false) => Some("result served from cache (database unchanged)"),
                        (true, false, _) => Some("plan served from cache"),
                        (false, false, _) => None,
                    };
                    (
                        Ok(Served {
                            compiled: o.compiled,
                            relation: o.relation,
                            stats: o.stats,
                        }),
                        None,
                        note,
                    )
                }
                Err(e) => (Err(e), None, None),
            }
        };
        match result {
            Err(PipelineError::Parse(e)) => println!("  parse error: {e}"),
            Err(PipelineError::NotSafe(v)) => println!("  rejected: {v}"),
            Err(PipelineError::Budget(b)) => {
                println!("  budget exceeded: {b}");
                // The trace still names the hot operator on a trip.
                if let Some(hot) = trace.as_ref().and_then(|t| t.hot_operator()) {
                    println!("  hot operator: {} (inputs {:?})", hot.op, hot.rows_in);
                }
            }
            Err(e) => println!("  error: {e}"),
            Ok(outcome) => {
                let c: &Compiled = &outcome.compiled;
                if let Some(note) = served {
                    println!("  {note}");
                }
                if mode != Mode::Plain {
                    for line in c.explain().lines().skip(1) {
                        println!("  {line}");
                    }
                    println!(
                        "  stats:    {} operators, {} tuples, {} budget checks",
                        outcome.stats.operators,
                        outcome.stats.tuples_produced,
                        outcome.stats.budget_checks
                    );
                }
                match (&mode, &trace) {
                    (Mode::Explain, _) => {
                        println!("  plan (estimated rows):");
                        for line in render_plan(&c.expr, &db).lines() {
                            println!("    {line}");
                        }
                    }
                    (Mode::Analyze, Some(t)) => {
                        println!("  stages:");
                        // render() appends the operator tree; the annotated
                        // plan below covers that, so stop at the stage list.
                        for line in t.render().lines().take_while(|l| *l != "operators:") {
                            println!("    {line}");
                        }
                        println!("  plan (estimated vs actual rows):");
                        for line in render_analyze(&c.expr, &db, t.root.as_ref()).lines() {
                            println!("    {line}");
                        }
                    }
                    _ => {}
                }
                let rel = &outcome.relation;
                let cols = c
                    .columns
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                if c.columns.is_empty() {
                    println!("  {}", rel.as_bool().unwrap());
                } else {
                    println!("  ({cols}) ∈ {rel}");
                }
            }
        }
    }
}
