//! Evaluate **arbitrary** relational calculus queries via safe-pair
//! translation — including formulas every recognizer in this crate
//! rejects.
//!
//! The paper's classes (evaluable, allowed, wide-sense evaluable) are
//! decidable under-approximations of domain independence: a formula
//! outside all of them may still be a perfectly sensible query, and even
//! a domain *dependent* formula has a well-defined answer once one fixes
//! the domain semantics. Following the safe-pair idea of Raszyk, Basin,
//! Krstić and Traytel ("translating arbitrary relational calculus
//! queries to safe pairs"), this module translates any rectified formula
//! `F` into **two** formulas inside the recognized classes:
//!
//! * the **fin** leg — `F` relativized to the guard `Dom#(·)` holding
//!   the active domain (every database constant plus the query's
//!   constants). Its answer is the classical *active-domain* answer,
//!   exactly what the [`crate::dom_baseline`] oracles compute — but
//!   produced by the paper's own Dom-free pipeline, because the
//!   relativized formula is evaluable by construction (every free
//!   variable and every quantified variable carries a positive guard
//!   atom).
//! * the **inf** leg — the same relativization against `DomPlus#(·)`,
//!   the active domain extended with `q` fresh "star" constants, where
//!   `q` is the number of (free plus bound) variables of `F`. By the
//!   genericity argument of Ailamazyan–Gilula–Stolboushkin–Schwartz, a
//!   formula with `q` variables cannot distinguish the elements outside
//!   the active domain from each other, and `q` representatives are
//!   enough: a star surviving into the answer at column `j` witnesses
//!   that *infinitely many* values (every non-active-domain value)
//!   satisfy the query at that column.
//!
//! The pair is packaged as an [`AnyAnswer`]: the finite (active-domain)
//! answer, a `maybe_infinite` flag, and a per-column infiniteness mask.
//! For formulas the classifier *does* recognize, the safe pair is
//! skipped entirely: recognized classes are domain independent, so the
//! ordinary pipeline answer is the whole answer and `maybe_infinite` is
//! `false` on every database.
//!
//! # Contract
//!
//! * [`AnyAnswer::finite`] is always the active-domain answer — it
//!   agrees with [`crate::dom_baseline::eval_brute_force`] and
//!   [`crate::dom_baseline::eval_dom`] on every formula, recognized or
//!   not.
//! * [`AnyAnswer::maybe_infinite`] is `true` iff the answer under an
//!   infinite domain contains tuples outside the active domain (for
//!   closed formulas it is always `false` — a 0-ary answer is never
//!   infinite, even when the truth value itself is domain dependent).
//! * Both legs run under **one** budget (`opts.budget` governs the pair
//!   as a single query), and each is served by the same function as an
//!   ordinary query ([`crate::pipeline::compile_and_eval_shared`]'s
//!   serving path): the legs are keyed by the original query text under
//!   salted option keys, their results are keyed by the *base* database
//!   version, and stale cached legs are delta-refreshed
//!   ([`rc_relalg::ivm`]) — the guard tables, which the base database
//!   does not store, get a computed delta spliced into the mutation
//!   chain.
//! * The route follows the request's options: a wide-sense evaluable
//!   formula takes the ordinary pipeline only when
//!   [`CompileOptions::equality_reduction`] is on, and the safe pair
//!   otherwise. Both entry points decide the route the same way: the
//!   ordinary pipeline compiles the query under `opts`, and a query it
//!   rejects as not safe takes the safe pair. A query whose plan is
//!   already cached under its own key is served from that plan without
//!   being parsed or classified again.

use crate::dom_baseline::dom_pred;
use crate::pipeline::{
    classify, compile_and_eval_shared, compile_and_eval_traced, serve_leg, traced_leg,
    CompileOptions, Compiled, PipelineError, QueryOutput, SafetyClass,
};
use rc_formula::ast::Formula;
use rc_formula::term::Var;
use rc_formula::vars::{bound_vars, free_vars, is_rectified, rectified};
use rc_formula::{Symbol, Term, Value};
use rc_relalg::govern::Stage;
use rc_relalg::{
    Database, EvalStats, PipelineTrace, Relation, RelationBuilder, SharedPlanCache, StageSpan,
    StageTracer,
};
use std::collections::BTreeSet;

/// The reserved name of the star-extended domain guard relation (the
/// active domain plus the fresh star constants), the `inf` counterpart
/// of [`dom_pred`].
pub fn dom_plus_pred() -> Symbol {
    Symbol::intern("DomPlus#")
}

/// Salt XORed into the option fingerprint for the fin leg's plan-cache
/// key, so both legs (and the ordinary pipeline) can share one cache
/// under the *original* query text without colliding.
const FIN_SALT: u64 = 0x5afe_9a12_f19f_0001;

/// Salt for the inf leg's plan-cache key (see [`FIN_SALT`]).
const INF_SALT: u64 = 0x5afe_9a12_f19f_0002;

/// The answer to an arbitrary relational calculus query, as a safe pair:
/// the finite (active-domain) part plus infiniteness witnesses.
#[derive(Clone, Debug)]
pub struct AnyAnswer {
    /// The answer columns — the query's free variables in first-occurrence
    /// order.
    pub columns: Vec<Var>,
    /// The classifier's verdict on the original formula.
    pub class: SafetyClass,
    /// `true` when the safe-pair construction actually ran; `false` when
    /// the formula was recognized and served by the ordinary pipeline
    /// (recognized ⇒ domain independent ⇒ the finite answer is total).
    pub safe_pair: bool,
    /// The active-domain answer — agrees with the brute-force and
    /// Dom-baseline oracles on every formula.
    pub finite: Relation,
    /// Does the answer under an infinite domain contain tuples outside
    /// the active domain? Always `false` for recognized (domain
    /// independent) formulas and for closed formulas.
    pub maybe_infinite: bool,
    /// Per-column infiniteness: `per_variable[j]` is `true` when some
    /// infinite-domain answer tuple carries a non-active-domain value in
    /// column `j`. All-`false` iff `maybe_infinite` is `false`.
    pub per_variable: Vec<bool>,
    /// Evaluation counters, summed over both legs (or the single
    /// fast-path evaluation).
    pub stats: EvalStats,
}

/// What the cached serving paths produce: the answer plus which cache
/// layers were hit. For a safe pair the flags are conjunctions over both
/// legs (`plan_cached`/`result_cached`) or a disjunction
/// (`result_refreshed`) — a pair is only "cached" when *both* halves
/// were.
#[derive(Clone, Debug)]
pub struct CachedAnyOutput {
    /// The safe-pair answer.
    pub answer: AnyAnswer,
    /// Were all compilation stages skipped via the plan cache?
    pub plan_cached: bool,
    /// Was all evaluation skipped via the result cache (verbatim or
    /// refreshed)?
    pub result_cached: bool,
    /// Was at least one stale cached leg delta-refreshed rather than
    /// recomputed?
    pub result_refreshed: bool,
}

/// Relativize every quantifier of `f` to the guard predicate and leave
/// everything else structurally intact: `∃y G` becomes
/// `∃y (guard(y) ∧ rel(G))` and `∀y G` becomes
/// `¬∃y (guard(y) ∧ ¬rel(G))`.
fn relativize(f: &Formula, guard: Symbol) -> Formula {
    match f {
        Formula::Atom(_) | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => Formula::not(relativize(g, guard)),
        Formula::And(fs) => Formula::and(fs.iter().map(|g| relativize(g, guard)).collect()),
        Formula::Or(fs) => Formula::or(fs.iter().map(|g| relativize(g, guard)).collect()),
        Formula::Exists(y, g) => Formula::exists(
            *y,
            Formula::and2(guard_atom(guard, *y), relativize(g, guard)),
        ),
        Formula::Forall(y, g) => Formula::not(Formula::exists(
            *y,
            Formula::and2(guard_atom(guard, *y), Formula::not(relativize(g, guard))),
        )),
    }
}

fn guard_atom(guard: Symbol, v: Var) -> Formula {
    Formula::atom(guard, vec![Term::Var(v)])
}

/// The full relativized query: a guard atom for every free variable
/// conjoined with the relativized body. Every free and quantified
/// variable then carries a positive guard atom, so the result is
/// evaluable (Def. 5.2) by construction and compiles through the
/// ordinary pipeline.
fn relativized_query(f: &Formula, guard: Symbol) -> Formula {
    let mut conj: Vec<Formula> = free_vars(f)
        .into_iter()
        .map(|v| guard_atom(guard, v))
        .collect();
    conj.push(relativize(f, guard));
    Formula::and(conj)
}

/// `q` fresh star constants, distinct from every active-domain value and
/// every query constant. The reserved `#` prefix keeps them out of any
/// parseable query text; collisions with programmatically inserted facts
/// are skipped over.
fn star_values(db: &Database, query: &Formula, q: usize) -> Vec<Value> {
    let consts: BTreeSet<Value> = query.constants().into_iter().collect();
    let adom = db.active_domain();
    let mut out = Vec::with_capacity(q);
    let mut i = 0usize;
    while out.len() < q {
        let v = Value::str(&format!("#*{i}"));
        i += 1;
        if adom.contains(&v) || consts.contains(&v) {
            continue;
        }
        out.push(v);
    }
    out
}

/// One leg of the safe pair: the relativized formula, the name of its
/// domain guard relation, and the star constants that guard adds to the
/// active domain (none for the fin leg).
pub(crate) struct LegGuard {
    /// The query relativized to `pred`.
    pub(crate) leg: Formula,
    /// The guard relation's name ([`dom_pred`] or [`dom_plus_pred`]).
    pub(crate) pred: Symbol,
    stars: Vec<Value>,
}

impl LegGuard {
    fn new(rect: &Formula, pred: Symbol, stars: Vec<Value>) -> LegGuard {
        LegGuard {
            leg: relativized_query(rect, pred),
            pred,
            stars,
        }
    }

    /// The guard table contents: active domain ∪ query constants ∪
    /// stars, with the `#default` element when everything is empty
    /// (first-order semantics needs a nonempty domain) — byte-compatible
    /// with [`crate::dom_baseline::augment_with_dom`]'s `Dom#` when there
    /// are no stars.
    pub(crate) fn relation(&self, db: &Database) -> Relation {
        let mut b = RelationBuilder::with_capacity(1, db.active_domain().len() + self.stars.len());
        for &v in db.active_domain() {
            b.push_row(&[v]);
        }
        for c in self.leg.constants() {
            b.push_row(&[c]);
        }
        for &s in &self.stars {
            b.push_row(&[s]);
        }
        if b.is_empty() {
            b.push_row(&[Value::str("#default")]);
        }
        b.finish()
    }

    /// A copy of `db` with the leg's predicates declared and its guard
    /// table installed.
    pub(crate) fn augment(&self, db: &Database) -> Database {
        let mut out = db.clone();
        for (p, arity) in self.leg.predicates() {
            out.declare(p, arity);
        }
        out.insert_relation(self.pred, self.relation(db));
        out
    }
}

/// Build both legs of the safe pair for `f`: fin (guarded by the active
/// domain) and inf (guarded by the active domain plus one star per
/// variable of `f`).
fn legs(f: Formula, db: &Database) -> (LegGuard, LegGuard) {
    let rect = if is_rectified(&f) { f } else { rectified(&f) };
    let q = free_vars(&rect).len() + bound_vars(&rect).len();
    let stars = star_values(db, &rect, q);
    (
        LegGuard::new(&rect, dom_pred(), Vec::new()),
        LegGuard::new(&rect, dom_plus_pred(), stars),
    )
}

/// The class a safe-pair answer reports for a formula the ordinary
/// pipeline rejected under `opts`: with equality reduction on, rejected
/// means no recognized class; with it off, the formula may still be
/// wide-sense evaluable.
fn pair_class(f: &Formula, opts: &CompileOptions) -> SafetyClass {
    if opts.equality_reduction {
        SafetyClass::NotRecognized
    } else {
        classify(f)
    }
}

/// Package a fast-path (recognized-class) pipeline answer as an
/// [`AnyAnswer`]: recognized ⇒ domain independent ⇒ the finite answer is
/// the whole answer.
fn fast_answer(
    columns: Vec<Var>,
    class: SafetyClass,
    relation: Relation,
    stats: EvalStats,
) -> AnyAnswer {
    let n = columns.len();
    AnyAnswer {
        columns,
        class,
        safe_pair: false,
        finite: relation,
        maybe_infinite: false,
        per_variable: vec![false; n],
        stats,
    }
}

/// Package both legs' answers as an [`AnyAnswer`]: the fin leg's answer
/// is the finite part, and stars in the inf leg's answer witness
/// infinitely many values in their columns.
fn pair_answer(
    class: SafetyClass,
    columns: Vec<Var>,
    (finite, mut stats): (Relation, EvalStats),
    (inf, inf_stats): (&Relation, EvalStats),
    stars: &[Value],
) -> AnyAnswer {
    let star_set: BTreeSet<Value> = stars.iter().copied().collect();
    let mut per_variable = vec![false; columns.len()];
    for row in inf.iter() {
        for (j, v) in row.iter().enumerate() {
            per_variable[j] |= star_set.contains(v);
        }
    }
    stats.merge(inf_stats);
    AnyAnswer {
        columns,
        class,
        safe_pair: true,
        finite,
        maybe_infinite: per_variable.contains(&true),
        per_variable,
        stats,
    }
}

/// Evaluate an arbitrary relational calculus query through a concurrently
/// shared cache — the entry point the query server uses for the `any`
/// wire verb. Formulas the ordinary pipeline compiles under `opts` take
/// [`compile_and_eval_shared`]; everything else takes the safe-pair
/// construction (see the module docs for the contract), both legs cached
/// and delta-maintained exactly like ordinary queries, under the original
/// query text.
///
/// ```
/// use rc_safety::anyrc::compile_and_eval_any_shared;
/// use rc_safety::pipeline::CompileOptions;
/// use rc_relalg::{Database, SharedPlanCache};
///
/// let db = Database::from_facts("P(1)\nP(2)\nQ(2)\nQ(3)").unwrap();
/// // `¬P(x)` is rejected by every recognizer, but has a perfectly good
/// // active-domain answer — and an infinite unrestricted-domain one.
/// let cache = SharedPlanCache::new();
/// let out = compile_and_eval_any_shared("!P(x)", &db, CompileOptions::default(), &cache)
///     .unwrap();
/// assert_eq!(out.answer.finite.len(), 1); // {3}
/// assert!(out.answer.maybe_infinite);
/// ```
pub fn compile_and_eval_any_shared(
    text: &str,
    db: &Database,
    opts: CompileOptions,
    cache: &SharedPlanCache<Compiled>,
) -> Result<CachedAnyOutput, PipelineError> {
    match compile_and_eval_shared(text, db, opts.clone(), cache) {
        Err(PipelineError::NotSafe(_)) => {}
        res => {
            return res.map(|out| CachedAnyOutput {
                answer: fast_answer(
                    out.compiled.columns.clone(),
                    out.compiled.class,
                    out.relation,
                    out.stats,
                ),
                plan_cached: out.plan_cached,
                result_cached: out.result_cached,
                result_refreshed: out.result_refreshed,
            })
        }
    }
    let f = rc_formula::parse(text).map_err(PipelineError::Parse)?;
    let class = pair_class(&f, &opts);
    let (fin, inf) = legs(f, db);
    let fin_out = serve_leg(text, FIN_SALT, Some(&fin), db, &opts, cache)?;
    let inf_out = serve_leg(text, INF_SALT, Some(&inf), db, &opts, cache)?;
    Ok(CachedAnyOutput {
        answer: pair_answer(
            class,
            fin_out.compiled.columns.clone(),
            (fin_out.relation, fin_out.stats),
            (&inf_out.relation, inf_out.stats),
            &inf.stars,
        ),
        plan_cached: fin_out.plan_cached && inf_out.plan_cached,
        result_cached: fin_out.result_cached && inf_out.result_cached,
        result_refreshed: fin_out.result_refreshed || inf_out.result_refreshed,
    })
}

/// Append the leg tag to every stage span of one leg's trace.
fn tag_spans(spans: &mut [StageSpan], tag: &str) {
    for s in spans.iter_mut() {
        if s.detail.is_empty() {
            s.detail = format!("anyrc={tag}");
        } else {
            s.detail = format!("{} anyrc={tag}", s.detail);
        }
    }
}

/// One uncached, traced leg: [`traced_leg`] against the guard-augmented
/// database, every stage span tagged `anyrc=fin|inf`.
fn traced_pair_leg(
    leg: &LegGuard,
    db: &Database,
    opts: CompileOptions,
    tag: &str,
) -> (Result<QueryOutput, PipelineError>, PipelineTrace) {
    let (result, mut trace) = traced_leg(&leg.leg, &leg.augment(db), opts, StageTracer::on());
    tag_spans(&mut trace.stages, tag);
    (result, trace)
}

/// The safe-pair evaluation with full observability: the returned trace
/// concatenates the parse span with both legs' stage spans, each tagged
/// `anyrc=fin` or `anyrc=inf` in its detail; the operator tree is the
/// fin leg's (the one producing [`AnyAnswer::finite`]). Fast-path
/// queries return the ordinary [`compile_and_eval_traced`] trace
/// unchanged.
pub fn compile_and_eval_any_traced(
    text: &str,
    db: &Database,
    opts: CompileOptions,
) -> (Result<AnyAnswer, PipelineError>, PipelineTrace) {
    match compile_and_eval_traced(text, db, opts.clone()) {
        (Err(PipelineError::NotSafe(_)), _) => {}
        (res, trace) => {
            return (
                res.map(|out: QueryOutput| {
                    let class = out.compiled.class;
                    fast_answer(out.compiled.columns.clone(), class, out.relation, out.stats)
                }),
                trace,
            )
        }
    }
    // The pair's trace starts with its own parse span; the rejected
    // compile's trace is dropped.
    let mut st = StageTracer::on();
    st.begin(Stage::Parse, text.len() as u64);
    let f = match rc_formula::parse(text) {
        Ok(f) => f,
        Err(e) => return (Err(PipelineError::Parse(e)), st.into_trace(None)),
    };
    st.end(f.node_count() as u64, String::new());
    let class = pair_class(&f, &opts);
    let mut stages: Vec<StageSpan> = st.stages().to_vec();
    let (fin, inf) = legs(f, db);
    let (fin_res, fin_trace) = traced_pair_leg(&fin, db, opts.clone(), "fin");
    stages.extend(fin_trace.stages);
    let fin_out = match fin_res {
        Ok(v) => v,
        Err(e) => {
            return (
                Err(e),
                PipelineTrace {
                    stages,
                    root: fin_trace.root,
                },
            )
        }
    };
    let (inf_res, inf_trace) = traced_pair_leg(&inf, db, opts, "inf");
    stages.extend(inf_trace.stages);
    let trace = PipelineTrace {
        stages,
        root: fin_trace.root,
    };
    let inf_out = match inf_res {
        Ok(v) => v,
        Err(e) => return (Err(e), trace),
    };
    let answer = pair_answer(
        class,
        fin_out.compiled.columns,
        (fin_out.relation, fin_out.stats),
        (&inf_out.relation, inf_out.stats),
        &inf.stars,
    );
    (Ok(answer), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom_baseline::eval_brute_force;
    use rc_formula::parse;

    fn db() -> Database {
        Database::from_facts("P(1)\nP(2)\nQ(2)\nQ(3)\nR(1, 2)\nR(3, 1)").unwrap()
    }

    fn any(text: &str, db: &Database) -> AnyAnswer {
        compile_and_eval_any_shared(text, db, CompileOptions::default(), &SharedPlanCache::new())
            .unwrap()
            .answer
    }

    #[test]
    fn negation_matches_oracle_and_flags_infinite() {
        let out = any("!P(x)", &db());
        assert_eq!(out.class, SafetyClass::NotRecognized);
        assert!(out.safe_pair);
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("!P(x)").unwrap(), &db())
        );
        assert!(out.maybe_infinite);
        assert_eq!(out.per_variable, vec![true]);
    }

    #[test]
    fn cross_disjunction_flags_both_columns() {
        let out = any("P(x) | Q(y)", &db());
        assert!(out.safe_pair);
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("P(x) | Q(y)").unwrap(), &db())
        );
        assert!(out.maybe_infinite);
        assert_eq!(out.per_variable, vec![true, true]);
    }

    #[test]
    fn recognized_query_takes_fast_path() {
        let out = any("P(x) & !Q(x)", &db());
        assert_eq!(out.class, SafetyClass::Allowed);
        assert!(!out.safe_pair);
        assert!(!out.maybe_infinite);
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("P(x) & !Q(x)").unwrap(), &db())
        );
    }

    #[test]
    fn closed_formula_is_never_infinite() {
        // Domain dependent truth value, but a 0-ary answer is finite.
        let out = any("forall y. P(y)", &db());
        assert!(out.safe_pair);
        assert!(!out.maybe_infinite);
        assert_eq!(out.per_variable, Vec::<bool>::new());
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("forall y. P(y)").unwrap(), &db())
        );
    }

    #[test]
    fn finite_on_empty_database() {
        let empty = Database::new();
        let out = any("!P(x)", &empty);
        // Active domain is {#default}; P is empty, so ¬P holds of it.
        assert_eq!(out.finite.len(), 1);
        assert!(out.maybe_infinite);
    }

    #[test]
    fn guarded_but_unrecognized_formula_stays_finite() {
        // Example 6.3's G: domain independent but outside every class.
        let text = "forall x. exists y. ((R(y, z) & Q(x)) | (R(y, z) & !P(x)))";
        let out = any(text, &db());
        assert_eq!(out.class, SafetyClass::NotRecognized);
        assert!(out.safe_pair);
        assert!(!out.maybe_infinite, "DI formula must have no stars");
        assert_eq!(out.finite, eval_brute_force(&parse(text).unwrap(), &db()));
    }

    #[test]
    fn cached_pair_serves_and_refreshes() {
        let mut database = db();
        let cache = SharedPlanCache::new();
        let text = "P(x) | Q(y)";
        let cold = compile_and_eval_any_shared(text, &database, CompileOptions::default(), &cache)
            .unwrap();
        assert!(!cold.plan_cached && !cold.result_cached);
        let warm = compile_and_eval_any_shared(text, &database, CompileOptions::default(), &cache)
            .unwrap();
        assert!(warm.plan_cached && warm.result_cached && !warm.result_refreshed);
        assert_eq!(cold.answer.finite, warm.answer.finite);
        assert_eq!(cold.answer.per_variable, warm.answer.per_variable);
        // Mutate: the guard tables change with the active domain, so the
        // refresh path must splice computed guard deltas into the chain.
        database.apply_delta("P(7)").unwrap();
        let fresh = any(text, &database);
        let served =
            compile_and_eval_any_shared(text, &database, CompileOptions::default(), &cache)
                .unwrap();
        assert_eq!(served.answer.finite, fresh.finite);
        assert_eq!(served.answer.per_variable, fresh.per_variable);
    }

    #[test]
    fn traced_pair_tags_both_legs() {
        let (res, trace) = compile_and_eval_any_traced("!P(x)", &db(), CompileOptions::default());
        let out = res.unwrap();
        assert!(out.maybe_infinite);
        let rendered = trace.deterministic();
        assert!(rendered.contains("anyrc=fin"), "{rendered}");
        assert!(rendered.contains("anyrc=inf"), "{rendered}");
        assert!(trace.root.is_some());
    }
}
