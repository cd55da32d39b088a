//! The end-to-end query pipeline: classify → (equality-reduce) → `genify`
//! → `ranf` → translate → simplify → evaluate.
//!
//! This is the public face of the reproduction: given any relational
//! calculus formula, [`compile`] either produces a Dom-free relational
//! algebra expression computing its answer, or rejects it with the reason
//! it is unsafe. Unlike the approaches the paper criticizes (Sec. 3), the
//! pipeline never silently reinterprets a formula: every transformation
//! preserves logical equivalence, and unsafety is reported, not papered
//! over.

use crate::anyrc::LegGuard;
use crate::classes::{check_evaluable, is_allowed, SafetyViolation};
use crate::eqreduce::equality_reduce;
use crate::generator::ConjunctChoice;
use crate::genify::{genify_reported, GenifyError};
use crate::ranf::{ranf_reported, RanfError};
use crate::translate::{translate_reported, TranslateError};
use rc_formula::ast::Formula;
use rc_formula::parser::ParseError;
use rc_formula::term::Var;
use rc_formula::vars::{free_vars, is_rectified, rectified};
use rc_relalg::govern::{Budget, BudgetExceeded, Stage};
use rc_relalg::{
    eval_shared, eval_traced, materialize, refresh, worth_refreshing, Database, Estimator,
    EvalError, EvalStats, MaintainedView, PipelineTrace, RaExpr, RefreshError, Relation,
    SharedPlanCache, StageTracer, TableDelta, Tracer,
};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The safety classes of the paper, most restrictive first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyClass {
    /// Allowed (Def. 5.3) — directly translatable.
    Allowed,
    /// Evaluable (Def. 5.2) but not allowed — needs `genify`.
    Evaluable,
    /// Wide-sense evaluable (Def. A.1) — needs equality reduction first.
    WideSenseEvaluable,
    /// Not recognized as safe (may or may not be domain independent —
    /// the general question is undecidable, Sec. 2.2).
    NotRecognized,
}

impl fmt::Display for SafetyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyClass::Allowed => write!(f, "allowed"),
            SafetyClass::Evaluable => write!(f, "evaluable"),
            SafetyClass::WideSenseEvaluable => write!(f, "wide-sense evaluable"),
            SafetyClass::NotRecognized => write!(f, "not recognized as safe"),
        }
    }
}

/// Classify a formula into the paper's hierarchy.
///
/// The class checks (Defs. 5.2/5.3 via `gen`/`con`) assume a *rectified*
/// formula — distinct bound variables, none shadowing a free one — so the
/// input is rectified here first (classes are invariant under renaming of
/// bound variables, and the rest of the pipeline compiles the rectified
/// form anyway). On raw shadowed input the checks are conservative, never
/// unsound: `gen` refuses to cross a binder that rebinds the queried
/// variable, so an unrectified formula could only be *downgraded* (e.g.
/// `Q(x) ∨ ¬∃x true` reporting `NotRecognized` for what is plainly
/// `Q(x)`), never accepted into a class it does not belong to.
pub fn classify(f: &Formula) -> SafetyClass {
    let renamed;
    let f = if is_rectified(f) {
        f
    } else {
        renamed = rectified(f);
        &renamed
    };
    find_evaluable(f, true).map_or(SafetyClass::NotRecognized, |(class, _)| class)
}

/// The one classification decision, on a rectified formula: allowed →
/// evaluable → (when `equality_reduction` is on) wide-sense evaluable.
/// Returns the class and, for a wide-sense formula, its equality-reduced
/// form — the evaluable form the rest of the pipeline compiles (otherwise
/// that is `f` itself) — or the violation `f` itself fails on.
fn find_evaluable(
    f: &Formula,
    equality_reduction: bool,
) -> Result<(SafetyClass, Option<Formula>), SafetyViolation> {
    if is_allowed(f) {
        return Ok((SafetyClass::Allowed, None));
    }
    let violation = match check_evaluable(f) {
        Ok(()) => return Ok((SafetyClass::Evaluable, None)),
        Err(v) => v,
    };
    if equality_reduction {
        let r = equality_reduce(f);
        if check_evaluable(&r).is_ok() {
            return Ok((SafetyClass::WideSenseEvaluable, Some(r)));
        }
    }
    Err(violation)
}

/// Options for [`compile`].
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Attempt equality reduction (Alg. A.1) when the formula is not
    /// strict-sense evaluable.
    pub equality_reduction: bool,
    /// Run the algebraic simplifier on the final expression.
    pub optimize: bool,
    /// Resource budget governing every stage (subsumes the old
    /// `RanfBudget`: set [`Budget::with_max_nodes`] to bound formula
    /// blowup). The default is unlimited apart from `ranf`'s built-in
    /// distribution backstop.
    pub budget: Budget,
    /// Resolution of the Fig. 5 conjunction nondeterminism in `genify`.
    pub generator_choice: ConjunctChoice,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            equality_reduction: true,
            optimize: true,
            budget: Budget::new(),
            generator_choice: ConjunctChoice::Smallest,
        }
    }
}

impl CompileOptions {
    /// Fingerprint of the *semantic* options — the ones that change what
    /// plan a query text compiles to. Used as part of the
    /// [`SharedPlanCache`] plan key so that toggling, say, the optimizer cannot
    /// serve a plan compiled under different options. The budget is
    /// deliberately excluded: it bounds resources, never the plan.
    pub fn cache_key(&self) -> u64 {
        let mut h = rc_formula::fxhash::FxHasher::default();
        self.equality_reduction.hash(&mut h);
        self.optimize.hash(&mut h);
        match self.generator_choice {
            ConjunctChoice::Smallest => 0u8.hash(&mut h),
            ConjunctChoice::First => 1u8.hash(&mut h),
        }
        h.finish()
    }
}

/// A compiled query: every intermediate stage is kept for inspection.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The (rectified) input formula.
    pub original: Formula,
    /// Its safety class.
    pub class: SafetyClass,
    /// The equality-reduced form, when that stage ran.
    pub reduced: Option<Formula>,
    /// The allowed form produced by `genify` (Alg. 8.1).
    pub allowed_form: Formula,
    /// The RANF form (Alg. 9.1).
    pub ranf_form: Formula,
    /// The final relational algebra expression.
    pub expr: RaExpr,
    /// Answer columns: the free variables of the input, in first-occurrence
    /// order.
    pub columns: Vec<Var>,
}

/// Compilation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The formula is not in any recognized safe class.
    NotSafe(SafetyViolation),
    /// A resource bound tripped; carries the stage, bound, and consumption.
    Budget(BudgetExceeded),
    /// `ranf` failed internally.
    Ranf(RanfError),
    /// Translation failed (should not happen on `ranf` output).
    Translate(TranslateError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotSafe(v) => write!(f, "query is not safe: {v}"),
            CompileError::Budget(b) => write!(f, "budget exceeded: {b}"),
            CompileError::Ranf(e) => write!(f, "normalization failed: {e}"),
            CompileError::Translate(e) => write!(f, "translation failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<GenifyError> for CompileError {
    fn from(e: GenifyError) -> Self {
        match e {
            GenifyError::NotEvaluable(v) => CompileError::NotSafe(v),
            GenifyError::Budget(b) => CompileError::Budget(b),
        }
    }
}

impl From<RanfError> for CompileError {
    fn from(e: RanfError) -> Self {
        match e {
            RanfError::Budget(b) => CompileError::Budget(b),
            other => CompileError::Ranf(other),
        }
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> Self {
        match e {
            TranslateError::Budget(b) => CompileError::Budget(b),
            other => CompileError::Translate(other),
        }
    }
}

/// Compile a formula with default options.
pub fn compile(f: &Formula) -> Result<Compiled, CompileError> {
    compile_with(f, CompileOptions::default())
}

/// Compile a formula into a Dom-free relational algebra expression.
///
/// Without a target database the final stage runs the statistics-free
/// [`rc_relalg::simplify`]; use [`compile_for`] to get cost-based join
/// reordering against a concrete database's statistics.
pub fn compile_with(f: &Formula, opts: CompileOptions) -> Result<Compiled, CompileError> {
    compile_traced_for(f, opts, None, &mut StageTracer::off())
}

/// [`compile_with`] against a target database: when `opts.optimize` is on,
/// the final stage runs the full cost-based planner
/// ([`rc_relalg::optimize()`]) — cardinality estimation from `db`'s
/// statistics (and any trace-fed observed cardinalities), join reordering,
/// and cost-gated projection placement. The compiled plan is still
/// portable: it evaluates correctly against any database, it is merely
/// *tuned* for this one.
pub fn compile_for(
    f: &Formula,
    opts: CompileOptions,
    db: &Database,
) -> Result<Compiled, CompileError> {
    compile_traced_for(f, opts, Some(db), &mut StageTracer::off())
}

/// The full pipeline: [`compile_with`] plus an optional target database
/// enabling the cost-based planner (see [`compile_for`]), recording one
/// [`rc_relalg::StageSpan`] per pipeline stage into `st` (node counts,
/// wall time, and a deterministic stage detail such as `class=` or
/// `repairs=`). On an error the open span is left for
/// [`StageTracer::into_trace`] to seal as failed, so a partial trace names
/// the stage that tripped.
pub(crate) fn compile_traced_for(
    f: &Formula,
    opts: CompileOptions,
    db: Option<&Database>,
    st: &mut StageTracer,
) -> Result<Compiled, CompileError> {
    let original = rectified(f);
    let columns = free_vars(&original);

    // Stage 1: find an evaluable form.
    st.begin(Stage::Classify, original.node_count() as u64);
    let (class, reduced) =
        find_evaluable(&original, opts.equality_reduction).map_err(CompileError::NotSafe)?;
    let evaluable_form = reduced.as_ref().unwrap_or(&original);
    st.end(evaluable_form.node_count() as u64, format!("class={class}"));

    // Stage 2: evaluable → allowed (Alg. 8.1).
    st.begin(Stage::Genify, evaluable_form.node_count() as u64);
    let (allowed_form, genify_report) =
        genify_reported(evaluable_form, opts.generator_choice, &opts.budget)?;
    st.end(
        allowed_form.node_count() as u64,
        format!("repairs={}", genify_report.repairs),
    );

    // Stage 3: allowed → RANF (Alg. 9.1).
    st.begin(Stage::Ranf, allowed_form.node_count() as u64);
    let (ranf_form, ranf_report) = ranf_reported(&allowed_form, &opts.budget)?;
    st.end(
        ranf_form.node_count() as u64,
        format!("step1_nodes={}", ranf_report.nodes_step1),
    );

    // Stage 4: RANF → algebra (Sec. 9.3).
    st.begin(Stage::Translate, ranf_form.node_count() as u64);
    let (raw, ops_emitted) = translate_reported(&ranf_form, &opts.budget)?;
    st.end(
        raw.node_count() as u64,
        format!("ops_emitted={ops_emitted}"),
    );

    // Stage 5: impose the answer column order, optimize (cost-based when a
    // target database's statistics are in reach, plain simplification
    // otherwise), then hash-cons into a DAG so genify/RANF-duplicated
    // subplans are physically shared (the memoizing evaluator computes
    // each shared node once; the stage detail reports the pass that ran
    // and how many tree nodes the interner folded away).
    st.begin(Stage::Optimize, raw.node_count() as u64);
    let expr = impose_columns(raw, &columns, &ranf_form)?;
    let (expr, planner) = match (opts.optimize, db) {
        (true, Some(db)) => (rc_relalg::optimize(&expr, db), "cost"),
        (true, None) => (rc_relalg::simplify(&expr), "simplify"),
        (false, _) => (expr, "off"),
    };
    let (expr, intern_stats) = rc_relalg::intern(&expr);
    st.end(
        expr.node_count() as u64,
        format!("planner={planner} shared={}", intern_stats.shared_nodes()),
    );

    Ok(Compiled {
        original,
        class,
        reduced,
        allowed_form,
        ranf_form,
        expr,
        columns,
    })
}

fn impose_columns(
    raw: RaExpr,
    columns: &[Var],
    ranf_form: &Formula,
) -> Result<RaExpr, CompileError> {
    let have = raw.cols();
    if have == columns {
        return Ok(raw);
    }
    if columns.iter().all(|v| have.contains(v)) {
        return Ok(RaExpr::project(raw, columns.to_vec()));
    }
    // A free variable's column can only vanish when simplification proved
    // the formula unsatisfiable; anything else means a transformation
    // changed the free variables, which would silently reinterpret the
    // query — refuse instead.
    if ranf_form.is_false() {
        Ok(RaExpr::Empty {
            cols: columns.to_vec(),
        })
    } else {
        Err(CompileError::Ranf(RanfError::Stuck(format!(
            "free-variable columns {columns:?} not all present in {have:?}"
        ))))
    }
}

impl Compiled {
    /// A human-readable report of every compilation stage — what the REPL's
    /// `explain` command prints.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query:    {}", self.original);
        let _ = writeln!(out, "class:    {}", self.class);
        if let Some(r) = &self.reduced {
            let _ = writeln!(out, "reduced:  {r}   (Alg. A.1 equality reduction)");
        }
        if self.allowed_form != self.original {
            let _ = writeln!(out, "allowed:  {}   (Alg. 8.1 genify)", self.allowed_form);
        } else {
            let _ = writeln!(out, "allowed:  (input already allowed)");
        }
        if self.ranf_form != self.allowed_form {
            let _ = writeln!(out, "ranf:     {}   (Alg. 9.1)", self.ranf_form);
        } else {
            let _ = writeln!(out, "ranf:     (allowed form already in RANF)");
        }
        let _ = writeln!(out, "algebra:  {}", self.expr);
        let cols: Vec<String> = self.columns.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(out, "columns:  ({})", cols.join(", "));
        out
    }

    /// Evaluate the compiled query.
    pub fn run(&self, db: &Database) -> Result<Relation, EvalError> {
        let mut stats = EvalStats::default();
        self.run_traced(db, &mut stats, Budget::unlimited(), &mut Tracer::off())
    }

    /// Evaluate under a resource [`Budget`] — either exactly the ungoverned
    /// answer or an [`EvalError::Budget`], never a truncated relation —
    /// accumulating operator statistics into `stats` and recording an
    /// operator span tree into `tracer` (input/output cardinalities, kernel
    /// row counts, dedup ratios, parallel-vs-sequential path), including a
    /// partial tree when the evaluation errors. Pass [`Tracer::off`] to
    /// skip the tree.
    pub fn run_traced(
        &self,
        db: &Database,
        stats: &mut EvalStats,
        budget: &Budget,
        tracer: &mut Tracer,
    ) -> Result<Relation, EvalError> {
        eval_traced(
            &self.expr,
            &prepare(db, &self.original),
            stats,
            budget,
            tracer,
        )
    }

    /// [`Compiled::run_traced`] with common-subexpression sharing: the
    /// plan's duplicated subtrees (compile interns the expression into a
    /// DAG) are each evaluated once per run and served from a memo table
    /// afterwards — [`EvalStats::memo_hits`] counts the services and the
    /// reused subplans appear as `cache_hit` leaf spans. Same answer and
    /// budget semantics as [`Compiled::run_traced`].
    pub fn run_shared(
        &self,
        db: &Database,
        stats: &mut EvalStats,
        budget: &Budget,
        tracer: &mut Tracer,
    ) -> Result<Relation, EvalError> {
        eval_shared(
            &self.expr,
            &prepare(db, &self.original),
            stats,
            budget,
            tracer,
        )
    }

    /// [`Compiled::run_shared`], additionally materializing every subplan
    /// into a [`MaintainedView`] registered for delta-refresh: identical
    /// answer, statistics, and budget semantics (the recording evaluator
    /// *is* the memoizing evaluator), plus the standing-query state that
    /// lets later mutations advance this result in O(|Δ|) instead of
    /// recomputing it. `base_version` is the version of `db` the caller
    /// serves — captured by the caller because the evaluation itself runs
    /// against a prepared clone with its own stamp.
    pub fn run_maintained(
        &self,
        db: &Database,
        base_version: u64,
        stats: &mut EvalStats,
        budget: &Budget,
        tracer: &mut Tracer,
    ) -> Result<(Relation, MaintainedView), EvalError> {
        materialize(
            &self.expr,
            &prepare(db, &self.original),
            base_version,
            stats,
            budget,
            tracer,
        )
    }
}

/// Make missing query predicates evaluate as empty relations rather than
/// errors (matching the logical semantics of an absent relation).
fn prepare(db: &Database, f: &Formula) -> Database {
    let mut out = db.clone();
    for (p, arity) in f.predicates() {
        out.declare(p, arity);
    }
    out
}

/// Top-level query failure.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The formula could not be compiled.
    Compile(CompileError),
    /// Evaluation failed.
    Eval(EvalError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Compile(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Parse, compile and evaluate a query in one call.
pub fn query(text: &str, db: &Database) -> Result<Relation, QueryError> {
    let f = rc_formula::parse(text).map_err(QueryError::Parse)?;
    let compiled = compile(&f).map_err(QueryError::Compile)?;
    compiled.run(db).map_err(QueryError::Eval)
}

/// Unified failure taxonomy for the whole pipeline
/// (parse → classify → genify → ranf → translate → eval), with resource
/// trips carried as structured [`BudgetExceeded`] reports.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The formula is not in any recognized safe class.
    NotSafe(SafetyViolation),
    /// A resource bound tripped; carries the stage, bound, and consumption.
    Budget(BudgetExceeded),
    /// `ranf` failed internally.
    Ranf(RanfError),
    /// Translation failed (should not happen on `ranf` output).
    Translate(TranslateError),
    /// Evaluation failed for a non-budget reason.
    Eval(EvalError),
}

impl PipelineError {
    /// The pipeline stage this error is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            PipelineError::Parse(_) => Stage::Parse,
            PipelineError::NotSafe(_) => Stage::Classify,
            PipelineError::Budget(b) => b.stage,
            PipelineError::Ranf(_) => Stage::Ranf,
            PipelineError::Translate(_) => Stage::Translate,
            PipelineError::Eval(_) => Stage::Eval,
        }
    }

    /// The structured budget report, when a resource bound tripped.
    pub fn budget(&self) -> Option<&BudgetExceeded> {
        match self {
            PipelineError::Budget(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::NotSafe(v) => write!(f, "query is not safe: {v}"),
            PipelineError::Budget(b) => write!(f, "budget exceeded: {b}"),
            PipelineError::Ranf(e) => write!(f, "normalization failed: {e}"),
            PipelineError::Translate(e) => write!(f, "translation failed: {e}"),
            PipelineError::Eval(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::NotSafe(v) => PipelineError::NotSafe(v),
            CompileError::Budget(b) => PipelineError::Budget(b),
            CompileError::Ranf(e) => PipelineError::Ranf(e),
            CompileError::Translate(e) => PipelineError::Translate(e),
        }
    }
}

impl From<EvalError> for PipelineError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Budget(b) => PipelineError::Budget(b),
            other => PipelineError::Eval(other),
        }
    }
}

impl From<QueryError> for PipelineError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Parse(e) => PipelineError::Parse(e),
            QueryError::Compile(e) => e.into(),
            QueryError::Eval(e) => e.into(),
        }
    }
}

/// Everything [`compile_and_eval`] produces: the compiled stages, the
/// answer relation, and the evaluation counters (including governance
/// consumption).
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// The compiled query with every intermediate stage.
    pub compiled: Compiled,
    /// The answer relation.
    pub relation: Relation,
    /// Evaluation statistics, including [`EvalStats::budget_checks`].
    pub stats: EvalStats,
}

/// Parse, compile, and evaluate under one shared [`Budget`]
/// (`opts.budget` governs every stage). On a trip the result is a
/// [`PipelineError::Budget`] naming the stage, the bound, and the
/// consumption — never a truncated relation.
///
/// ```
/// use rc_safety::pipeline::{compile_and_eval, CompileOptions};
/// use rc_relalg::Database;
///
/// let db = Database::from_facts("P(1, 1)\nP(1, 2)\nP(3, 3)\nQ(1)").unwrap();
/// let out = compile_and_eval("P(x, y) & ~Q(y)", &db, CompileOptions::default()).unwrap();
/// assert_eq!(out.relation.len(), 2); // (1,2) and (3,3)
/// assert!(out.stats.operators > 0);
/// ```
pub fn compile_and_eval(
    text: &str,
    db: &Database,
    opts: CompileOptions,
) -> Result<QueryOutput, PipelineError> {
    let f = rc_formula::parse(text).map_err(PipelineError::Parse)?;
    let budget = opts.budget.clone();
    let compiled = compile_for(&f, opts, db).map_err(PipelineError::from)?;
    let mut stats = EvalStats::default();
    let relation = compiled.run_traced(db, &mut stats, &budget, &mut Tracer::off())?;
    Ok(QueryOutput {
        compiled,
        relation,
        stats,
    })
}

/// What [`compile_and_eval_shared`] produces: the shared compiled plan,
/// the answer, evaluation counters, and which cache layers were hit.
#[derive(Clone, Debug)]
pub struct CachedQueryOutput {
    /// The compiled query (shared with the cache — cloning is one
    /// reference bump).
    pub compiled: Arc<Compiled>,
    /// The answer relation.
    pub relation: Relation,
    /// Evaluation statistics. On a result-cache hit only the governance
    /// charge for the materialized cardinality is recorded (nothing was
    /// evaluated).
    pub stats: EvalStats,
    /// Was parse → … → optimize skipped via the plan cache?
    pub plan_cached: bool,
    /// Was evaluation skipped via the result cache? Also true when a
    /// stale entry was delta-refreshed instead of recomputed (see
    /// `result_refreshed`).
    pub result_cached: bool,
    /// Was a stale cached result *refreshed* by delta propagation
    /// ([`rc_relalg::ivm`]) rather than served verbatim or recomputed?
    /// Implies `result_cached`.
    pub result_refreshed: bool,
}

/// [`compile_and_eval`] through a cross-run, concurrently shared
/// [`SharedPlanCache`]: re-serving the same query text (under the same
/// semantic options) skips parse → classify → genify → ranf → translate →
/// optimize, and — while the database version is unchanged — evaluation
/// too. Callable from any number of threads through `&self`: a query
/// server's workers each snapshot the database (O(1) `Arc`'d relation
/// clones) and serve through one process-wide cache, so a formula
/// compiled for any client is warm for every client.
///
/// Key and invalidation contract (see [`rc_relalg::cache`]):
///
/// * plans are keyed by `(text, opts.cache_key(), stats epoch)` — the
///   epoch ([`Database::stats_epoch`]) only moves when trace feedback
///   changes the statistics store, so plans need no in-place invalidation
///   and a re-plan against fresh statistics lands under a fresh key;
/// * results are keyed by the interned plan's structural hash and the
///   [`Database::version`] observed *before* evaluation; any mutation
///   bumps the version, so stale results can never be served.
///
/// Budget semantics are preserved: a fully cached request still passes a
/// checkpoint (so deadlines and cancellation fire) and charges the
/// materialized cardinality against the tuple budget — a cache hit can
/// trip a tight budget exactly like the evaluation it stands in for.
/// Evaluation misses materialize every subplan once (duplicated subplans
/// inside one query are computed once even on a cold serve) into a view
/// that later mutations delta-refresh.
///
/// ```
/// use rc_safety::pipeline::{compile_and_eval_shared, CompileOptions};
/// use rc_relalg::{Database, SharedPlanCache};
///
/// let db = Database::from_facts("P(1, 1)\nP(1, 2)\nQ(1)").unwrap();
/// let cache = SharedPlanCache::new();
/// let cold = compile_and_eval_shared("P(x, y) & Q(x)", &db, CompileOptions::default(), &cache)
///     .unwrap();
/// assert!(!cold.plan_cached && !cold.result_cached);
/// let warm = compile_and_eval_shared("P(x, y) & Q(x)", &db, CompileOptions::default(), &cache)
///     .unwrap();
/// assert!(warm.plan_cached && warm.result_cached);
/// assert_eq!(cold.relation, warm.relation);
/// ```
pub fn compile_and_eval_shared(
    text: &str,
    db: &Database,
    opts: CompileOptions,
    cache: &SharedPlanCache<Compiled>,
) -> Result<CachedQueryOutput, PipelineError> {
    serve_leg(text, 0, None, db, &opts, cache)
}

/// The one cached serving path, behind [`compile_and_eval_shared`] and
/// both legs of [`crate::anyrc::compile_and_eval_any_shared`]'s safe
/// pair: plan lookup → result lookup → delta refresh → full evaluation.
///
/// `salt` is XORed into the plan key, so a query's plan and its two
/// safe-pair legs share the cache under the one query text without
/// colliding. With `guard` `None` the query text itself compiles against
/// `db`; a safe-pair leg instead compiles its relativized formula against
/// `db` plus the leg's guard table, built only on a compile or evaluation
/// miss. Results and views are stamped with the version of `db` either
/// way.
pub(crate) fn serve_leg(
    text: &str,
    salt: u64,
    guard: Option<&LegGuard>,
    db: &Database,
    opts: &CompileOptions,
    cache: &SharedPlanCache<Compiled>,
) -> Result<CachedQueryOutput, PipelineError> {
    // Capture the version before `prepare` clones-and-declares inside the
    // eval path; the clone's declares must not disturb our key.
    let db_version = db.version();
    let opts_key = opts.cache_key() ^ salt;
    // Plans compiled without the cost-based planner never read statistics,
    // so they share the epoch-0 key space regardless of feedback.
    let stats_epoch = if opts.optimize { db.stats_epoch() } else { 0 };
    let budget = &opts.budget;
    let mut aug: Option<Database> = None;
    let (compiled, plan_hash, plan_cached) = match cache.lookup_plan(text, opts_key, stats_epoch) {
        Some((compiled, hash)) => (compiled, hash, true),
        None => {
            let compiled = match guard {
                None => {
                    let f = rc_formula::parse(text).map_err(PipelineError::Parse)?;
                    compile_for(&f, opts.clone(), db)
                }
                Some(g) => compile_for(&g.leg, opts.clone(), aug.insert(g.augment(db))),
            }
            .map_err(PipelineError::from)?;
            let hash = rc_relalg::plan_hash(&compiled.expr);
            (
                cache.insert_plan(text, opts_key, stats_epoch, compiled, hash),
                hash,
                false,
            )
        }
    };
    let mut stats = EvalStats::default();
    let (relation, result_cached, result_refreshed) = if let Some(relation) =
        cache.lookup_result(plan_hash, db_version)
    {
        charge_served(budget, &mut stats, &relation)?;
        (relation, true, false)
    } else if let Some(relation) = refresh_view(
        cache, plan_hash, &compiled, guard, db, db_version, &mut stats, budget,
    )? {
        (relation, true, true)
    } else {
        let eval_db = match guard {
            None => db,
            Some(g) => aug.get_or_insert_with(|| g.augment(db)),
        };
        let (relation, view) =
            compiled.run_maintained(eval_db, db_version, &mut stats, budget, &mut Tracer::off())?;
        cache.insert_result(plan_hash, db_version, relation.clone());
        cache.register_view(plan_hash, view);
        (relation, false, false)
    };
    Ok(CachedQueryOutput {
        compiled,
        relation,
        stats,
        plan_cached,
        result_cached,
        result_refreshed,
    })
}

/// The result entry missed (cold, or stale by some mutation). Before
/// re-evaluating, try to *advance* the registered maintained view by the
/// delta chain bridging its version to ours: O(|Δ|·fanout) merge work
/// instead of a full evaluation. Returns `None` — with the cached entry
/// left exactly as it was — when the chain is unknown (non-delta
/// mutation, evicted journal link), when a leg's guard table cannot be
/// recovered from the view, when the cost gate says the delta is too
/// large relative to the estimated full cost, or on an unsupported shape.
#[allow(clippy::too_many_arguments)]
fn refresh_view(
    cache: &SharedPlanCache<Compiled>,
    plan_hash: u64,
    compiled: &Compiled,
    guard: Option<&LegGuard>,
    db: &Database,
    db_version: u64,
    stats: &mut EvalStats,
    budget: &Budget,
) -> Result<Option<Relation>, PipelineError> {
    let Some(view) = cache.view_snapshot(plan_hash) else {
        return Ok(None);
    };
    if view.base_version() == db_version {
        return Ok(None);
    }
    let Some(mut chain) = db.delta_chain(view.base_version(), db_version) else {
        return Ok(None);
    };
    if let Some(g) = guard.filter(|g| view.preds().contains(&g.pred)) {
        // The guard table lives only inside the view, so the base delta
        // chain says nothing about it. Recover the old contents from the
        // view's materialized scan, build the new contents from the
        // current database, and splice the set difference into the chain.
        // A guard that is scanned but not recoverable (the optimizer
        // rewrote the full-table scan away) forces a full re-evaluation.
        let Some(old) = view.scan_contents(g.pred) else {
            return Ok(None);
        };
        let new = g.relation(db);
        let delta = TableDelta {
            plus: new.minus(old),
            minus: old.minus(&new),
        };
        chain.insert_table(g.pred, delta);
    }
    // Lazy: a trickle-sized delta refreshes without ever asking the
    // estimator (whose table statistics were just invalidated by the
    // mutation and would rebuild in O(n)).
    let full_cost = || Estimator::new(db).cost(&compiled.expr);
    if !worth_refreshing(&view, &chain, full_cost) {
        return Ok(None);
    }
    match refresh(&view, &chain, db_version, stats, budget, &mut Tracer::off()) {
        Ok((refreshed_view, relation)) => {
            // A refreshed serve still charges the answer's cardinality,
            // exactly like a verbatim hit — a small delta must not smuggle
            // a large cached relation past the tuple budget. Charged
            // *before* install so a trip leaves the cache untouched.
            charge_served(budget, stats, &relation)?;
            cache.install_refreshed(plan_hash, refreshed_view, relation.clone());
            Ok(Some(relation))
        }
        Err(RefreshError::Budget(b)) => Err(PipelineError::Budget(b)),
        Err(RefreshError::Unsupported(_)) => {
            // Fall back to full evaluation with clean counters (partial
            // refresh accounting would pollute the cold-path statistics).
            *stats = EvalStats::default();
            Ok(None)
        }
    }
}

/// Serving from cache still consumes governance: one checkpoint
/// (deadline/cancellation) plus the answer's cardinality against the
/// tuple budget.
fn charge_served(
    budget: &Budget,
    stats: &mut EvalStats,
    relation: &Relation,
) -> Result<(), PipelineError> {
    stats.budget_checks += 1;
    budget
        .checkpoint(Stage::Eval)
        .and_then(|()| budget.charge_tuples(Stage::Eval, relation.len() as u64))
        .map_err(PipelineError::Budget)
}

/// [`compile_and_eval`] with full observability: returns the
/// [`PipelineTrace`] alongside the result. The trace is populated on
/// **both** success and failure — a `BudgetExceeded` comes back with the
/// partial trace whose failed stage span and deepest incomplete operator
/// span name exactly where the trip happened.
///
/// This is also where the statistics feedback loop closes: on success the
/// completed operator spans' actual cardinalities are harvested into
/// `db`'s statistics store ([`rc_relalg::harvest_actuals`]), so the next
/// compilation of a query touching the same subplans re-plans against
/// observed truth instead of estimates. Harvesting that *changes* a stored
/// observation moves [`Database::stats_epoch`], which retires cached plans
/// built against the stale statistics (see [`compile_and_eval_shared`]).
pub fn compile_and_eval_traced(
    text: &str,
    db: &Database,
    opts: CompileOptions,
) -> (Result<QueryOutput, PipelineError>, PipelineTrace) {
    let mut st = StageTracer::on();
    st.begin(Stage::Parse, text.len() as u64);
    let f = match rc_formula::parse(text) {
        Ok(f) => f,
        Err(e) => return (Err(PipelineError::Parse(e)), st.into_trace(None)),
    };
    st.end(f.node_count() as u64, String::new());
    let (result, trace) = traced_leg(&f, db, opts, st);
    if let Ok(out) = &result {
        rc_relalg::harvest_actuals(&out.compiled.expr, trace.root.as_ref(), db);
    }
    (result, trace)
}

/// The traced core of [`compile_and_eval_traced`] and of each leg of
/// [`crate::anyrc::compile_and_eval_any_traced`]: compile `f` against
/// `db` with one span per stage appended to `st`, then evaluate it under
/// an operator tracer. On an error the open span is sealed as failed.
pub(crate) fn traced_leg(
    f: &Formula,
    db: &Database,
    opts: CompileOptions,
    mut st: StageTracer,
) -> (Result<QueryOutput, PipelineError>, PipelineTrace) {
    let budget = opts.budget.clone();
    let compiled = match compile_traced_for(f, opts, Some(db), &mut st) {
        Ok(c) => c,
        Err(e) => return (Err(e.into()), st.into_trace(None)),
    };
    st.begin(Stage::Eval, compiled.expr.node_count() as u64);
    let mut stats = EvalStats::default();
    let mut tracer = Tracer::on();
    match compiled.run_traced(db, &mut stats, &budget, &mut tracer) {
        Ok(relation) => {
            st.end(
                relation.len() as u64,
                format!("tuples_produced={}", stats.tuples_produced),
            );
            let out = QueryOutput {
                compiled,
                relation,
                stats,
            };
            (Ok(out), st.into_trace(tracer.finish()))
        }
        Err(e) => (Err(e.into()), st.into_trace(tracer.finish())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::{parse, Value};
    use rc_relalg::Database;

    fn db() -> Database {
        Database::from_facts(
            "Part('bolt')\nPart('nut')\nPart('screw')\n\
             Supplies('acme', 'bolt')\nSupplies('acme', 'nut')\nSupplies('acme', 'screw')\n\
             Supplies('busy', 'bolt')",
        )
        .unwrap()
    }

    #[test]
    fn supplier_supplying_all_parts() {
        // Example 5.2's G: ∃y ∀x (¬Part(x) ∨ Supplies(y, x)) — boolean.
        let ans = query("exists y. forall x. (!Part(x) | Supplies(y, x))", &db()).unwrap();
        assert_eq!(ans.as_bool(), Some(true));
        // Which suppliers? Make y free but generated.
        let ans2 = query(
            "exists p. Supplies(y, p) & forall x. (!Part(x) | Supplies(y, x))",
            &db(),
        )
        .unwrap();
        assert_eq!(ans2.len(), 1);
        assert!(ans2.contains(&[Value::str("acme")]));
    }

    #[test]
    fn classify_rectifies_shadowed_input() {
        use crate::classes::check_evaluable;
        use rc_formula::vars::is_rectified;
        // `Q(x) ∨ ¬∃x true`: x is free in the first disjunct and rebound
        // in the second. The raw gen check refuses to cross the shadowing
        // binder, so checking the unrectified formula directly reports a
        // violation — even though the formula is plainly equivalent to
        // `Q(x) ∨ ¬true ≡ Q(x)` and evaluable. `classify` must rectify
        // first (this used to report NotRecognized).
        let raw = parse("Q(x) | !(exists x. true)").unwrap();
        assert!(!is_rectified(&raw));
        assert!(check_evaluable(&raw).is_err(), "raw check is conservative");
        assert_eq!(classify(&raw), SafetyClass::Evaluable);
        // Classification is invariant under rectification across shadowed
        // shapes (the conservative direction: raw never upgrades).
        for s in [
            "Q(x) | !(exists x. true)",
            "P(x) & exists x. Q(x)",
            "exists x. (P(x) & exists x. Q(x))",
            "Q(x) & forall x. !(P(x) & !Q(x))",
        ] {
            let f = parse(s).unwrap();
            assert_eq!(classify(&f), classify(&rectified(&f)), "on {s}");
        }
    }

    #[test]
    fn unsafe_queries_are_rejected_with_reasons() {
        let err = query("!Part(x)", &db()).unwrap_err();
        assert!(matches!(err, QueryError::Compile(CompileError::NotSafe(_))));
        assert!(query("Part(x) | Supplies(y, x)", &db()).is_err());
    }

    #[test]
    fn classification_hierarchy() {
        assert_eq!(
            classify(&parse("P(x, y) & (Q(x) | R(y))").unwrap()),
            SafetyClass::Allowed
        );
        assert_eq!(
            classify(&parse("exists x. ((P(x, y) | Q(y)) & !R(y))").unwrap()),
            SafetyClass::Evaluable
        );
        assert_eq!(
            classify(
                &parse("exists z. (P(x, z) & (x = y | Q(x, y, z)) & !(z = y | R(y, z)))").unwrap()
            ),
            SafetyClass::WideSenseEvaluable
        );
        assert_eq!(
            classify(&parse("!P(x)").unwrap()),
            SafetyClass::NotRecognized
        );
    }

    #[test]
    fn compiled_stages_are_exposed() {
        let f = parse("exists y. (P(x) | Q(x, y))").unwrap();
        let c = compile(&f).unwrap();
        assert_eq!(c.class, SafetyClass::Evaluable);
        assert!(crate::classes::is_allowed(&c.allowed_form));
        assert!(crate::ranf::is_ranf(&c.ranf_form));
        assert_eq!(c.columns, vec![Var::new("x")]);
        assert!(c.reduced.is_none());
    }

    #[test]
    fn default_value_query_end_to_end() {
        // Sec. 5.3: suppliers per part, defaulting to 'none' for parts
        // nobody supplies.
        let mut d =
            Database::from_facts("Part('bolt')\nPart('widget')\nSupplies('acme', 'bolt')").unwrap();
        d.declare("Nothing", 0);
        let ans = query(
            "Part(x) & (Supplies(y, x) | (forall z. !Supplies(z, x)) & y = 'none')",
            &d,
        )
        .unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::str("bolt"), Value::str("acme")]));
        assert!(ans.contains(&[Value::str("widget"), Value::str("none")]));
    }

    #[test]
    fn wide_sense_query_compiles_via_reduction() {
        let f = parse("Q(y, y) & (x = y | P(x))").unwrap();
        let c = compile(&f).unwrap();
        assert_eq!(c.class, SafetyClass::WideSenseEvaluable);
        assert!(c.reduced.is_some());
        let mut d = Database::new();
        d.load_facts("Q(1, 1)\nQ(2, 2)\nP(7)").unwrap();
        let ans = c.run(&d).unwrap();
        // Columns are (y, x) — free variables in first-occurrence order.
        // x = y cases: (1,1), (2,2); P cases: (1,7), (2,7).
        assert_eq!(c.columns, vec![Var::new("y"), Var::new("x")]);
        assert_eq!(ans.len(), 4);
        assert!(ans.contains(&[Value::int(1), Value::int(1)]));
        assert!(ans.contains(&[Value::int(2), Value::int(7)]));
        assert_eq!(ans, crate::dom_baseline::eval_brute_force(&c.original, &d));
    }

    #[test]
    fn missing_relations_are_empty() {
        let ans = query("Part(x) & !Discontinued(x)", &db()).unwrap();
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn answers_match_brute_force_oracle() {
        use crate::dom_baseline::eval_brute_force;
        let d = db();
        for s in [
            "Part(x) & !Supplies('busy', x)",
            "Supplies(y, x) & Part(x)",
            "exists p. (Supplies(y, p) & !Part(p))",
            "Part(x) & forall y. (!Supplies(y, x) | Supplies(y, 'bolt'))",
        ] {
            let f = parse(s).unwrap();
            let c = compile(&f).unwrap();
            let ours = c.run(&d).unwrap();
            let oracle = eval_brute_force(&f, &d);
            assert_eq!(ours, oracle, "{s}");
        }
    }

    #[test]
    fn column_order_follows_free_variable_order() {
        let c = compile(&parse("Supplies(y, x) & Part(x)").unwrap()).unwrap();
        assert_eq!(c.columns, vec![Var::new("y"), Var::new("x")]);
        let d = db();
        let ans = c.run(&d).unwrap();
        assert!(ans.contains(&[Value::str("acme"), Value::str("bolt")]));
    }
}
