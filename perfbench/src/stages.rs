//! The compile pipeline composed from its public stage functions, one span
//! per stage, in the order `compile_for` runs them.
//!
//! The traced run uses this in place of `compile_for` so each layer is
//! timed from outside. `trace.mismatch` guards the decomposition: the
//! composed plan must hash like `compile_for`'s, and answer like the
//! served query.

use crate::spans::Recorder;
use rc_formula::ast::Formula;
use rc_formula::term::Var;
use rc_formula::vars::{free_vars, rectified};
use rc_relalg::Database;
use rc_relalg::RaExpr;
use rc_safety::classes::{check_evaluable, is_allowed};
use rc_safety::eqreduce::equality_reduce;
use rc_safety::genify::genify_reported;
use rc_safety::pipeline::{CompileOptions, Compiled, SafetyClass};
use rc_safety::ranf::ranf_reported;
use rc_safety::translate::translate_reported;

/// A query compiled stage by stage.
pub struct Staged {
    /// The compiled query, as `compile_for` would return it.
    pub compiled: Compiled,
    /// The plan handed to the optimizer (answer columns imposed), kept so
    /// the traced run can also time `saturate_governed` on it.
    pub unoptimized: RaExpr,
}

/// Outcome of [`compile`].
pub enum StagedResult {
    /// Every stage succeeded.
    Compiled(Box<Staged>),
    /// The classifier rejected the formula (it needs the safe pair).
    Rejected,
    /// Another stage failed.
    Failed(String),
}

/// Parse and compile `text` against `db`, recording one span per stage
/// (`parse`, `classify`, `genify`, `ranf`, `translate`, `optimize`) under
/// request `req`.
pub fn compile(
    text: &str,
    db: &Database,
    opts: &CompileOptions,
    rec: &mut Recorder,
    req: u64,
) -> StagedResult {
    let f = match rec.span("parse", req, |_| rc_formula::parse(text)) {
        Ok(f) => f,
        Err(e) => return StagedResult::Failed(format!("parse: {e}")),
    };
    let classified = rec.span("classify", req, |_| classify(&f, opts));
    let Some((original, columns, class, evaluable, reduced)) = classified else {
        return StagedResult::Rejected;
    };
    let allowed = match rec.span("genify", req, |_| {
        genify_reported(&evaluable, opts.generator_choice, &opts.budget)
    }) {
        Ok((g, _)) => g,
        Err(e) => return StagedResult::Failed(format!("genify: {e:?}")),
    };
    let ranf = match rec.span("ranf", req, |_| ranf_reported(&allowed, &opts.budget)) {
        Ok((r, _)) => r,
        Err(e) => return StagedResult::Failed(format!("ranf: {e}")),
    };
    let raw = match rec.span("translate", req, |_| {
        translate_reported(&ranf, &opts.budget)
    }) {
        Ok((t, _)) => t,
        Err(e) => return StagedResult::Failed(format!("translate: {e}")),
    };
    let optimized = rec.span("optimize", req, |_| {
        let unoptimized = impose_columns(raw, &columns, &ranf)?;
        let (expr, _) = rc_relalg::intern(&rc_relalg::optimize(&unoptimized, db));
        Some((unoptimized, expr))
    });
    let Some((unoptimized, expr)) = optimized else {
        return StagedResult::Failed("free-variable columns lost".into());
    };
    StagedResult::Compiled(Box::new(Staged {
        compiled: Compiled {
            original,
            class,
            reduced,
            allowed_form: allowed,
            ranf_form: ranf,
            expr,
            columns,
        },
        unoptimized,
    }))
}

type Classified = (Formula, Vec<Var>, SafetyClass, Formula, Option<Formula>);

/// The classify stage of `compile_for`: rectify, then find an evaluable
/// form (strict sense, or after equality reduction).
fn classify(f: &Formula, opts: &CompileOptions) -> Option<Classified> {
    let original = rectified(f);
    let columns = free_vars(&original);
    if check_evaluable(&original).is_ok() {
        let class = if is_allowed(&original) {
            SafetyClass::Allowed
        } else {
            SafetyClass::Evaluable
        };
        let evaluable = original.clone();
        return Some((original, columns, class, evaluable, None));
    }
    if !opts.equality_reduction {
        return None;
    }
    let reduced = equality_reduce(&original);
    check_evaluable(&reduced).ok()?;
    Some((
        original,
        columns,
        SafetyClass::WideSenseEvaluable,
        reduced.clone(),
        Some(reduced),
    ))
}

/// Put the answer columns in free-variable order, as `compile_for` does
/// before optimizing.
fn impose_columns(raw: RaExpr, columns: &[Var], ranf: &Formula) -> Option<RaExpr> {
    let have = raw.cols();
    if have == columns {
        Some(raw)
    } else if columns.iter().all(|v| have.contains(v)) {
        Some(RaExpr::project(raw, columns.to_vec()))
    } else if ranf.is_false() {
        Some(RaExpr::Empty {
            cols: columns.to_vec(),
        })
    } else {
        None
    }
}
