//! # rcsafe
//!
//! Safety and correct translation of relational calculus formulas — a
//! production-quality Rust reproduction of **Van Gelder & Topor, PODS
//! 1987**.
//!
//! This facade crate re-exports the three workspace layers:
//!
//! * [`formula`] (`rc-formula`) — the first-order formula kernel: AST,
//!   parser, printer, normal forms, and the conservative/distributive
//!   transformation rules of Figs. 3–4;
//! * [`relalg`] (`rc-relalg`) — the in-memory relational algebra engine the
//!   translation targets, including the generalized set difference `diff`
//!   (anti-join) and 0-ary relations;
//! * [`safety`] (`rc-safety`) — the paper's contribution: the `gen`/`con`
//!   relations, the evaluable and allowed classes, `genify`, RANF and the
//!   Dom-free translation, equality reduction, and the domain-independence
//!   apparatus of Sec. 10.
//!
//! The most common entry points are re-exported at the top level.
//!
//! ```
//! use rcsafe::{Database, query};
//!
//! let db = Database::from_facts("P('a')\nQ('a', 'b')").unwrap();
//! let ans = query("exists y. (P(x) | Q(x, y))", &db).unwrap();
//! assert_eq!(ans.len(), 1);
//! ```

pub use rc_formula as formula;
pub use rc_relalg as relalg;
pub use rc_safety as safety;

pub use rc_formula::{parse, Formula, Schema, Symbol, Term, Value, Var};
pub use rc_relalg::{
    Budget, CacheStats, CancelHandle, Database, FaultInjector, PipelineTrace, RaExpr, Relation,
    SharedPlanCache, TraceSink, Tracer,
};
pub use rc_safety::anyrc::{
    compile_and_eval_any_shared, compile_and_eval_any_traced, AnyAnswer, CachedAnyOutput,
};
pub use rc_safety::pipeline::{
    classify, compile, compile_and_eval, compile_and_eval_shared, compile_and_eval_traced, query,
    CachedQueryOutput, Compiled, PipelineError, QueryOutput, SafetyClass,
};
pub use rc_safety::{
    equality_reduce, genify, is_allowed, is_evaluable, is_ranf, is_wide_sense_evaluable, ranf,
    translate,
};
