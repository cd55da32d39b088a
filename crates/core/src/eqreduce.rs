//! Equality reduction (Appendix A, Algorithm A.1) and wide-sense
//! evaluability.
//!
//! Strict-sense evaluability (Def. 5.2) never lets `x = y` between two
//! variables generate anything. Many useful formulas become evaluable once
//! equalities are *reduced*: for the maximal subformula `A(x)` in which `x`
//! is free and an atom `x = t` inside it (`t` a constant or another free
//! variable of `A`), `A` splits into
//!
//! ```text
//! A  ≡  (x = t ∧ A₁(t)) ∨ (x ≠ t ∧ A₂(x))
//! ```
//!
//! where `A₁` substitutes `t` for `x` (Lemma A.1) and `A₂` replaces each
//! occurrence of the atom `x = t` by `false`. When `x` is bound, the
//! quantifier absorbs the case split:
//!
//! ```text
//! ∃x A  ≡  A₁(t) ∨ ∃x (x ≠ t ∧ A₂(x))
//! ∀x A  ≡  A₁(t) ∧ ∀x (x = t ∨ A₂(x))          (dual, for completeness)
//! ```
//!
//! Equalities between distinct constants are `false` and between identical
//! terms `true` (step 2 — our concrete `Value` domain makes distinct
//! constants denote distinct values, so no explicit `c ≠ d` guard is
//! needed). Finally (step 3), top-level cases `x = z ∧ A(z)` with `x` not
//! free in `A` and `gen(z, A)` are rewritten to `x = z ∧ A(x) ∧ A(z)` so
//! that both sides of the equality are generated; conjuncts `x ≠ t`, the
//! guards of splits, do not count as part of `A`. (An implementation could
//! instead use the column-duplication primitive `dup` of `rc-relalg`; we
//! stay at the formula level so the standard pipeline applies unchanged.)
//!
//! A formula is **wide-sense evaluable** (Def. A.1) if this algorithm makes
//! it evaluable. Every rewrite here is an equivalence, so the output is
//! logically equivalent to the input whether or not it ends up evaluable.
//!
//! **Termination.** A split removes its atom from both copies of the scope
//! it duplicates: `A₁` no longer mentions `x`, and `A₂` no longer contains
//! `x = t`. The only occurrences left are the guard the split builds
//! around them (`x = t`/`x ≠ t` for a free `x`, `x ≠ t` under `∃x`, `x = t`
//! under `∀x`). So within one scope, splits on non-guard atoms run out:
//! each one removes a variable (from `A₁`) or an atom (from `A₂`). What
//! does not run out is splitting a guard again. Re-splitting a bound guard
//! gives `A₁ = false` (`true` under `∀x`) and only moves the guard; with
//! two guards `x ≠ s ∧ x ≠ t` the two moves alternate forever. Re-splitting
//! a free guard `x = t` as `t = x` builds an equivalent formula with the
//! other orientation, then `x = t` again, and so on. Neither is the paper's
//! split, which applies to an atom *inside* the maximal subformula, not to
//! the case guard just built around it. So `find_split` offers no split
//! whose atom occurs in its scope only as such a guard: for bound
//! variables that is read off the quantifier body; for free variables the
//! loop remembers the atoms it has split on (and their images under
//! later substitutions), and skips one that survives only at guard
//! positions. Outer splits still copy inner scopes, so growth is bounded
//! only by `MAX_NODES` and `MAX_SPLITS`, which stay as backstops; on
//! the paper's corpus no formula needs more than a few splits.

use crate::gencon::gen;
use rc_formula::ast::Formula;
use rc_formula::paths::{replace_at, Path};
use rc_formula::simplify::simplify_truth;
use rc_formula::term::{Term, Var};
use rc_formula::vars::{free_vars, is_free, rectified, rename_bound_fresh, substitute, FreshVars};

/// Maximum number of split applications before the loop stops (every
/// intermediate form is equivalent, so stopping early is safe).
const MAX_SPLITS: usize = 64;

/// Node budget: splits duplicate their scope, so equality-dense formulas
/// can grow exponentially; once the formula exceeds this size the loop
/// stops (again safe — all intermediates are equivalent).
const MAX_NODES: usize = 4_000;

/// Normalize trivial *ground* equalities: `c = c → true`, `c = d → false`
/// for distinct constants, then truth-value simplify.
///
/// `x = x` between variables is deliberately **left alone**: it is
/// logically `true`, but replacing it would erase a free variable and turn
/// the domain-dependent query `x = x` into the safe query `true` — exactly
/// the kind of silent reinterpretation the paper forbids. (Inside `A₁`,
/// where the split already pins `x` to `t`, the split construction does
/// replace the `t = t` residue by `true`, as Alg. A.1 step 1a prescribes.)
pub fn simplify_trivial_eq(f: &Formula) -> Formula {
    fn go(f: &Formula) -> Formula {
        match f {
            Formula::Eq(Term::Const(a), Term::Const(b)) if a == b => Formula::tru(),
            Formula::Eq(Term::Const(a), Term::Const(b)) if a != b => Formula::fls(),
            Formula::Atom(_) | Formula::Eq(..) => f.clone(),
            Formula::Not(g) => Formula::not(go(g)),
            Formula::And(fs) => Formula::And(fs.iter().map(go).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(go).collect()),
            Formula::Exists(v, g) => Formula::Exists(*v, Box::new(go(g))),
            Formula::Forall(v, g) => Formula::Forall(*v, Box::new(go(g))),
        }
    }
    simplify_truth(&go(f))
}

/// One planned split, with the parts it was found productive on.
struct Split {
    /// Path to the node being replaced: the quantifier node for bound
    /// variables, the root for free variables.
    path: Path,
    /// The variable being reduced.
    x: Var,
    /// The equated term.
    t: Term,
    /// How the surrounding node absorbs the case split.
    kind: SplitKind,
    /// `A₁(t)`, unrenamed.
    a1: Formula,
    /// `A₂(x)`, unrenamed.
    a2: Formula,
}

enum SplitKind {
    /// `x` is free in the whole formula; replace the root.
    Free,
    /// `x` is bound by `∃x` at `path`.
    Exists,
    /// `x` is bound by `∀x` at `path`.
    Forall,
}

/// Is `a = b` the atom `x = t`, in either orientation?
fn is_eq_atom(a: Term, b: Term, x: Var, t: Term) -> bool {
    (a == Term::Var(x) && b == t) || (b == Term::Var(x) && a == t)
}

/// Does `scope` contain the atom `x = t` (in either orientation, under any
/// polarity)?
fn contains_eq_atom(scope: &Formula, x: Var, t: Term) -> bool {
    let mut found = false;
    scope.for_each_subformula(|g| {
        if let Formula::Eq(a, b) = g {
            found |= is_eq_atom(*a, *b, x, t);
        }
    });
    found
}

/// Does `f` contain the atom `x = t` anywhere but at a case-guard
/// position: an atom, or a negated atom, reached from the root through `∧`
/// and `∨` alone? That is where a free-variable split puts its guards
/// `x = t` and `x ≠ t`, and where later free-variable splits, which only
/// copy the whole formula into their branches, keep them.
fn contains_eq_atom_below_guards(f: &Formula, x: Var, t: Term) -> bool {
    match f {
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter().any(|g| contains_eq_atom_below_guards(g, x, t))
        }
        Formula::Eq(..) => false,
        Formula::Not(g) if matches!(**g, Formula::Eq(..)) => false,
        _ => contains_eq_atom(f, x, t),
    }
}

/// Does the atom `x = t` occur in the body of `∃x`/`∀x` only as the guard
/// a split on it leaves there: as top-level conjuncts `x ≠ t` under `∃x`,
/// as top-level disjuncts `x = t` under `∀x`? Splitting on it again gives
/// `A₁ = false` (`true` under `∀x`) and only moves the guard to the front.
fn only_bound_guard(kind: &SplitKind, body: &Formula, x: Var, t: Term) -> bool {
    let exists = matches!(kind, SplitKind::Exists);
    let parts = match body {
        Formula::And(cs) if exists => cs.as_slice(),
        Formula::Or(ds) if !exists => ds.as_slice(),
        _ => std::slice::from_ref(body),
    };
    let guard = |g: &Formula| match g {
        Formula::Not(h) if exists => matches!(**h, Formula::Eq(a, b) if is_eq_atom(a, b, x, t)),
        Formula::Eq(a, b) => !exists && is_eq_atom(*a, *b, x, t),
        _ => false,
    };
    parts.iter().all(|g| guard(g) || !contains_eq_atom(g, x, t))
}

/// Replace every occurrence of the atom `x = t` by `false` and simplify.
fn kill_eq_atom(scope: &Formula, x: Var, t: Term) -> Formula {
    fn go(f: &Formula, x: Var, t: Term) -> Formula {
        match f {
            Formula::Eq(a, b) if is_eq_atom(*a, *b, x, t) => Formula::fls(),
            Formula::Atom(_) | Formula::Eq(..) => f.clone(),
            Formula::Not(g) => Formula::not(go(g, x, t)),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| go(g, x, t)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| go(g, x, t)).collect()),
            Formula::Exists(v, g) => Formula::Exists(*v, Box::new(go(g, x, t))),
            Formula::Forall(v, g) => Formula::Forall(*v, Box::new(go(g, x, t))),
        }
    }
    simplify_truth(&go(scope, x, t))
}

/// Candidate `x = t` terms inside `scope` for reducing variable `x`: `t`
/// must be a constant or a variable free in `scope` (other than `x`).
fn candidate_terms(scope: &Formula, x: Var) -> Vec<Term> {
    let fv = free_vars(scope);
    let mut out: Vec<Term> = Vec::new();
    scope.for_each_subformula(|g| {
        if let Formula::Eq(a, b) = g {
            for (s, t) in [(*a, *b), (*b, *a)] {
                if s != Term::Var(x) {
                    continue;
                }
                let ok = match t {
                    Term::Const(_) => true,
                    Term::Var(v) => v != x && fv.contains(&v),
                };
                if ok && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    });
    out
}

/// Build `(A₁(t), A₂(x))` for a split of `scope` on `x = t` —
/// *unrenamed* (used for the productivity check); callers freshen bound
/// variables before substituting into the formula.
fn split_parts(scope: &Formula, x: Var, t: Term) -> (Formula, Formula) {
    // Alg. A.1 step 1a: substitute, replace the resulting `t = t` residues
    // by true, then truth-value simplify.
    let substituted = substitute(scope, x, t);
    let a1 = simplify_trivial_eq(&replace_tt_by_true(&substituted, t));
    let a2 = kill_eq_atom(scope, x, t);
    (a1, a2)
}

/// Replace the specific atom `t = t` by `true` (both orientations are the
/// same atom). Needed even when `t` is a variable: inside `A₁` the split's
/// `x = t` conjunct already pins the value.
fn replace_tt_by_true(f: &Formula, t: Term) -> Formula {
    match f {
        Formula::Eq(a, b) if *a == t && *b == t => Formula::tru(),
        Formula::Atom(_) | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => Formula::not(replace_tt_by_true(g, t)),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| replace_tt_by_true(g, t)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| replace_tt_by_true(g, t)).collect()),
        Formula::Exists(v, g) => Formula::Exists(*v, Box::new(replace_tt_by_true(g, t))),
        Formula::Forall(v, g) => Formula::Forall(*v, Box::new(replace_tt_by_true(g, t))),
    }
}

/// Assemble the replacement node for a split (unrenamed parts).
fn assemble(kind: &SplitKind, x: Var, t: Term, a1: &Formula, a2: &Formula) -> Formula {
    let eq = Formula::Eq(Term::Var(x), t);
    let neq = Formula::not(eq.clone());
    let out = match kind {
        SplitKind::Free => Formula::or2(
            Formula::and2(eq, a1.clone()),
            Formula::and2(neq, a2.clone()),
        ),
        SplitKind::Exists => Formula::or2(
            a1.clone(),
            Formula::exists(x, Formula::and2(neq, a2.clone())),
        ),
        SplitKind::Forall => {
            Formula::and2(a1.clone(), Formula::forall(x, Formula::or2(eq, a2.clone())))
        }
    };
    simplify_truth(&out)
}

/// Every quantifier node of `f` with its path, in preorder.
fn quantifier_paths<'a>(f: &'a Formula, prefix: &mut Path, out: &mut Vec<(Path, &'a Formula)>) {
    if matches!(f, Formula::Exists(..) | Formula::Forall(..)) {
        out.push((prefix.clone(), f));
    }
    for (i, child) in f.children().into_iter().enumerate() {
        prefix.push(i);
        quantifier_paths(child, prefix, out);
        prefix.pop();
    }
}

/// Find a productive split, preferring *innermost* quantifier scopes (the
/// smaller the duplicated scope, the smaller the growth); free-variable
/// splits over the whole formula come last. A split that would only
/// re-split a guard is not offered (see the module docs on termination):
/// a bound one when [`only_bound_guard`] holds, a free one when its atom is
/// in `guards` (the atoms of earlier free splits) and occurs only at guard
/// positions.
fn find_split(f: &Formula, guards: &[(Var, Term)]) -> Option<Split> {
    // Bound variables: scope is the quantifier body. Deepest first, ties in
    // preorder.
    let mut quantifiers = Vec::new();
    quantifier_paths(f, &mut Vec::new(), &mut quantifiers);
    quantifiers.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    for (path, node) in quantifiers {
        let (x, body, kind) = match node {
            Formula::Exists(v, g) => (*v, &**g, SplitKind::Exists),
            Formula::Forall(v, g) => (*v, &**g, SplitKind::Forall),
            _ => unreachable!("quantifier_paths yields quantifiers"),
        };
        for t in candidate_terms(body, x) {
            if only_bound_guard(&kind, body, x, t) {
                continue;
            }
            let (a1, a2) = split_parts(body, x, t);
            if assemble(&kind, x, t, &a1, &a2) != *node {
                return Some(Split {
                    path,
                    x,
                    t,
                    kind,
                    a1,
                    a2,
                });
            }
        }
    }
    // Free variables: scope is the whole formula.
    for x in free_vars(f) {
        for t in candidate_terms(f, x) {
            let guard = guards
                .iter()
                .any(|&(gx, gt)| is_eq_atom(Term::Var(gx), gt, x, t));
            if guard && !contains_eq_atom_below_guards(f, x, t) {
                continue;
            }
            let (a1, a2) = split_parts(f, x, t);
            if assemble(&SplitKind::Free, x, t, &a1, &a2) != *f {
                return Some(Split {
                    path: Vec::new(),
                    x,
                    t,
                    kind: SplitKind::Free,
                    a1,
                    a2,
                });
            }
        }
    }
    None
}

/// Algorithm A.1: equality-reduce `f`. The result is logically equivalent
/// to `f`; if `f` is wide-sense evaluable, the result is evaluable.
pub fn equality_reduce(f: &Formula) -> Formula {
    equality_reduce_counted(f).0
}

/// [`equality_reduce`], also returning how many splits it applied.
pub(crate) fn equality_reduce_counted(f: &Formula) -> (Formula, usize) {
    let mut f = simplify_trivial_eq(&rectified(f));
    let mut fresh = FreshVars::for_formula(&f);
    let mut guards: Vec<(Var, Term)> = Vec::new();
    let mut splits = 0;
    while splits < MAX_SPLITS && f.node_count() <= MAX_NODES {
        let Some(split) = find_split(&f, &guards) else {
            break;
        };
        // The two branches duplicate the scope: refresh their binders.
        let a1 = rename_bound_fresh(&split.a1, &mut fresh);
        let a2 = rename_bound_fresh(&split.a2, &mut fresh);
        let replacement = assemble(&split.kind, split.x, split.t, &a1, &a2);
        if let SplitKind::Free = split.kind {
            // `A₁` substitutes `t` for `x` in the guards of earlier splits
            // too: their images are guards as well.
            let image = |s: Term| if s == Term::Var(split.x) { split.t } else { s };
            let images: Vec<(Var, Term)> = guards
                .iter()
                .filter_map(|&(gx, gt)| match (image(Term::Var(gx)), image(gt)) {
                    (Term::Var(v), s) if s != Term::Var(v) => Some((v, s)),
                    (s, Term::Var(v)) if s != Term::Var(v) => Some((v, s)),
                    _ => None,
                })
                .collect();
            guards.push((split.x, split.t));
            guards.extend(images);
        }
        f = replace_at(&f, &split.path, replacement).expect("valid path");
        f = simplify_truth(&f);
        splits += 1;
    }
    (step3(&f, &mut fresh), splits)
}

/// Step 3: in any conjunction containing `x = z` where `x` is not free in
/// the remaining conjuncts `A` and `gen(z, A)` holds, conjoin `A(x)`
/// (a copy of `A` with `z ↦ x`) so that `x` is generated too. Conjuncts
/// `x ≠ t` do not count as part of `A`: they are the guards of splits on
/// `x`, and they generate nothing.
fn step3(f: &Formula, fresh: &mut FreshVars) -> Formula {
    fn go(f: &Formula, fresh: &mut FreshVars) -> Formula {
        match f {
            Formula::Atom(_) | Formula::Eq(..) => f.clone(),
            Formula::Not(g) => Formula::not(go(g, fresh)),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| go(g, fresh)).collect()),
            Formula::Exists(v, g) => Formula::Exists(*v, Box::new(go(g, fresh))),
            Formula::Forall(v, g) => Formula::Forall(*v, Box::new(go(g, fresh))),
            Formula::And(fs) => {
                let fs: Vec<Formula> = fs.iter().map(|g| go(g, fresh)).collect();
                let mut extra: Vec<Formula> = Vec::new();
                for (i, c) in fs.iter().enumerate() {
                    let Formula::Eq(Term::Var(a), Term::Var(b)) = c else {
                        continue;
                    };
                    for (x, z) in [(*a, *b), (*b, *a)] {
                        // A guard `x ≠ t` left here by a split does not
                        // generate `x`, so it is set aside: the copy made
                        // without it still does.
                        let rest = Formula::and(
                            fs.iter()
                                .enumerate()
                                .filter(|&(j, g)| j != i && !is_neq_guard(g, x))
                                .map(|(_, g)| g.clone())
                                .collect(),
                        );
                        if !is_free(x, &rest) && gen(z, &rest) {
                            let copy = substitute(&rest, z, Term::Var(x));
                            extra.push(rename_bound_fresh(&copy, fresh));
                        }
                    }
                }
                let mut out = fs;
                out.extend(extra);
                Formula::And(out)
            }
        }
    }
    simplify_truth(&go(f, fresh))
}

/// Is `f` a guard `x ≠ t` (in either orientation)?
fn is_neq_guard(f: &Formula, x: Var) -> bool {
    matches!(f, Formula::Not(g) if matches!(**g, Formula::Eq(a, b) if a == Term::Var(x) || b == Term::Var(x)))
}

/// Is `f` **wide-sense evaluable** (Def. A.1): does Algorithm A.1 turn it
/// into an evaluable formula?
pub fn is_wide_sense_evaluable(f: &Formula) -> bool {
    crate::classes::is_evaluable(&equality_reduce(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::is_evaluable;
    use crate::interp::FiniteInterp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rc_formula::{parse, Schema, Value};
    use rc_relalg::Database;

    fn equivalent(a: &Formula, b: &Formula) -> bool {
        let mut schema = Schema::infer(a).unwrap();
        for (p, ar) in Schema::infer(b).unwrap().predicates() {
            schema.declare(p, ar);
        }
        let mut cols = free_vars(a);
        for v in free_vars(b) {
            if !cols.contains(&v) {
                cols.push(v);
            }
        }
        let mut domain: Vec<Value> = (1..=3).map(Value::int).collect();
        for c in a.constants() {
            if !domain.contains(&c) {
                domain.push(c);
            }
        }
        for seed in 0..10u64 {
            let db = Database::random(&schema, &domain, 5, &mut StdRng::seed_from_u64(seed));
            let i = FiniteInterp::new(&db, domain.clone());
            if i.answers(a, &cols) != i.answers(b, &cols) {
                return false;
            }
        }
        true
    }

    #[test]
    fn trivial_equalities_vanish() {
        // x = x is NOT collapsed: it is domain dependent as a query.
        assert_eq!(
            simplify_trivial_eq(&parse("x = x").unwrap()),
            parse("x = x").unwrap()
        );
        assert!(!crate::classes::is_evaluable(&parse("x = x").unwrap()));
        assert!(simplify_trivial_eq(&parse("1 = 2").unwrap()).is_false());
        assert!(simplify_trivial_eq(&parse("1 = 1").unwrap()).is_true());
        assert_eq!(
            simplify_trivial_eq(&parse("P(x) & 'a' = 'b'").unwrap()),
            Formula::fls()
        );
    }

    #[test]
    fn bound_equality_to_constant_reduces() {
        // ∃x (x = 3 ∧ P(x, y)) reduces to P(3, y) (plus a dead branch).
        let f = parse("exists x. (x = 3 & P(x, y))").unwrap();
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
        // The reduced form no longer quantifies over x at all.
        assert_eq!(r, parse("P(3, y)").unwrap());
    }

    #[test]
    fn bound_equality_to_variable_reduces() {
        // ∃x (x = y ∧ Q(x, y)) ≡ Q(y, y) (E13).
        let f = parse("exists x. (x = y & Q(x, y))").unwrap();
        let r = equality_reduce(&f);
        assert_eq!(r, parse("Q(y, y)").unwrap());
    }

    #[test]
    fn repeated_variable_atom_with_constant_equality() {
        // Alg. A.1 on `p(x, x) ∧ x = c`: the A₁ substitution must hit
        // BOTH positions of the repeated variable, and the `x ≠ c` branch
        // must die (every occurrence of the atom is killed, so A₂ is
        // `p(x, x) ∧ false`).
        let f = parse("P(x, x) & x = 1").unwrap();
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
        assert!(is_evaluable(&r), "not evaluable after reduction: {r}");
        // No half-substituted residue like P(1, x) may survive.
        let printed = r.to_string();
        assert!(
            !printed.contains("P(1, x)") && !printed.contains("P(x, 1)"),
            "{r}"
        );

        // Bound: the quantifier absorbs the split entirely.
        let g = parse("exists x. (P(x, x) & x = 1)").unwrap();
        assert_eq!(equality_reduce(&g), parse("P(1, 1)").unwrap());
    }

    #[test]
    fn repeated_variable_atom_with_variable_equality() {
        // `∃x (p(x, x) ∧ x = y)` must collapse the diagonal onto y — both
        // positions substituted, quantifier dropped.
        let f = parse("exists x. (P(x, x) & x = y)").unwrap();
        assert_eq!(equality_reduce(&f), parse("P(y, y)").unwrap());

        // Free variant under a generator: stays equivalent and evaluable.
        let g = parse("Q(y) & (exists x. (P(x, x) & x = y))").unwrap();
        let r = equality_reduce(&g);
        assert!(equivalent(&g, &r), "{g} vs {r}");
        assert!(is_evaluable(&r), "not evaluable after reduction: {r}");
    }

    #[test]
    fn repeated_variable_atom_under_disjunction_is_wide_sense() {
        // `q(x) ∧ (p(x, x) ∨ x = c)`: not strict-sense (the disjunct
        // `x = c` alone doesn't generate x on its branch until the split).
        let f = parse("Q(x) & (P(x, x) | x = 1)").unwrap();
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
        assert!(is_evaluable(&r), "not evaluable after reduction: {r}");
        assert!(is_wide_sense_evaluable(&f));
    }

    #[test]
    fn free_variable_split_becomes_evaluable() {
        // P(y) ∧ (x = y ∨ Q(x)): not strict-sense evaluable (gen(x) fails),
        // but wide-sense: splits into x=y case (x generated by the copy
        // rule) and x≠y case (Q generates x).
        let f = parse("P(y) & (x = y | Q(x))").unwrap();
        assert!(!is_evaluable(&f));
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
        assert!(is_evaluable(&r), "not evaluable after reduction: {r}");
        assert!(is_wide_sense_evaluable(&f));
    }

    #[test]
    fn figure_6_example_reduces_to_evaluable() {
        // F = ∃z [P(x,z) ∧ (x=y ∨ Q(x,y,z)) ∧ ¬(z=y ∨ R(y,z))].
        let f = parse("exists z. (P(x, z) & (x = y | Q(x, y, z)) & !(z = y | R(y, z)))").unwrap();
        assert!(!is_evaluable(&f));
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f}  vs  {r}");
        assert!(is_evaluable(&r), "Fig. 6 result not evaluable: {r}");
        assert!(is_wide_sense_evaluable(&f));
    }

    #[test]
    fn default_value_query_stays_equivalent() {
        // x = c equalities are already strict-sense; reduction must not
        // break anything.
        let f = parse("P(x) & (S(y, x) | (forall z. !S(z, x)) & y = 'none')").unwrap();
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
        assert!(is_evaluable(&r));
    }

    #[test]
    fn reduction_terminates_on_equality_heavy_formulas() {
        let f = parse("exists x, y. (x = y & (x = 1 | y = 2) & (P(x) | x = y) & Q(x, y))").unwrap();
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
    }

    #[test]
    fn forall_split_is_equivalence() {
        // ∀x (x ≠ y ∨ A(x,y)) ≡ A(y,y) territory (E14 analogue).
        let f = parse("forall x. (x != y | Q(x, y))").unwrap();
        let r = equality_reduce(&f);
        assert!(equivalent(&f, &r), "{f} vs {r}");
    }

    #[test]
    fn random_formulas_reduce_equivalently() {
        use rc_formula::generate::{random_formula, GenConfig};
        let cfg = GenConfig {
            max_depth: 4,
            ..GenConfig::default()
        };
        let mut checked = 0;
        for seed in 0..80u64 {
            let f = random_formula(&cfg, &mut StdRng::seed_from_u64(seed));
            if !f.has_equality() || f.node_count() > 40 {
                continue;
            }
            let r = equality_reduce(&f);
            assert!(equivalent(&f, &r), "seed {seed}: {f}  vs  {r}");
            checked += 1;
        }
        assert!(checked >= 10, "too few equality formulas: {checked}");
    }

    /// The reducer as it stood before guards were excluded from
    /// re-splitting, kept as a differential oracle: it re-walks every path
    /// for each split and rebuilds the chosen parts, and wherever it can
    /// re-split a guard it built (a free `x = t` as `t = x`, or two bound
    /// guards in turn) it stops only at a cap. Returns the
    /// reduced formula, the number of splits applied, and whether it
    /// stopped at a cap (`MAX_SPLITS` or `MAX_NODES`) rather than at a
    /// fixpoint.
    fn oracle_equality_reduce(f: &Formula) -> (Formula, usize, bool) {
        use rc_formula::paths::{all_paths, subformula_at};
        fn find(f: &Formula) -> Option<(Path, Var, Term, SplitKind)> {
            let mut paths = all_paths(f);
            paths.sort_by_key(|p| std::cmp::Reverse(p.len()));
            for path in paths {
                let node = subformula_at(f, &path).expect("valid path");
                let (x, body, kind) = match node {
                    Formula::Exists(v, g) => (*v, &**g, SplitKind::Exists),
                    Formula::Forall(v, g) => (*v, &**g, SplitKind::Forall),
                    _ => continue,
                };
                for t in candidate_terms(body, x) {
                    let (a1, a2) = split_parts(body, x, t);
                    if assemble(&kind, x, t, &a1, &a2) != *node {
                        return Some((path, x, t, kind));
                    }
                }
            }
            for x in free_vars(f) {
                for t in candidate_terms(f, x) {
                    if !contains_eq_atom(f, x, t) {
                        continue;
                    }
                    let (a1, a2) = split_parts(f, x, t);
                    if assemble(&SplitKind::Free, x, t, &a1, &a2) != *f {
                        return Some((Vec::new(), x, t, SplitKind::Free));
                    }
                }
            }
            None
        }
        let mut f = simplify_trivial_eq(&rectified(f));
        let mut fresh = FreshVars::for_formula(&f);
        let mut splits = 0;
        let mut capped = true;
        for _ in 0..MAX_SPLITS {
            if f.node_count() > MAX_NODES {
                break;
            }
            let Some((path, x, t, kind)) = find(&f) else {
                capped = false;
                break;
            };
            let node = subformula_at(&f, &path).expect("valid path").clone();
            let scope = match (&kind, &node) {
                (SplitKind::Free, n) => (*n).clone(),
                (_, Formula::Exists(_, g)) | (_, Formula::Forall(_, g)) => (**g).clone(),
                _ => unreachable!("split kind matches node shape"),
            };
            let (a1, a2) = split_parts(&scope, x, t);
            let a1 = rename_bound_fresh(&a1, &mut fresh);
            let a2 = rename_bound_fresh(&a2, &mut fresh);
            let replacement = assemble(&kind, x, t, &a1, &a2);
            f = replace_at(&f, &path, replacement).expect("valid path");
            f = simplify_truth(&f);
            splits += 1;
        }
        (step3(&f, &mut fresh), splits, capped)
    }

    /// Are `a` and `b` equal up to renaming of bound variables?
    fn alpha_eq(a: &Formula, b: &Formula) -> bool {
        fn term(s: Term, t: Term, env: &[(Var, Var)]) -> bool {
            match (s, t) {
                (Term::Var(u), Term::Var(v)) => {
                    match env.iter().rev().find(|&&(p, q)| p == u || q == v) {
                        Some(&(p, q)) => p == u && q == v,
                        None => u == v,
                    }
                }
                _ => s == t,
            }
        }
        fn go(a: &Formula, b: &Formula, env: &mut Vec<(Var, Var)>) -> bool {
            match (a, b) {
                (Formula::Atom(p), Formula::Atom(q)) => {
                    p.pred == q.pred
                        && p.terms.len() == q.terms.len()
                        && p.terms.iter().zip(&q.terms).all(|(&s, &t)| term(s, t, env))
                }
                (Formula::Eq(s1, t1), Formula::Eq(s2, t2)) => {
                    term(*s1, *s2, env) && term(*t1, *t2, env)
                }
                (Formula::Not(g), Formula::Not(h)) => go(g, h, env),
                (Formula::And(fs), Formula::And(gs)) | (Formula::Or(fs), Formula::Or(gs)) => {
                    fs.len() == gs.len() && fs.iter().zip(gs).all(|(g, h)| go(g, h, env))
                }
                (Formula::Exists(u, g), Formula::Exists(v, h))
                | (Formula::Forall(u, g), Formula::Forall(v, h)) => {
                    env.push((*u, *v));
                    let same = go(g, h, env);
                    env.pop();
                    same
                }
                _ => false,
            }
        }
        go(a, b, &mut Vec::new())
    }

    #[test]
    fn alpha_eq_sees_through_bound_names_only() {
        let p = |s: &str| parse(s).unwrap();
        assert!(alpha_eq(&p("exists z. P(x, z)"), &p("exists w. P(x, w)")));
        assert!(!alpha_eq(&p("exists z. P(x, z)"), &p("exists z. P(y, z)")));
        assert!(!alpha_eq(&p("exists z. P(z, z)"), &p("exists w. P(w, x)")));
    }

    #[test]
    fn corpus_reduces_at_a_fixpoint_matching_the_oracle() {
        use crate::corpus::{by_id, corpus, formula_of};
        for e in corpus() {
            let f = formula_of(&e);
            let (r, splits) = equality_reduce_counted(&f);
            assert!(splits < MAX_SPLITS, "{}: {splits} splits", e.id);
            let (o, _, _) = oracle_equality_reduce(&f);
            assert!(alpha_eq(&r, &o), "{}: {r}  vs oracle  {o}", e.id);
        }
        let fig6 = formula_of(&by_id("fig6").expect("fig6 in the corpus"));
        let (_, splits) = equality_reduce_counted(&fig6);
        assert!(splits <= 3, "fig6 took {splits} splits");
        let (_, oracle_splits, capped) = oracle_equality_reduce(&fig6);
        assert!(capped && oracle_splits == MAX_SPLITS);
    }

    #[test]
    fn generated_formulas_match_the_oracle_verdict_and_stay_equivalent() {
        use crate::dom_baseline::eval_brute_force;
        use rc_formula::generate::{random_formula, GenConfig};
        let config = |max_depth| GenConfig {
            max_depth,
            ..GenConfig::default()
        };
        let generated =
            |depth, seed| random_formula(&config(depth), &mut StdRng::seed_from_u64(seed));
        let mut inputs: Vec<(String, Formula)> = (0..1000u64)
            .map(|seed| (format!("seed {seed}"), generated(4, seed)))
            .filter(|(_, f)| f.has_equality() && f.node_count() <= 40)
            .collect();
        // Its fixpoint leaves a guard `x ≠ 1` beside `x = y`; step 3 must
        // see past the guard for the result to stay evaluable.
        inputs.push(("depth 5 seed 533".to_string(), generated(5, 533)));
        let schema = config(4).schema;
        let domain: Vec<Value> = (1..=3).map(Value::int).collect();
        for (name, f) in &inputs {
            let (r, splits) = equality_reduce_counted(f);
            let (o, _, capped) = oracle_equality_reduce(f);
            assert!(splits < MAX_SPLITS, "{name}: {splits} splits on {f}");
            // Where the oracle reached its fixpoint the verdicts agree;
            // where it stopped at a cap (mid-oscillation, or blown up) its
            // verdict is a lower bound the fixpoint must not fall below.
            let (mine, its) = (is_evaluable(&r), is_evaluable(&o));
            assert!(
                mine == its || (capped && mine),
                "{name}: {f}\n  reduced {r}\n  oracle  {o}"
            );
            let cols = free_vars(f);
            for db_seed in 0..4u64 {
                let db = Database::random(&schema, &domain, 4, &mut StdRng::seed_from_u64(db_seed));
                let interp = FiniteInterp::active(&db, f);
                assert_eq!(
                    interp.answers(&r, &cols),
                    eval_brute_force(f, &db),
                    "{name}/{db_seed}: {f}  vs  {r}"
                );
            }
        }
        assert!(
            inputs.len() > 200,
            "too few equality formulas: {}",
            inputs.len()
        );
    }
}
