//! Common subexpression elimination (CSE).
//!
//! Table 2 row: pre_pattern `Stmt S_i: A = B op C; Stmt S_j: D = B op C`,
//! primitive action `Modify(exp(S_j, B op C), A)`, post_pattern
//! `Stmt S_j: D = A`.
//!
//! Global CSE: the reused occurrence may be any structurally equal
//! subexpression in a statement dominated by the defining statement, with
//! the value relationship `A == B op C` intact on every intervening path
//! (no redefinition of `A`, `B` or `C`).

use super::{Applied, IntactSolve, Opportunity};
use crate::actions::{ActionError, ActionLog};
use crate::pattern::{Pattern, XformParams};
use pivot_ir::{access, Rep};
use pivot_lang::equiv::exprs_equal_in;
use pivot_lang::{ExprId, ExprKind, Program, StmtId, StmtKind, Sym};

/// One binary node: its value-number key, statement and node.
type Occ = (u64, StmtId, ExprId);

/// Append an [`Occ`] for every binary node of the tree at `e` (statement
/// `s`), in pre-order as `stmt_exprs` lists them, and return `e`'s
/// structural value-number key: operator and operand keys, symbols by id,
/// constants by value. Structurally equal expressions have equal keys, so
/// an occurrence can only match a definition's RHS inside the RHS's
/// bucket; distinct expressions may share a key, so each match is
/// confirmed with `exprs_equal_in`.
fn push_keys(prog: &Program, s: StmtId, e: ExprId, occs: &mut Vec<Occ>) -> u64 {
    // FxHash's step: one rotate, xor and multiply per word.
    fn mix(h: u64, x: u64) -> u64 {
        (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    match &prog.expr(e).kind {
        ExprKind::Const(c) => mix(1, *c as u64),
        ExprKind::Var(v) => mix(2, v.index() as u64),
        ExprKind::Index(a, subs) => subs.iter().fold(mix(3, a.index() as u64), |h, &x| {
            mix(h, push_keys(prog, s, x, occs))
        }),
        ExprKind::Unary(op, a) => mix(mix(4, *op as u64), push_keys(prog, s, *a, occs)),
        ExprKind::Binary(op, a, b) => {
            let at = occs.len();
            occs.push((0, s, e));
            let ka = push_keys(prog, s, *a, occs);
            let key = mix(mix(mix(5, *op as u64), ka), push_keys(prog, s, *b, occs));
            occs[at].0 = key;
            key
        }
    }
}

/// A definition `A = B op C` that may offer its value to later occurrences.
struct Def {
    stmt: StmtId,
    rhs: ExprId,
    result: Sym,
    /// Symbols whose redefinition breaks `A == B op C`.
    watched: Vec<Sym>,
    /// Its RHS's key, then its bucket in the sorted occurrence list.
    key: u64,
    bucket: std::ops::Range<usize>,
}

/// `def` as a CSE definition, if its shape qualifies: a scalar target and
/// a non-faulting arithmetic RHS that does not read the target.
fn definition(prog: &Program, def: StmtId) -> Option<Def> {
    let StmtKind::Assign { target, value } = &prog.stmt(def).kind else {
        return None;
    };
    let rhs = *value;
    let ExprKind::Binary(op, ..) = prog.expr(rhs).kind else {
        return None;
    };
    if !target.is_scalar() || !op.is_arithmetic() || access::expr_can_fault(prog, rhs) {
        return None;
    }
    let a = target.var;
    // Symbols whose redefinition breaks A == B op C. Array reads in the
    // expression make it ineligible unless the arrays are watched too.
    let mut watched: Vec<Sym> = vec![a];
    prog.expr_uses(rhs, &mut watched);
    // A defining statement like A = A + 1 can never offer its RHS value
    // through A afterwards.
    if watched[1..].contains(&a) {
        return None;
    }
    watched.sort_unstable();
    watched.dedup();
    Some(Def {
        stmt: def,
        rhs,
        result: a,
        watched,
        key: 0,
        bucket: 0..0,
    })
}

/// Detect global CSE opportunities.
///
/// Every binary occurrence is bucketed by [`push_keys`]'s key; a
/// definition is compared only with the occurrences in its RHS's bucket,
/// and one [`IntactSolve`] answers "is `A == B op C` intact at the use"
/// for every definition at once. Opportunities come out per definition in
/// pre-order, then per use statement in pre-order, then per node in
/// `stmt_exprs` order, before the stable [`super::sort_opps`].
pub fn find(prog: &Program, rep: &Rep) -> Vec<Opportunity> {
    let mut occs: Vec<Occ> = Vec::new();
    let mut defs = Vec::new();
    for s in prog.attached_stmts() {
        let at = occs.len();
        for root in prog.stmt_expr_roots(s) {
            push_keys(prog, s, root, &mut occs);
        }
        if let Some(mut d) = definition(prog, s) {
            if let Some(o) = occs[at..].iter().find(|o| o.2 == d.rhs) {
                d.key = o.0;
                defs.push(d);
            }
        }
    }
    // The stable sort keeps each bucket in pre-order.
    occs.sort_by_key(|o| o.0);
    defs.retain_mut(|d| {
        d.bucket = occs.partition_point(|o| o.0 < d.key)..occs.partition_point(|o| o.0 <= d.key);
        occs[d.bucket.clone()].iter().any(|o| o.1 != d.stmt)
    });
    if defs.is_empty() {
        return Vec::new();
    }

    let solve = IntactSolve::new(prog, rep, defs.iter().map(|d| (d.stmt, &d.watched[..])));
    let mut out = Vec::new();
    for (k, d) in defs.iter().enumerate() {
        let mut rhs_text = None;
        for &(_, use_stmt, e) in &occs[d.bucket.clone()] {
            if use_stmt == d.stmt
                || !exprs_equal_in(prog, d.rhs, e)
                || !solve.intact(rep, k, use_stmt)
            {
                continue;
            }
            let rhs_text =
                rhs_text.get_or_insert_with(|| pivot_lang::printer::expr_to_string(prog, d.rhs));
            out.push(Opportunity {
                params: XformParams::Cse {
                    def_stmt: d.stmt,
                    use_stmt,
                    expr: e,
                    result_var: d.result,
                    operand_syms: d.watched.clone(),
                    old_kind: prog.expr(e).kind.clone(),
                    reaching_at_use: super::reaching_snapshot(prog, rep, use_stmt, &d.watched),
                },
                description: format!(
                    "CSE: reuse `{} = {}` (line {}) at line {}",
                    prog.symbols.name(d.result),
                    rhs_text,
                    prog.stmt(d.stmt).label,
                    prog.stmt(use_stmt).label
                ),
            });
        }
    }
    super::sort_opps(rep, &mut out);
    out
}

/// Apply: `Modify(exp(S_j, B op C), A)`.
pub fn apply(
    prog: &mut Program,
    log: &mut ActionLog,
    opp: &Opportunity,
) -> Result<Applied, ActionError> {
    let XformParams::Cse {
        def_stmt,
        use_stmt,
        expr,
        result_var,
        ref old_kind,
        ..
    } = opp.params
    else {
        unreachable!("cse::apply called with non-CSE params")
    };
    if prog.expr(expr).kind != *old_kind {
        return Err(ActionError::ExprMismatch(expr));
    }
    let pre = Pattern::capture(
        prog,
        "Stmt S_i: A = B op C; Stmt S_j: D = B op C",
        &[def_stmt, use_stmt],
    );
    let s1 = log.modify_expr(prog, expr, ExprKind::Var(result_var))?;
    let post = Pattern::capture(prog, "Stmt S_j: D = A", &[def_stmt, use_stmt]);
    Ok(Applied {
        params: opp.params.clone(),
        pre,
        post,
        stamps: vec![s1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_lang::parser::parse;
    use pivot_lang::printer::to_source;

    fn setup(src: &str) -> (Program, Rep) {
        let p = parse(src).unwrap();
        let rep = Rep::build(&p);
        (p, rep)
    }

    #[test]
    fn figure1_cse_site() {
        let (p, rep) = setup(
            "D = E + F\nC = 1\ndo i = 1, 100\n  do j = 1, 50\n    A(j) = B(j) + C\n    R(i, j) = E + F\n  enddo\nenddo\n",
        );
        let opps = find(&p, &rep);
        assert_eq!(opps.len(), 1);
        let XformParams::Cse {
            def_stmt, use_stmt, ..
        } = opps[0].params
        else {
            unreachable!()
        };
        assert_eq!(p.stmt(def_stmt).label, 1);
        assert_eq!(p.stmt(use_stmt).label, 6);
    }

    #[test]
    fn apply_rewrites_to_var() {
        let (mut p, rep) = setup("d = e + f\nr = e + f\n");
        let opps = find(&p, &rep);
        assert_eq!(opps.len(), 1);
        let mut log = ActionLog::new();
        apply(&mut p, &mut log, &opps[0]).unwrap();
        assert_eq!(to_source(&p), "d = e + f\nr = d\n");
    }

    #[test]
    fn blocked_by_operand_redefinition() {
        let (p, rep) = setup("d = e + f\ne = 0\nr = e + f\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn blocked_by_result_redefinition() {
        let (p, rep) = setup("d = e + f\nd = 0\nr = e + f\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn blocked_without_domination() {
        let (p, rep) = setup("read c\nif (c > 0) then\n  d = e + f\nendif\nr = e + f\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn self_referential_definition_ineligible() {
        let (p, rep) = setup("a = a + b\nr = a + b\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn subexpression_occurrence_found() {
        let (p, rep) = setup("d = e + f\nr = (e + f) * 2\n");
        let opps = find(&p, &rep);
        assert_eq!(opps.len(), 1);
        let mut p = p;
        let mut log = ActionLog::new();
        apply(&mut p, &mut log, &opps[0]).unwrap();
        assert_eq!(to_source(&p), "d = e + f\nr = d * 2\n");
    }

    #[test]
    fn array_expression_blocked_by_store() {
        let (p, rep) = setup("d = A(i) + 1\nA(i) = 0\nr = A(i) + 1\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn apply_preserves_semantics() {
        let src = "read e\nread f\nd = e + f\nr = e + f\nwrite d\nwrite r\n";
        let (mut p, rep) = setup(src);
        let before = pivot_lang::interp::run_default(&p, &[3, 4]).unwrap();
        let mut log = ActionLog::new();
        for opp in find(&p, &rep) {
            apply(&mut p, &mut log, &opp).unwrap();
        }
        let after = pivot_lang::interp::run_default(&p, &[3, 4]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn commutative_forms_not_unified() {
        // Structural (syntactic) match only: f + e is not matched by e + f.
        // (Matching modulo commutativity is a legal extension; the paper's
        // pre_pattern is syntactic.)
        let (p, rep) = setup("d = e + f\nr = f + e\n");
        assert!(find(&p, &rep).is_empty());
    }
}
