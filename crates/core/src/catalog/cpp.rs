//! Copy propagation (CPP).
//!
//! A use of `x` at `S_j` is replaced by `y` when `S_i : x = y` is the sole
//! reaching definition of the use **and** `y` is not redefined on any path
//! from `S_i` to `S_j` (the [`super::value_intact`] condition, answered for
//! every copy at once by one [`IntactSolve`]).

use super::{var_use_exprs, Applied, IntactSolve, Opportunity};
use crate::actions::{ActionError, ActionLog};
use crate::pattern::{Pattern, XformParams};
use pivot_ir::Rep;
use pivot_lang::{ExprKind, Program, StmtId, StmtKind, Sym};

/// Detect copy propagation opportunities: per copy in pre-order, then per
/// use in def-use chain order.
pub fn find(prog: &Program, rep: &Rep) -> Vec<Opportunity> {
    let sole_uses = |def: StmtId, x: Sym| {
        rep.chains
            .uses_of(def, x)
            .iter()
            .copied()
            .filter(move |&u| rep.chains.sole_def(u, x) == Some(def))
    };
    // Copies `x = y` that are the sole reaching definition of some use;
    // both x and y must be undisturbed between S_i and S_j.
    let mut copies: Vec<(StmtId, [Sym; 2])> = Vec::new();
    for def in prog.attached_stmts() {
        let StmtKind::Assign { target, value } = &prog.stmt(def).kind else {
            continue;
        };
        if !target.is_scalar() {
            continue;
        }
        let ExprKind::Var(y) = prog.expr(*value).kind else {
            continue;
        };
        let x = target.var;
        if x != y && sole_uses(def, x).next().is_some() {
            copies.push((def, [x, y]));
        }
    }
    if copies.is_empty() {
        return Vec::new();
    }

    let solve = IntactSolve::new(prog, rep, copies.iter().map(|(d, w)| (*d, &w[..])));
    let mut out = Vec::new();
    for (k, &(def, [x, y])) in copies.iter().enumerate() {
        for use_stmt in sole_uses(def, x) {
            if !solve.intact(rep, k, use_stmt) {
                continue;
            }
            let reaching_at_use = super::reaching_snapshot(prog, rep, use_stmt, &[x, y]);
            for e in var_use_exprs(prog, use_stmt, x) {
                out.push(Opportunity {
                    params: XformParams::Cpp {
                        def_stmt: def,
                        use_stmt,
                        expr: e,
                        from: x,
                        to: y,
                        reaching_at_use: reaching_at_use.clone(),
                    },
                    description: format!(
                        "CPP: replace {} by {} at line {}",
                        prog.symbols.name(x),
                        prog.symbols.name(y),
                        prog.stmt(use_stmt).label
                    ),
                });
            }
        }
    }
    super::sort_opps(rep, &mut out);
    out
}

/// Apply: `Modify(opr(S_j,pos), y)`.
pub fn apply(
    prog: &mut Program,
    log: &mut ActionLog,
    opp: &Opportunity,
) -> Result<Applied, ActionError> {
    let XformParams::Cpp {
        def_stmt,
        use_stmt,
        expr,
        from,
        to,
        ..
    } = opp.params.clone()
    else {
        unreachable!("cpp::apply called with non-CPP params")
    };
    if prog.expr(expr).kind != (ExprKind::Var(from)) {
        return Err(ActionError::ExprMismatch(expr));
    }
    let pre = Pattern::capture(
        prog,
        "Stmt S_i: x = y; Stmt S_j: opr(pos) == x",
        &[def_stmt, use_stmt],
    );
    let s1 = log.modify_expr(prog, expr, ExprKind::Var(to))?;
    let post = Pattern::capture(prog, "Stmt S_j: opr(pos) = y", &[def_stmt, use_stmt]);
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
    fn finds_simple_copy() {
        let (p, rep) = setup("read y\nx = y\nwrite x + 1\n");
        let opps = find(&p, &rep);
        assert_eq!(opps.len(), 1);
        let XformParams::Cpp { from, to, .. } = opps[0].params else {
            unreachable!()
        };
        assert_eq!(p.symbols.name(from), "x");
        assert_eq!(p.symbols.name(to), "y");
    }

    #[test]
    fn blocked_when_source_redefined() {
        let (p, rep) = setup("read y\nx = y\ny = 0\nwrite x\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn blocked_when_source_redefined_on_one_path() {
        let (p, rep) = setup("read y\nx = y\nread c\nif (c > 0) then\n  y = 0\nendif\nwrite x\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn self_copy_ignored() {
        let (p, rep) = setup("x = x\nwrite x\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn apply_preserves_semantics() {
        let src = "read y\nx = y\nwrite x * x\n";
        let (mut p, rep) = setup(src);
        let before = pivot_lang::interp::run_default(&p, &[7]).unwrap();
        let mut log = ActionLog::new();
        for opp in find(&p, &rep) {
            // Re-finding is unnecessary: each opportunity targets a distinct
            // occurrence node.
            let _ = apply(&mut p, &mut log, &opp);
        }
        assert_eq!(to_source(&p), "read y\nx = y\nwrite y * y\n");
        let after = pivot_lang::interp::run_default(&p, &[7]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn propagation_enables_dce() {
        // After propagating, x = y is dead — the classic CPP→DCE enabling
        // interaction of Table 4.
        let (mut p, rep) = setup("read y\nx = y\nwrite x\n");
        let mut log = ActionLog::new();
        for opp in find(&p, &rep) {
            apply(&mut p, &mut log, &opp).unwrap();
        }
        let rep2 = Rep::build(&p);
        let dce = super::super::dce::find(&p, &rep2);
        assert_eq!(dce.len(), 1);
    }
}
