//! Strip mining (SMI).
//!
//! Splits a unit-step constant-bound loop into an outer strip loop and the
//! original loop iterating one strip: `do i = lo, hi` becomes
//!
//! ```text
//! do is = lo, hi, s
//!   do i = is, is + s - 1
//!     ...
//!   enddo
//! enddo
//! ```
//!
//! where `s` divides the trip count. Primitive actions: `Add` (the new
//! outer loop), `Move` (the original loop into it), header `Modify` (the
//! inner bounds).

use super::{stmt_def, Applied, Opportunity};
use crate::actions::{read_header, ActionError, ActionKind, ActionLog, LoopHeader};
use crate::pattern::{Pattern, XformParams};
use pivot_ir::{access, loops, Rep};
use pivot_lang::{BinOp, BlockRole, ExprId, ExprKind, Loc, Parent, Program, StmtKind, Sym};

/// Default strip length.
pub const STRIP: i64 = 4;

/// Detect strip-minable loops (strip [`STRIP`]).
pub fn find(prog: &Program, rep: &Rep) -> Vec<Opportunity> {
    let mut out = Vec::new();
    for lp in prog.attached_stmts() {
        if !loops::is_loop(prog, lp) {
            continue;
        }
        let Some(bounds) = loops::const_bounds(prog, lp) else {
            continue;
        };
        if bounds.step != 1 {
            continue;
        }
        let trip = bounds.trip_count();
        if trip < STRIP || trip % STRIP != 0 {
            continue;
        }
        // The loop body must not use or define a variable that would collide
        // with the fresh strip variable — guaranteed by `fresh`, nothing to
        // check. But the body must not redefine its own induction variable.
        let var = loops::loop_var(prog, lp).expect("lp is a loop");
        let body_defines_var = prog
            .subtree(lp)
            .iter()
            .any(|&s| s != lp && access::stmt_def_use(prog, s).defines_scalar(var));
        if body_defines_var {
            continue;
        }
        out.push(Opportunity {
            // `outer` and `strip_var` are completed at apply time.
            params: XformParams::Smi {
                outer: lp,
                inner: lp,
                strip: STRIP,
                strip_var: var,
            },
            description: format!(
                "SMI: strip-mine loop at line {} by {}",
                prog.stmt(lp).label,
                STRIP
            ),
        });
    }
    super::sort_opps(rep, &mut out);
    out
}

/// Apply: `Add(outer)`, `Move(inner into outer)`, `Modify(inner bounds)`.
pub fn apply(
    prog: &mut Program,
    log: &mut ActionLog,
    opp: &Opportunity,
) -> Result<Applied, ActionError> {
    let XformParams::Smi { inner, strip, .. } = opp.params else {
        unreachable!("smi::apply called with non-SMI params")
    };
    let pre = Pattern::capture(prog, "Loop L1 (unit step, trip % s == 0)", &[inner]);
    let old = read_header(prog, inner).ok_or(ActionError::HeaderMismatch(inner))?;
    // Fresh strip variable named after the original (`i` → `i_s`).
    let base = format!("{}_s", prog.symbols.name(old.var));
    let in_use = reachable_syms(prog, log);
    let strip_var = prog
        .symbols
        .fresh(&base, |y| in_use.get(y.index()).copied().unwrap_or(true));
    // Build the outer loop: do is = lo', hi', strip  (bounds cloned so the
    // inner keeps its own expression nodes).
    let outer = prog.alloc_stmt(StmtKind::Write {
        value: pivot_lang::ExprId(0),
    });
    let lo2 = prog.clone_expr(old.lo, outer);
    let hi2 = prog.clone_expr(old.hi, outer);
    let step2 = prog.alloc_expr(ExprKind::Const(strip), outer);
    prog.stmt_mut(outer).kind = StmtKind::DoLoop {
        var: strip_var,
        lo: lo2,
        hi: hi2,
        step: Some(step2),
        body: Vec::new(),
    };
    let slot = prog.loc_of(inner).map_err(ActionError::from)?;
    let mut stamps = Vec::new();
    stamps.push(log.add(prog, outer, slot)?);
    stamps.push(log.move_stmt(
        prog,
        inner,
        Loc {
            parent: Parent::Block(outer, BlockRole::LoopBody),
            anchor: pivot_lang::AnchorPos::Start,
        },
    )?);
    // Inner bounds: is .. is + s - 1, step 1 (explicit).
    let n_lo = prog.alloc_expr(ExprKind::Var(strip_var), inner);
    let base_v = prog.alloc_expr(ExprKind::Var(strip_var), inner);
    let off = prog.alloc_expr(ExprKind::Const(strip - 1), inner);
    let n_hi = prog.alloc_expr(ExprKind::Binary(BinOp::Add, base_v, off), inner);
    let new = LoopHeader {
        var: old.var,
        lo: n_lo,
        hi: n_hi,
        step: old.step,
    };
    stamps.push(log.modify_header(prog, inner, new)?);
    let post = Pattern::capture(prog, "Loops (L_strip, L1)", &[outer, inner]);
    Ok(Applied {
        params: XformParams::Smi {
            outer,
            inner,
            strip,
            strip_var,
        },
        pre,
        post,
        stamps,
    })
}

/// Symbols, by index, that something the session can still reach refers
/// to: an attached statement, or a node that the inverse of an action in
/// the active log re-attaches (a deleted statement's subtree, the payload
/// a `Modify` restores, a replaced loop header). A strip variable interned
/// by an undone strip-mine is referred to only by detached nodes that no
/// active action can bring back, so the next strip-mine of that loop gets
/// the same name as a session that never applied the undone one.
fn reachable_syms(prog: &Program, log: &ActionLog) -> Vec<bool> {
    let mut seen = vec![false; prog.symbols.len()];
    let mut mark = |y: Sym| {
        if let Some(v) = seen.get_mut(y.index()) {
            *v = true;
        }
    };
    let mut exprs: Vec<ExprId> = Vec::new();
    let mut stmts = prog.attached_stmts();
    for a in log.actions.iter() {
        match &a.kind {
            ActionKind::Delete { stmt, .. } => stmts.extend(prog.subtree(*stmt)),
            ActionKind::ModifyExpr { old, .. } => {
                mark_payload(old, &mut mark);
                pivot_lang::program::collect_children(old, &mut exprs);
            }
            ActionKind::ModifyHeader { old, .. } => {
                mark(old.var);
                exprs.extend([old.lo, old.hi]);
                exprs.extend(old.step);
            }
            ActionKind::Add { .. } | ActionKind::Move { .. } | ActionKind::Copy { .. } => {}
        }
    }
    for s in stmts {
        if let Some(y) = stmt_def(prog, s) {
            mark(y);
        }
        exprs.extend(prog.stmt_expr_roots(s));
    }
    while let Some(e) = exprs.pop() {
        let kind = &prog.expr(e).kind;
        mark_payload(kind, &mut mark);
        pivot_lang::program::collect_children(kind, &mut exprs);
    }
    seen
}

/// Mark the symbol an expression payload names directly.
fn mark_payload(kind: &ExprKind, mark: &mut impl FnMut(Sym)) {
    if let ExprKind::Var(y) | ExprKind::Index(y, _) = kind {
        mark(*y);
    }
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
    fn finds_divisible_unit_step_loop() {
        let (p, rep) = setup("do i = 1, 8\n  A(i) = i\nenddo\n");
        assert_eq!(find(&p, &rep).len(), 1);
    }

    #[test]
    fn non_unit_step_blocks() {
        let (p, rep) = setup("do i = 1, 8, 2\n  A(i) = i\nenddo\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn indivisible_blocks() {
        let (p, rep) = setup("do i = 1, 7\n  A(i) = i\nenddo\n");
        assert!(find(&p, &rep).is_empty());
    }

    #[test]
    fn apply_shape() {
        let (mut p, rep) = setup("do i = 1, 8\n  A(i) = i\nenddo\n");
        let opps = find(&p, &rep);
        let mut log = ActionLog::new();
        let applied = apply(&mut p, &mut log, &opps[0]).unwrap();
        assert_eq!(
            to_source(&p),
            "do i_s = 1, 8, 4\n  do i = i_s, i_s + 3\n    A(i) = i\n  enddo\nenddo\n"
        );
        assert_eq!(applied.stamps.len(), 3);
        p.assert_consistent();
    }

    #[test]
    fn apply_preserves_semantics() {
        let src = "s = 0\ndo i = 1, 8\n  s = s + i\nenddo\nwrite s\nwrite i\n";
        let (mut p, rep) = setup(src);
        let before = pivot_lang::interp::run_default(&p, &[]).unwrap();
        let opps = find(&p, &rep);
        assert_eq!(opps.len(), 1);
        let mut log = ActionLog::new();
        apply(&mut p, &mut log, &opps[0]).unwrap();
        let after = pivot_lang::interp::run_default(&p, &[]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn fresh_variable_avoids_collision() {
        let src = "i_s = 99\ndo i = 1, 4\n  A(i) = i\nenddo\nwrite i_s\n";
        let (mut p, rep) = setup(src);
        let before = pivot_lang::interp::run_default(&p, &[]).unwrap();
        let opps = find(&p, &rep);
        assert_eq!(opps.len(), 1);
        let mut log = ActionLog::new();
        let applied = apply(&mut p, &mut log, &opps[0]).unwrap();
        let XformParams::Smi { strip_var, .. } = applied.params else {
            unreachable!()
        };
        assert_eq!(p.symbols.name(strip_var), "i_s_1");
        let after = pivot_lang::interp::run_default(&p, &[]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn undone_strip_mine_frees_its_name() {
        use crate::engine::{Session, Strategy};
        let src = "do i = 1, 8\n  A(i) = i\nenddo\nwrite A(1)\n";
        let mut s = Session::from_source(src).unwrap();
        let first = s.apply_kind(crate::XformKind::Smi).unwrap();
        s.undo(first, Strategy::Regional).unwrap();
        s.apply_kind(crate::XformKind::Smi).unwrap();
        // The same name a session that never applied the first one picks.
        let mut fresh = Session::from_source(src).unwrap();
        fresh.apply_kind(crate::XformKind::Smi).unwrap();
        assert_eq!(s.source(), fresh.source());
        assert!(s.source().starts_with("do i_s = 1, 8, 4\n"));
    }

    #[test]
    fn deleted_use_an_active_record_can_restore_blocks_reuse() {
        use crate::engine::Session;
        // `i_s = 5` is dead. Once DCE deletes it, no attached statement
        // names `i_s`, but undoing the DCE would re-attach it.
        let src = "i_s = 5\ndo i = 1, 8\n  A(i) = i\nenddo\nwrite A(1)\n";
        let mut s = Session::from_source(src).unwrap();
        s.apply_kind(crate::XformKind::Dce).unwrap();
        assert!(!s.source().contains("i_s = 5"));
        s.apply_kind(crate::XformKind::Smi).unwrap();
        assert!(
            s.source().starts_with("do i_s_1 = 1, 8, 4\n"),
            "{}",
            s.source()
        );
    }

    #[test]
    fn strip_mining_enables_interchange() {
        // After strip mining, the (strip, inner) pair is NOT tightly nested
        // in the interchangeable sense — it is: outer body = [inner]. The
        // classic SMI→INX enabling interaction of Table 4.
        let (mut p, rep) = setup("do i = 1, 8\n  A(i) = 1\nenddo\n");
        let opps = find(&p, &rep);
        let mut log = ActionLog::new();
        apply(&mut p, &mut log, &opps[0]).unwrap();
        let rep2 = Rep::build(&p);
        // Tightly nested now.
        let outer = p.body[0];
        assert!(pivot_ir::loops::tightly_nested_inner(&p, outer).is_some());
        let _ = rep2;
    }
}
