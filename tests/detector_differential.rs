//! Differential test of the CSE and CPP detectors against the pairwise
//! scans they replaced.
//!
//! `catalog::cse::find` buckets binary occurrences by value-number key and
//! answers intactness for every definition with one batched solve;
//! `catalog::cpp::find` uses the same solve. The reference below is the
//! earlier detector: every (definition, statement, expression) triple
//! tested for structural equality, one `value_intact` walk per match, one
//! `defs_reaching` per watched symbol. Both must return the same
//! opportunities, field for field and in the same order, on apply-sweep
//! rounds, a prepared 200-record undo session, search-walk states and
//! generated programs.

use pivot_undo::catalog::{cpp, cse};
use pivot_undo::engine::{Session, Strategy};
use pivot_undo::ALL_KINDS;
use pivot_workload::search::{search_session, RejectMode, Search, SearchCfg, StepKind};
use pivot_workload::{gen_program, prepare, WorkloadCfg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The pairwise detectors, as they were before value-number buckets and
/// the batched intactness solve.
mod reference {
    use pivot_ir::{access, Rep};
    use pivot_lang::equiv::exprs_equal_in;
    use pivot_lang::{ExprKind, Program, StmtId, StmtKind, Sym};
    use pivot_undo::catalog::{value_intact, var_use_exprs, Opportunity};
    use pivot_undo::XformParams;

    fn reaching_snapshot(
        prog: &Program,
        rep: &Rep,
        use_stmt: StmtId,
        syms: &[Sym],
    ) -> Vec<(Sym, Vec<StmtId>)> {
        syms.iter()
            .map(|&y| {
                let mut defs = rep.reach.defs_reaching(prog, &rep.cfg, use_stmt, y);
                defs.sort_unstable();
                defs.dedup();
                (y, defs)
            })
            .collect()
    }

    fn sort_opps(rep: &Rep, opps: &mut [Opportunity]) {
        opps.sort_by_key(|o| {
            let sites = o.params.site_stmts();
            let first = sites
                .iter()
                .filter_map(|&s| rep.position(s))
                .min()
                .unwrap_or(usize::MAX);
            let exprs = o.params.site_exprs();
            (first, exprs.first().map(|e| e.index()).unwrap_or(0))
        });
    }

    pub fn cse(prog: &Program, rep: &Rep) -> Vec<Opportunity> {
        let mut out = Vec::new();
        let stmts = prog.attached_stmts();
        for &def in &stmts {
            let StmtKind::Assign { target, value } = &prog.stmt(def).kind else {
                continue;
            };
            if !target.is_scalar() {
                continue;
            }
            let rhs = *value;
            let ExprKind::Binary(op, ..) = prog.expr(rhs).kind else {
                continue;
            };
            if !op.is_arithmetic() || access::expr_can_fault(prog, rhs) {
                continue;
            }
            let a = target.var;
            let mut watched: Vec<Sym> = vec![a];
            prog.expr_uses(rhs, &mut watched);
            watched.sort_unstable();
            watched.dedup();
            let mut rhs_syms = Vec::new();
            prog.expr_uses(rhs, &mut rhs_syms);
            if rhs_syms.contains(&a) {
                continue;
            }
            for &use_stmt in &stmts {
                if use_stmt == def {
                    continue;
                }
                for e in prog.stmt_exprs(use_stmt) {
                    if !matches!(prog.expr(e).kind, ExprKind::Binary(..)) {
                        continue;
                    }
                    if !exprs_equal_in(prog, rhs, e) {
                        continue;
                    }
                    if !value_intact(prog, rep, def, use_stmt, &watched) {
                        continue;
                    }
                    let reaching_at_use = reaching_snapshot(prog, rep, use_stmt, &watched);
                    out.push(Opportunity {
                        params: XformParams::Cse {
                            def_stmt: def,
                            use_stmt,
                            expr: e,
                            result_var: a,
                            operand_syms: watched.clone(),
                            old_kind: prog.expr(e).kind.clone(),
                            reaching_at_use,
                        },
                        description: format!(
                            "CSE: reuse `{} = {}` (line {}) at line {}",
                            prog.symbols.name(a),
                            pivot_lang::printer::expr_to_string(prog, rhs),
                            prog.stmt(def).label,
                            prog.stmt(use_stmt).label
                        ),
                    });
                }
            }
        }
        sort_opps(rep, &mut out);
        out
    }

    pub fn cpp(prog: &Program, rep: &Rep) -> Vec<Opportunity> {
        let mut out = Vec::new();
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
            if x == y {
                continue;
            }
            for &use_stmt in rep.chains.uses_of(def, x) {
                if rep.chains.sole_def(use_stmt, x) != Some(def) {
                    continue;
                }
                if !value_intact(prog, rep, def, use_stmt, &[x, y]) {
                    continue;
                }
                for e in var_use_exprs(prog, use_stmt, x) {
                    let reaching_at_use = reaching_snapshot(prog, rep, use_stmt, &[x, y]);
                    out.push(Opportunity {
                        params: XformParams::Cpp {
                            def_stmt: def,
                            use_stmt,
                            expr: e,
                            from: x,
                            to: y,
                            reaching_at_use,
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
        sort_opps(rep, &mut out);
        out
    }
}

/// Opportunities compared so far, per kind: a run that compared none of
/// one kind proves nothing about it.
#[derive(Default, Debug)]
struct Compared {
    states: usize,
    cse: usize,
    cpp: usize,
}

impl Compared {
    /// Compare both detectors with the reference on the session's current
    /// state; panics on the first difference.
    fn check(&mut self, s: &Session, at: &str) {
        let (p, rep) = (&s.prog, &*s.rep);
        let render = |opps: Vec<pivot_undo::Opportunity>| -> Vec<String> {
            opps.iter().map(|o| format!("{o:?}")).collect()
        };
        let got = render(cse::find(p, rep));
        assert_eq!(got, render(reference::cse(p, rep)), "CSE differs at {at}");
        self.cse += got.len();
        let got = render(cpp::find(p, rep));
        assert_eq!(got, render(reference::cpp(p, rep)), "CPP differs at {at}");
        self.cpp += got.len();
        self.states += 1;
    }

    fn assert_covers_both(&self, what: &str) {
        println!("{what}: {self:?}, 0 mismatches");
        assert!(self.cse > 0 && self.cpp > 0, "{what} is vacuous: {self:?}");
    }
}

/// Apply over seeded kind shuffles until `cap` records are active or no
/// kind applies, comparing before the first apply and after each one.
fn sweep(s: &mut Session, seed: u64, cap: usize, seen: &mut Compared) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kinds = ALL_KINDS.to_vec();
    seen.check(s, &format!("seed {seed}, start"));
    loop {
        kinds.shuffle(&mut rng);
        let mut progressed = false;
        for &kind in &kinds {
            if s.history.active_len() >= cap {
                return;
            }
            let Some(opp) = s.find(kind).into_iter().next() else {
                continue;
            };
            s.apply(&opp).expect("a found opportunity applies");
            progressed = true;
            let at = format!(
                "seed {seed}, {} active, after {kind}",
                s.history.active_len()
            );
            seen.check(s, &at);
        }
        if !progressed {
            return;
        }
    }
}

/// The apply-sweep workload's shape: 64 fragments, two Figure-1 chains,
/// noise 0.3, rounds capped at 60 active records.
#[test]
fn apply_sweep_rounds_match_reference() {
    let cfg = WorkloadCfg {
        fragments: 64,
        noise_ratio: 0.3,
        kinds: None,
        figure1_chains: 2,
    };
    let mut seen = Compared::default();
    for seed in [1, 2, 3] {
        let mut s = Session::new(gen_program(seed, &cfg));
        sweep(&mut s, seed, 60, &mut seen);
    }
    seen.assert_covers_both("apply-sweep rounds");
}

/// The undo-any-order workload's session: about 980 statements with 200
/// records, compared as prepared and while its records are undone in a
/// seeded order.
#[test]
fn prepared_undo_session_matches_reference() {
    let cfg = WorkloadCfg {
        fragments: 220,
        noise_ratio: 0.2,
        kinds: None,
        figure1_chains: 4,
    };
    let prepared = prepare(2, &cfg, 200);
    let mut s = prepared.session;
    assert!(s.prog.attached_len() > 900, "{}", s.prog.attached_len());
    let mut seen = Compared::default();
    seen.check(&s, "prepared");
    let mut order = prepared.applied;
    order.shuffle(&mut StdRng::seed_from_u64(5));
    for (i, id) in order.into_iter().enumerate() {
        // Cascades undo some records early; those report AlreadyUndone.
        let _ = s.undo(id, Strategy::Regional);
        if i % 40 == 39 {
            seen.check(&s, &format!("after {} undos", i + 1));
        }
    }
    seen.check(&s, "all undone");
    seen.assert_covers_both("prepared undo session");
}

/// Search-walk states: applies, undo-rejects and restart rollbacks.
#[test]
fn search_walk_states_match_reference() {
    let mut seen = Compared::default();
    for seed in [1, 3, 4] {
        let cfg = SearchCfg {
            seed,
            moves: 400,
            fragments: 16,
            plateau: 150,
            max_restarts: 2,
            ..Default::default()
        };
        let mut search = Search::new(search_session(&cfg), cfg, RejectMode::UndoReject);
        seen.check(search.session(), &format!("seed {seed}, start"));
        for m in 0.. {
            match search.step() {
                StepKind::Budget | StepKind::Plateaued => break,
                StepKind::NoOpportunity => {}
                k => seen.check(search.session(), &format!("seed {seed}, move {m} ({k:?})")),
            }
        }
    }
    seen.assert_covers_both("search walks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated programs of many shapes, swept to 20 active records.
    #[test]
    fn generated_programs_match_reference(
        seed in 0u64..1_000_000,
        fragments in 2usize..28,
        chains in 0usize..3,
    ) {
        let cfg = WorkloadCfg {
            fragments,
            noise_ratio: 0.4,
            kinds: None,
            figure1_chains: chains,
        };
        let mut s = Session::new(gen_program(seed, &cfg));
        sweep(&mut s, seed, 20, &mut Compared::default());
    }
}
