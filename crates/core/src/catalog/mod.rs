//! The transformation catalog (Table 2): detection and application of the
//! ten transformations, each realized as a sequence of primitive actions.
//!
//! Detection (`find_*`) consults the two-level representation and returns
//! [`Opportunity`] values whose application is guaranteed
//! semantics-preserving (checked by interpreter-equivalence tests).
//! Application performs primitive actions through the [`ActionLog`], so the
//! resulting history is transformation-independent.

use crate::actions::{ActionError, ActionLog, Stamp};
use crate::kind::XformKind;
use crate::pattern::{Pattern, XformParams};
use pivot_ir::Rep;
use pivot_lang::{Program, StmtId, StmtKind, Sym};

pub mod cfo;
pub mod cpp;
pub mod cse;
pub mod ctp;
pub mod dce;
pub mod fus;
pub mod icm;
pub mod inx;
pub mod lur;
pub mod smi;

/// A detected, applicable transformation instance.
#[derive(Clone, Debug)]
pub struct Opportunity {
    /// Typed parameters (sites). For LUR/SMI some fields are completed at
    /// application time (copy roots, the fresh outer loop).
    pub params: XformParams,
    /// Human-readable description.
    pub description: String,
}

impl Opportunity {
    /// Which transformation.
    pub fn kind(&self) -> XformKind {
        self.params.kind()
    }
}

/// Result of applying an opportunity.
#[derive(Clone, Debug)]
pub struct Applied {
    /// Completed parameters.
    pub params: XformParams,
    /// Captured pre-pattern.
    pub pre: Pattern,
    /// Captured post-pattern.
    pub post: Pattern,
    /// Stamps of the performed actions, in order.
    pub stamps: Vec<Stamp>,
}

/// Find opportunities of one kind.
pub fn find(prog: &Program, rep: &Rep, kind: XformKind) -> Vec<Opportunity> {
    match kind {
        XformKind::Dce => dce::find(prog, rep),
        XformKind::Cse => cse::find(prog, rep),
        XformKind::Ctp => ctp::find(prog, rep),
        XformKind::Cpp => cpp::find(prog, rep),
        XformKind::Cfo => cfo::find(prog, rep),
        XformKind::Icm => icm::find(prog, rep),
        XformKind::Lur => lur::find(prog, rep),
        XformKind::Smi => smi::find(prog, rep),
        XformKind::Fus => fus::find(prog, rep),
        XformKind::Inx => inx::find(prog, rep),
    }
}

/// Find opportunities of every kind, in Table 4 order.
pub fn find_all(prog: &Program, rep: &Rep) -> Vec<Opportunity> {
    crate::kind::ALL_KINDS
        .iter()
        .flat_map(|&k| find(prog, rep, k))
        .collect()
}

/// [`find_all`] over a worker pool: the ten per-kind finders run
/// concurrently (each reads only the immutable program/representation) and
/// the per-kind result lists are concatenated in Table 4 order — so the
/// output is identical to [`find_all`] at any thread count.
pub fn find_all_with(prog: &Program, rep: &Rep, pool: &pivot_par::Pool) -> Vec<Opportunity> {
    if pool.is_sequential() {
        return find_all(prog, rep);
    }
    let m = pivot_obs::metrics::global();
    m.counter("par.find.batches").inc();
    pool.run(crate::kind::ALL_KINDS.len(), |i| {
        find(prog, rep, crate::kind::ALL_KINDS[i])
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Apply an opportunity through the action log.
pub fn apply(
    prog: &mut Program,
    log: &mut ActionLog,
    opp: &Opportunity,
) -> Result<Applied, ActionError> {
    match &opp.params {
        XformParams::Dce { .. } => dce::apply(prog, log, opp),
        XformParams::Cse { .. } => cse::apply(prog, log, opp),
        XformParams::Ctp { .. } => ctp::apply(prog, log, opp),
        XformParams::Cpp { .. } => cpp::apply(prog, log, opp),
        XformParams::Cfo { .. } => cfo::apply(prog, log, opp),
        XformParams::Icm { .. } => icm::apply(prog, log, opp),
        XformParams::Inx { .. } => inx::apply(prog, log, opp),
        XformParams::Fus { .. } => fus::apply(prog, log, opp),
        XformParams::Lur { .. } => lur::apply(prog, log, opp),
        XformParams::Smi { .. } => smi::apply(prog, log, opp),
    }
}

// ---------------------------------------------------------------------
// Shared detection helpers
// ---------------------------------------------------------------------

/// Is the relationship established at `from` (e.g. `A = B op C`, `x = const`,
/// `x = y`) still intact when control reaches `to`?
///
/// True iff `from` dominates `to` and **no path from `from` to `to` that
/// avoids re-executing `from`** passes a definition of any symbol in `syms`.
/// (Re-executing `from` re-establishes the relationship, so paths through
/// `from` are fine.) Computed as a small must-availability analysis at
/// statement granularity.
pub fn value_intact(prog: &Program, rep: &Rep, from: StmtId, to: StmtId, syms: &[Sym]) -> bool {
    if from == to || !rep.stmt_dominates(from, to) {
        return false;
    }
    let cfg = &rep.cfg;
    let n = cfg.len();
    let (bf, bt) = match (cfg.block_of(from), cfg.block_of(to)) {
        (Some(a), Some(b)) => (a, b),
        _ => return false,
    };
    // Per-block boolean dataflow: "intact" holds at block entry/exit.
    // Transfer walks the block's statements: a def of a watched symbol
    // clears it, executing `from` sets it.
    let transfer = |b: pivot_ir::cfg::BlockId, mut state: bool| -> bool {
        for &s in &cfg.block(b).stmts {
            if s == from {
                state = true;
                continue;
            }
            let du = pivot_ir::access::stmt_def_use(prog, s);
            if syms.iter().any(|&y| du.defines(y)) {
                state = false;
            }
        }
        state
    };
    // Must-analysis: IN = AND of predecessor OUTs; start at top (true),
    // entry IN = false (nothing is intact before `from` ever runs — but
    // domination guarantees every path to `to` passes `from`).
    let mut ins = vec![true; n];
    let mut outs = vec![true; n];
    ins[cfg.entry.index()] = false;
    let order = cfg.rpo();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            if b != cfg.entry {
                let mut v = true;
                for &p in &cfg.block(b).preds {
                    v &= outs[p.index()];
                }
                if ins[bi] != v {
                    ins[bi] = v;
                    changed = true;
                }
            }
            let o = transfer(b, ins[bi]);
            if outs[bi] != o {
                outs[bi] = o;
                changed = true;
            }
        }
    }
    // Evaluate at the program point just before `to`.
    let mut state = ins[bt.index()];
    for &s in &cfg.block(bt).stmts {
        if s == to {
            break;
        }
        if s == from {
            state = true;
            continue;
        }
        let du = pivot_ir::access::stmt_def_use(prog, s);
        if syms.iter().any(|&y| du.defines(y)) {
            state = false;
        }
    }
    let _ = bf;
    state
}

/// The one symbol statement `s` defines, if any: the assignment or `read`
/// target (scalar, or the array for an element store) or a loop's
/// induction variable. `stmt_def(prog, s) == Some(y)` exactly when
/// `access::stmt_def_use(prog, s).defines(y)`, without building the
/// summary's four vectors.
pub(crate) fn stmt_def(prog: &Program, s: StmtId) -> Option<Sym> {
    match &prog.stmt(s).kind {
        StmtKind::Assign { target, .. } | StmtKind::Read { target } => Some(target.var),
        StmtKind::DoLoop { var, .. } => Some(*var),
        StmtKind::Write { .. } | StmtKind::If { .. } => None,
    }
}

const NONE: u32 = u32::MAX;

/// [`value_intact`] for many candidates at once: one bitset must-analysis
/// over the CFG with one bit per candidate `(from, watched)`. Bit `k` is
/// set by executing candidate `k`'s `from` and cleared by a definition of
/// one of its watched symbols; IN is the AND of the predecessors' OUTs,
/// the entry starts clear and every other block at top. Each bit evolves
/// exactly as `value_intact`'s boolean does, so
/// `intact(rep, k, to) == value_intact(prog, rep, from_k, to, watched_k)`.
///
/// The solve keeps the state just before every statement, so each query
/// is one bit test plus the domination check. Its buffers are flat and
/// live only as long as the value.
pub(crate) struct IntactSolve {
    froms: Vec<StmtId>,
    words: usize,
    /// Row of `rows` holding the state before each statement, by arena
    /// index (`NONE` for statements outside the CFG).
    row_of: Vec<u32>,
    rows: Vec<u64>,
}

impl IntactSolve {
    /// Solve for the candidates, numbered in iteration order. Their
    /// `from` statements must be distinct.
    pub fn new<'a>(
        prog: &Program,
        rep: &Rep,
        cands: impl IntoIterator<Item = (StmtId, &'a [Sym])>,
    ) -> IntactSolve {
        let mut froms = Vec::new();
        let mut watch: Vec<(Sym, usize)> = Vec::new();
        for (k, (from, syms)) in cands.into_iter().enumerate() {
            froms.push(from);
            watch.extend(syms.iter().map(|&y| (y, k)));
        }
        let words = froms.len().div_ceil(64);
        // One kill row per watched symbol: the candidates its definition
        // clears.
        let mut slot = vec![NONE; prog.symbols.len()];
        let mut kills: Vec<u64> = Vec::new();
        for (y, k) in watch {
            let sl = &mut slot[y.index()];
            if *sl == NONE {
                *sl = (kills.len() / words) as u32;
                kills.resize(kills.len() + words, 0);
            }
            kills[*sl as usize * words + k / 64] |= 1 << (k % 64);
        }
        let mut gen_of = vec![NONE; prog.stmt_arena_len()];
        for (k, &f) in froms.iter().enumerate() {
            gen_of[f.index()] = k as u32;
        }
        // One statement's transfer: its definition kills, then executing a
        // candidate's `from` re-establishes that candidate.
        let kill_row = |s: StmtId| -> Option<&[u64]> {
            let sl = slot[stmt_def(prog, s)?.index()];
            (sl != NONE).then(|| &kills[sl as usize * words..][..words])
        };
        let gen_bit = |s: StmtId| -> Option<usize> {
            let k = gen_of[s.index()];
            (k != NONE).then_some(k as usize)
        };

        // Compose each block's statements into one (kill, gen) pair.
        let cfg = &rep.cfg;
        let n = cfg.len();
        let mut kill = vec![0u64; n * words];
        let mut gen = vec![0u64; n * words];
        for b in cfg.ids() {
            let at = b.index() * words;
            let (kb, gb) = (&mut kill[at..at + words], &mut gen[at..at + words]);
            for &s in &cfg.block(b).stmts {
                if let Some(row) = kill_row(s) {
                    for ((kw, gw), &rw) in kb.iter_mut().zip(gb.iter_mut()).zip(row) {
                        *kw |= rw;
                        *gw &= !rw;
                    }
                }
                if let Some(k) = gen_bit(s) {
                    gb[k / 64] |= 1 << (k % 64);
                    kb[k / 64] &= !(1 << (k % 64));
                }
            }
        }

        // Round-robin in reverse postorder from top, as `value_intact` does;
        // blocks unreachable from the entry keep top.
        let mut ins = vec![!0u64; n * words];
        let mut outs = vec![!0u64; n * words];
        let entry = cfg.entry.index() * words;
        ins[entry..entry + words].fill(0);
        let order = cfg.rpo();
        let mut meet = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let at = b.index() * words;
                if b != cfg.entry {
                    meet.fill(!0);
                    for &p in &cfg.block(b).preds {
                        let pa = p.index() * words;
                        for (m, &o) in meet.iter_mut().zip(&outs[pa..pa + words]) {
                            *m &= o;
                        }
                    }
                    if ins[at..at + words] != meet[..] {
                        ins[at..at + words].copy_from_slice(&meet);
                        changed = true;
                    }
                }
                for i in at..at + words {
                    let o = (ins[i] & !kill[i]) | gen[i];
                    if outs[i] != o {
                        outs[i] = o;
                        changed = true;
                    }
                }
            }
        }

        // The state just before each statement, walking each block from IN.
        let mut row_of = vec![NONE; prog.stmt_arena_len()];
        let mut rows = Vec::new();
        let mut state = vec![0u64; words];
        for b in cfg.ids() {
            let at = b.index() * words;
            state.copy_from_slice(&ins[at..at + words]);
            for &s in &cfg.block(b).stmts {
                row_of[s.index()] = (rows.len() / words.max(1)) as u32;
                rows.extend_from_slice(&state);
                if let Some(row) = kill_row(s) {
                    for (w, &rw) in state.iter_mut().zip(row) {
                        *w &= !rw;
                    }
                }
                if let Some(k) = gen_bit(s) {
                    state[k / 64] |= 1 << (k % 64);
                }
            }
        }
        IntactSolve {
            froms,
            words,
            row_of,
            rows,
        }
    }

    /// Is candidate `k`'s relationship intact just before `to`?
    pub fn intact(&self, rep: &Rep, k: usize, to: StmtId) -> bool {
        let Some(&from) = self.froms.get(k) else {
            return false;
        };
        let row = match self.row_of.get(to.index()) {
            Some(&r) if r != NONE && from != to => r as usize,
            _ => return false,
        };
        self.rows[row * self.words + k / 64] >> (k % 64) & 1 == 1 && rep.stmt_dominates(from, to)
    }
}

/// Snapshot, per watched symbol, of the definitions reaching `use_stmt`
/// (sorted). Stored in rewrite params so the safety check can detect *new*
/// reaching definitions (edits on the def-use path) even after the defining
/// statement was legally deleted. The facts reaching `use_stmt` are
/// computed once and filtered per symbol, as
/// `rep.reach.defs_reaching(.., use_stmt, y)` would for each `y`.
pub fn reaching_snapshot(
    prog: &Program,
    rep: &Rep,
    use_stmt: StmtId,
    syms: &[Sym],
) -> Vec<(Sym, Vec<StmtId>)> {
    if syms.is_empty() {
        return Vec::new();
    }
    let reach = &rep.reach;
    let before = reach.reaching_before(prog, &rep.cfg, use_stmt);
    syms.iter()
        .map(|&y| {
            let mut defs: Vec<StmtId> = reach
                .by_sym
                .get(&y)
                .into_iter()
                .flatten()
                .filter(|&&f| before.contains(f))
                .map(|&f| reach.sites[f].stmt)
                .collect();
            defs.sort_unstable();
            defs.dedup();
            (y, defs)
        })
        .collect()
}

/// Expression nodes within `stmt` whose payload is exactly `Var(sym)`.
pub fn var_use_exprs(prog: &Program, stmt: StmtId, sym: Sym) -> Vec<pivot_lang::ExprId> {
    prog.stmt_exprs(stmt)
        .into_iter()
        .filter(|&e| matches!(prog.expr(e).kind, pivot_lang::ExprKind::Var(v) if v == sym))
        .collect()
}

/// Deterministic ordering key for opportunities: positions of site stmts.
pub(crate) fn sort_opps(rep: &Rep, opps: &mut [Opportunity]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_lang::parser::parse;

    fn setup(src: &str) -> (Program, Rep) {
        let p = parse(src).unwrap();
        let rep = Rep::build(&p);
        (p, rep)
    }

    #[test]
    fn value_intact_straight_line() {
        let (p, rep) = setup("x = a + b\ny = 1\nz = x\n");
        let ss = p.attached_stmts();
        let a = p.symbols.get("a").unwrap();
        let x = p.symbols.get("x").unwrap();
        assert!(value_intact(&p, &rep, ss[0], ss[2], &[a, x]));
    }

    #[test]
    fn value_intact_broken_by_redef() {
        let (p, rep) = setup("x = a + b\na = 1\nz = x\n");
        let ss = p.attached_stmts();
        let a = p.symbols.get("a").unwrap();
        assert!(!value_intact(&p, &rep, ss[0], ss[2], &[a]));
    }

    #[test]
    fn value_intact_requires_domination() {
        let (p, rep) = setup("read c\nif (c > 0) then\n  x = a\nendif\nz = x\n");
        let ss = p.attached_stmts();
        let a = p.symbols.get("a").unwrap();
        assert!(!value_intact(&p, &rep, ss[2], ss[3], &[a]));
    }

    #[test]
    fn value_intact_branch_kill() {
        let (p, rep) = setup("x = a\nread c\nif (c > 0) then\n  a = 2\nendif\nz = x + a\n");
        let ss = p.attached_stmts();
        let a = p.symbols.get("a").unwrap();
        // One path kills a.
        assert!(!value_intact(&p, &rep, ss[0], ss[4], &[a]));
        // But x itself is fine.
        let x = p.symbols.get("x").unwrap();
        assert!(value_intact(&p, &rep, ss[0], ss[4], &[x]));
    }

    #[test]
    fn value_intact_loop_back_path() {
        // The def of `a` later in the loop body kills intactness for the
        // use at the top of the next iteration.
        let (p, rep) = setup("x = a\ndo i = 1, 5\n  y = x\n  a = i\n  x = a\nenddo\n");
        let ss = p.attached_stmts();
        // From the in-loop x = a (ss[4]) to the use y = x (ss[2]): path goes
        // around the loop; nothing between redefines x or a on that path
        // except... a = i (ss[3]) is *before* ss[4] in the body, so the
        // back path ss[4] → header → ss[2] is clean for x.
        let x = p.symbols.get("x").unwrap();
        // ss[4] does not dominate ss[2] (it executes after it within the
        // iteration), so intactness must be refused even though the back
        // path itself is clean.
        assert!(!value_intact(&p, &rep, ss[4], ss[2], &[x]));
        // From x = a (ss[0], before the loop) to y = x: the loop body
        // redefines x on the back path, so NOT intact.
        assert!(!value_intact(&p, &rep, ss[0], ss[2], &[x]));
    }

    #[test]
    fn value_intact_reestablished_by_from() {
        // `from` inside the loop re-executes every iteration, so the def of
        // `a` before it in the same body does not break intactness at the
        // use after it.
        let (p, rep) = setup("do i = 1, 5\n  a = i\n  x = a\n  y = x\nenddo\n");
        let ss = p.attached_stmts();
        let x = p.symbols.get("x").unwrap();
        let a = p.symbols.get("a").unwrap();
        assert!(value_intact(&p, &rep, ss[2], ss[3], &[x, a]));
    }

    #[test]
    fn var_use_exprs_finds_occurrences() {
        let (p, _rep) = setup("y = x + x * 2\n");
        let ss = p.attached_stmts();
        let x = p.symbols.get("x").unwrap();
        assert_eq!(var_use_exprs(&p, ss[0], x).len(), 2);
        let y = p.symbols.get("y").unwrap();
        assert!(var_use_exprs(&p, ss[0], y).is_empty());
    }

    /// Every statement as a candidate, watching what it defines and what
    /// its expressions read; the batched answer must equal
    /// `value_intact` for every (candidate, statement) pair, and some pair
    /// must be intact.
    fn assert_solve_matches(src: &str) {
        let (p, rep) = setup(src);
        let ss = p.attached_stmts();
        let cands: Vec<(StmtId, Vec<Sym>)> = ss
            .iter()
            .map(|&s| {
                let mut w: Vec<Sym> = stmt_def(&p, s).into_iter().collect();
                for e in p.stmt_expr_roots(s) {
                    p.expr_uses(e, &mut w);
                }
                w.sort_unstable();
                w.dedup();
                (s, w)
            })
            .collect();
        let solve = IntactSolve::new(&p, &rep, cands.iter().map(|(s, w)| (*s, &w[..])));
        let mut intact = 0;
        for (k, (from, watched)) in cands.iter().enumerate() {
            for &to in &ss {
                let want = value_intact(&p, &rep, *from, to, watched);
                assert_eq!(
                    solve.intact(&rep, k, to),
                    want,
                    "from line {} to line {} watching {watched:?} in\n{src}",
                    p.stmt(*from).label,
                    p.stmt(to).label
                );
                intact += usize::from(want);
            }
        }
        assert!(intact > 0, "no intact pair in\n{src}");
    }

    #[test]
    fn batched_solve_matches_value_intact_in_a_loop() {
        assert_solve_matches("x = a + b\ndo i = 1, 5\n  y = x + i\n  z = a + b\nenddo\nwrite y\n");
    }

    #[test]
    fn batched_solve_matches_value_intact_across_a_branch() {
        assert_solve_matches(
            "x = a\nread c\nif (c > 0) then\n  a = 2\n  w = x\nelse\n  v = x + a\nendif\nz = x + a\n",
        );
    }

    #[test]
    fn batched_solve_matches_value_intact_with_a_redefinition_in_a_loop() {
        assert_solve_matches("x = a\ndo i = 1, 5\n  y = x\n  a = i\n  x = a\nenddo\nz = x + a\n");
    }

    #[test]
    fn batched_solve_matches_value_intact_for_a_definition_reexecuted_in_a_loop() {
        assert_solve_matches("do i = 1, 5\n  a = i\n  x = a\n  y = x\n  z = x + a\nenddo\nw = x\n");
    }

    #[test]
    fn batched_solve_matches_value_intact_with_nested_loops_and_arrays() {
        assert_solve_matches(
            "d = e + f\ndo i = 1, 4\n  do j = 1, 3\n    A(j) = d + j\n    r = A(j) + e\n  enddo\n  e = r\nenddo\nwrite r + d\n",
        );
    }

    #[test]
    fn batched_solve_with_more_than_one_word_of_candidates() {
        // 70 straight-line definitions: candidates span two bitset words,
        // and the redefinition of `a` halfway kills the first half only.
        let mut src = String::new();
        for i in 0..35 {
            src.push_str(&format!("t{i} = a + {i}\n"));
        }
        src.push_str("a = 7\n");
        for i in 35..70 {
            src.push_str(&format!("t{i} = a + {i}\n"));
        }
        src.push_str("write t0 + t69\n");
        assert_solve_matches(&src);
    }

    #[test]
    fn stmt_def_agrees_with_def_use_on_every_statement_kind() {
        let (p, _rep) = setup(
            "x = a + 1\nA(i) = x\nread y\nread B(j)\nwrite x + y\ndo k = 1, n, 2\n  z = k\nenddo\nif (x > 0) then\n  w = 1\nendif\n",
        );
        let ss = p.attached_stmts();
        let kinds: Vec<&str> = ss
            .iter()
            .map(|&s| match &p.stmt(s).kind {
                StmtKind::Assign { target, .. } if target.is_scalar() => "assign",
                StmtKind::Assign { .. } => "store",
                StmtKind::Read { target } if target.is_scalar() => "read",
                StmtKind::Read { .. } => "read-element",
                StmtKind::Write { .. } => "write",
                StmtKind::DoLoop { .. } => "do",
                StmtKind::If { .. } => "if",
            })
            .collect();
        for kind in [
            "assign",
            "store",
            "read",
            "read-element",
            "write",
            "do",
            "if",
        ] {
            assert!(kinds.contains(&kind), "no {kind} statement");
        }
        for &s in &ss {
            let du = pivot_ir::access::stmt_def_use(&p, s);
            for (y, _) in p.symbols.iter() {
                assert_eq!(
                    stmt_def(&p, s) == Some(y),
                    du.defines(y),
                    "line {} and {}",
                    p.stmt(s).label,
                    p.symbols.name(y)
                );
            }
        }
    }
}
